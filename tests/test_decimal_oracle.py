"""A decimal oracle for the certified moduli and the tails.

The standard library's decimal module rounds exp, ln and sqrt correctly.
At 40 digits, with pi from a frozen 60-digit string, it gives the exact
moduli of the three closed-form families far below a double's rounding:
sqrt(pi*w/sinh(pi*w)) (exponential), 1/sqrt(cosh(pi*w/2)) (half-Gaussian)
and 1/sqrt(1 + w^2) (uniform).  Each family's modulus kernel, on random
angular frequencies w, and each product that chains._moduli forms for
hypothesis-drawn chains, at the exact w = 2*pi*|R|*l/ln B, must lie at or
above them where the exact value is normal, and below 2**-1022 no further
below than the absolute error each family states at its kernel
(families.py).  A Taylor sine gives benford's |sin x|/x at a foreign base,
which its kernel and its tail anchor, the envelope 1/x, must lie at or
above.

The tails close past L2 = max(2L, 256) from each link's anchor and its
ratio law (g, p) with a constant c.  Each family's stated law must hold for
the exact moduli from small ell0 on, and fail with c = 1 for the uniform
and the half-Gaussian; each anchor must lie at or above c times the exact
modulus; and the two tails of hypothesis-drawn chains must lie at or above
a decimal sum of the exact moduli, closed by the same laws in decimal.

At 50 digits it also gives the phase Im lnGamma(x + iy) that arg_gamma
evaluates: a shift by 16 (DLMF 5.5.1), a 10-term Stirling series (DLMF
5.11.1; its first omitted term is below 1e-24 at |w| >= 16), and a decimal
arctan and ln.  arg_gamma, at x = 1 and 1/2 (the exponential and
half-Gaussian phases), at random x, and as the per-row-x call of the chain
spectrum, must lie within the error its docstring states.
"""

import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_chains import chains, families
from benford_chains.chains import ChainLink, ChainSpec
from benford_chains.specfun import arg_gamma

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
DIGITS = 40
NORMAL = Decimal(2) ** -1022
LEAST = Decimal(2) ** -1074
KERNELS = {
    "exponential": families._exponential_modulus,
    "half_gaussian": families._half_gaussian_modulus,
    "uniform": families._uniform_modulus,
}
# The absolute error below 2**-1022 that each family states at its kernel,
# in units of 2**-1074.
SUBNORMAL = {"exponential": 225, "half_gaussian": 9, "uniform": 5}


def exact(name: str, w: Decimal) -> Decimal:
    """The exact modulus of a family's Mellin value at angular frequency w >= 0."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if name == "exponential":
            p = PI * w
            if not p:
                return Decimal(1)
            e = (-p).exp()
            return (2 * p * e / (1 - e * e)).sqrt()  # p/sinh p, with no overflow
        if name == "half_gaussian":
            t = PI * w / 2
            return 1 / ((t.exp() + (-t).exp()) / 2).sqrt()
        return 1 / (1 + w * w).sqrt()


def assert_at_or_above(got: float, want: Decimal, slack: int, where) -> None:
    """got >= want where want is normal, else got >= want - slack * 2**-1074."""
    if want >= NORMAL:
        assert Decimal(got) >= want, where
    else:
        assert Decimal(got) >= want - slack * LEAST, where


def frequencies(name: str) -> np.ndarray:
    """Random w in (0, 480) and near 0, the old crossover pi*w = 30 +- 0.1%,
    and the span next to the family's zero_beyond (uniform: its subnormal range)."""
    rng = np.random.default_rng(20261020)
    edge = families.get_family(name).zero_beyond
    spans = [
        rng.uniform(0.0, 480.0, 4000),
        np.exp(rng.uniform(math.log(1e-9), 0.0, 200)),
        rng.uniform(0.999, 1.001, 200) * (30.0 / math.pi),
        [0.0, 30.0 / math.pi],
        rng.uniform(edge - 30.0, edge, 600) if edge < math.inf else rng.uniform(2.0**1022, 1.7e308, 100),
    ]
    return np.concatenate(spans)


def test_each_kernel_lies_at_or_above_the_exact_modulus():
    for name, kernel in KERNELS.items():
        w = frequencies(name)
        got = kernel(None, w, 10)
        subnormal = 0
        for x, m in zip(w.tolist(), got.tolist()):
            want = exact(name, Decimal(x))
            subnormal += want < NORMAL
            assert_at_or_above(m, want, SUBNORMAL[name], (name, x, m))
        # the sweep reaches the subnormal range of every family
        assert subnormal >= 50, name


def exact_product(chain: ChainSpec, ell: int) -> Decimal:
    """|c_l| of a chain of closed-form links, at the exact w = 2*pi*|R|*l/ln B."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        log_base = Decimal(chain.base).ln()
        out = Decimal(1)
        for family, r in chain._factors:
            out *= exact(family.name, 2 * PI * abs(r) * ell / log_base)
        return out


LINKS = st.tuples(
    st.sampled_from(sorted(KERNELS)),
    st.integers(1, 6).flatmap(lambda p: st.sampled_from([p, -p])),
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.integers(2, 10**6),
    links=st.lists(LINKS, min_size=1, max_size=4),
    target=st.floats(0.0, 500.0),
    span=st.integers(1, 12),
)
def test_chain_moduli_lie_at_or_above_the_exact_product(base, links, target, span):
    links = [(links[0][0], 1), *links[1:]]
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    # the first frequency puts the link with the largest |R| near w = target
    r_max = max(abs(r) for _, r in chain._factors)
    first = max(1, int(target * math.log(base) / (2.0 * math.pi * r_max)))
    moduli, _ = chains._moduli(chain, first, first + span - 1)
    slack = sum(SUBNORMAL[family.name] for family, _ in chain._factors) + len(links)
    for ell in range(first, first + span):
        # past the support prefix the pass returns nothing: the modulus is 0.0
        got = float(moduli[ell - first]) if ell - first < moduli.size else 0.0
        assert_at_or_above(got, exact_product(chain, ell), slack, (base, links, ell, got))


# ---------------------------------------------------- benford at a foreign base


def decimal_sin(x: Decimal) -> Decimal:
    """sin x for x >= 0 to 60 digits: x reduced into (-pi, pi], then Taylor."""
    with localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * PI
        x -= two_pi * (x / two_pi).to_integral_value(rounding=ROUND_FLOOR)
        if x > PI:
            x -= two_pi
        square, term, total, n = x * x, x, x, 1
        while True:
            term = -term * square / ((n + 1) * (n + 2))
            n += 2
            step = total + term
            if step == total:
                return total
            total = step


def benford_cases():
    """Random (b, B, l) with b != B, and bases whose exact modulus vanishes (ln b/ln B rational)."""
    rng = np.random.default_rng(20261023)
    cases = [(4, 2, 1), (100, 10, 7), (8, 2, 3), (1000, 10, 64), (2, 4, 5), (10, 1000, 333)]
    while len(cases) < 1500:
        b, B = (int(v) for v in np.exp(rng.uniform(math.log(2.0), math.log(1e6), 2)))
        ell = int(np.exp(rng.uniform(0.0, math.log(1e5))))
        if b != B:
            cases.append((b, B, ell))
    return cases


def test_benford_at_a_foreign_base_lies_at_or_above_a_taylor_sine():
    below = 0
    for b, B, ell in benford_cases():
        family = families.get_family("benford", b)
        w = 2.0 * math.pi * float(ell) / math.log(B)
        [m] = family.modulus(b, np.array([w]), B).tolist()
        anchor, g, p = family.tail(b, 1.0, B, ell, w, m)
        with localcontext() as ctx:
            ctx.prec = 60
            x = PI * ell * Decimal(b).ln() / Decimal(B).ln()
            exact = abs(decimal_sin(x)) / x
            envelope = min(Decimal(1), 1 / x)
        # m^(1 + 22u) + 10u, and the envelope rounded up by 1 + 12u
        assert Decimal(m) >= exact, (b, B, ell, m)
        assert Decimal(anchor) >= max(envelope, exact) and (g, p) == (1.0, 1), (b, B, ell, anchor)
        # the envelope as computed without its rounding budget
        below += Decimal(min(1.0, math.log(B) / (math.pi * ell * math.log(b)))) < envelope
    # which fell below the exact 1/x on some of these points
    assert below > 0


# ---------------------------------------------------------------- the tails

# Each family's constant c at the exact w of ell0: the slack of its ratio
# law over the exact modulus there (families.py).
C = {
    "exponential": lambda w: Decimal(1),
    "uniform": lambda w: (1 + 1 / (w * w)).sqrt(),
    "half_gaussian": lambda w: (1 + (-PI * w).exp()).sqrt(),
}


def stated_ratio(name: str, r: int, base: int, ell0: int) -> tuple[Decimal, int]:
    """(g, p) of a family's law past ell0 as families.py states it, in decimal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam = PI * PI * r / Decimal(base).ln()
        if name == "uniform":
            return Decimal(1), 1
        if name == "half_gaussian":
            return (-lam / 2).exp(), 0
        y1 = 2 * lam * (ell0 + 1)
        slack = (1 + Decimal(1) / ell0) / (1 - (-2 * y1).exp())
        return min(Decimal(1), slack.sqrt() * (-lam).exp()), 0


def law_holds(name: str, r: int, base: int, ell0: int, c: Decimal, g: Decimal, p: int) -> bool:
    """exact(l) <= c * exact(ell0) * g**(l - ell0) * (ell0/l)**p for l in ell0..ell0 + 200,
    up to 1e-30 relative: the exponential's first ratio is tight to e^(-2y) at
    ell0, below the oracle's 40 digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        log_base = Decimal(base).ln()
        anchor = c * exact(name, 2 * PI * r * ell0 / log_base) * (1 + Decimal("1e-30"))
        return all(
            exact(name, 2 * PI * r * ell / log_base) <= anchor * g ** (ell - ell0) * (Decimal(ell0) / ell) ** p
            for ell in range(ell0, ell0 + 201)
        )


def test_each_stated_law_holds_for_the_exact_moduli_and_needs_its_c():
    for name, kernel in KERNELS.items():
        family = families.get_family(name)
        for base in (2, 10, 1000, 10**6):
            for r in (1, 3):
                for ell0 in (1, 2, 8):
                    g, p = stated_ratio(name, r, base, ell0)
                    with localcontext() as ctx:
                        ctx.prec = DIGITS
                        exact_w = 2 * PI * r * ell0 / Decimal(base).ln()
                        c = C[name](exact_w)
                    where = (name, base, r, ell0)
                    assert law_holds(name, r, base, ell0, c, g, p), where
                    # with c = 1 the uniform law fails at every ell0, and the
                    # half-Gaussian one wherever its slack passes the tolerance
                    if name == "uniform" or (name == "half_gaussian" and c - 1 > Decimal("1e-25")):
                        assert not law_holds(name, r, base, ell0, Decimal(1), g, p), where
                    # the kernel: its (g, p) within (16 + 6*lam)u of the
                    # stated law's, where g is e^(-lam), lam < 1 - ln g, times
                    # a slack factor and lam carries 6u (the closure's
                    # rounding is ROADMAP item 4); its anchor at or above
                    # c * the exact modulus, capped at 1
                    w = 2.0 * math.pi * float(r * ell0) / math.log(base)
                    [m] = kernel(None, np.array([w]), base).tolist()
                    a, g_kernel, p_kernel = family.tail(None, float(r), base, ell0, w, m)
                    lam = -math.log(float(g)) + 1.0
                    assert p_kernel == p and abs(Decimal(g_kernel) - g) <= Decimal((16 + 6 * lam) * U) * g, where
                    assert Decimal(a) >= min(Decimal(1), c * exact(name, exact_w)), where


@settings(max_examples=40, deadline=None)
@given(
    base=st.integers(2, 10**6),
    links=st.lists(LINKS, min_size=1, max_size=3),
    L=st.sampled_from([1, 64, 200]),
)
def test_the_tails_lie_at_or_above_a_decimal_sum_of_the_exact_moduli(base, links, L):
    links = [(links[0][0], 1), *links[1:]]
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    L2 = max(2 * L, 256)
    bounds = chains._moduli(chain, 1, L2)[0] * chains._round_up(len(links))
    plain, weighted = chains._tails(chain, bounds, L)
    # the oracle: the exact terms L+1..L2+50, closed past ell0 = L2 + 50 by
    # the stated laws with the exact c, g and anchors
    ell0 = L2 + 50
    with localcontext() as ctx:
        ctx.prec = DIGITS
        terms = [exact_product(chain, ell) for ell in range(L + 1, ell0 + 1)]
        anchor, g_total, p_total = Decimal(1), Decimal(1), 0
        log_base = Decimal(base).ln()
        for family, r in chain._factors:
            w = 2 * PI * abs(r) * ell0 / log_base
            g, p = stated_ratio(family.name, abs(r), base, ell0)
            anchor *= C[family.name](w) * exact(family.name, w)
            g_total *= g
            p_total += p
        for tail, weight, p in ((plain, Decimal(0), p_total), (weighted, Decimal(1), p_total + 1)):
            scale = 1 / (PI * ell0) if weight else Decimal(1)
            if g_total < 1:
                rest = anchor * scale * g_total / (1 - g_total)
            elif p >= 2:
                rest = anchor * scale * ell0 / (p - 1)
            else:
                assert tail == math.inf, (base, links, L)
                continue
            total = 2 * (sum(t / (PI * ell) if weight else t for ell, t in enumerate(terms, L + 1)) + rest)
            # below 2**-1022 each term may lie under the exact one by the
            # absolute error its links state, as in the moduli check above
            slack = 2 * (L2 - L) * (sum(SUBNORMAL[f.name] for f, _ in chain._factors) + len(links)) * LEAST
            assert Decimal(tail) >= total - slack, (base, links, L, tail, total)


# ------------------------------------------------------------------ the phase

PHASE_DIGITS = 50
U = 2.0**-53
# B_2k for k = 1..10 (DLMF 24.2.2): the Stirling coefficients are
# B_2k / (2k (2k - 1)).
BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
    Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
    Fraction(-174611, 330),
)


def decimal_atan(t: Decimal) -> Decimal:
    """arctan t for t >= 0: pi/2 - arctan(1/t) above 1, then halvings
    arctan t = 2 arctan(t/(1 + sqrt(1 + t^2))) below 0.05, then Taylor."""
    if t > 1:
        return PI / 2 - decimal_atan(1 / t)
    halvings = 0
    while t >= Decimal("0.05"):
        t /= 1 + (1 + t * t).sqrt()
        halvings += 1
    square, term, total, n = t * t, t, t, 1
    while True:
        term = -term * square
        n += 2
        step = total + term / n
        if step == total:
            return total * 2**halvings
        total = step


def exact_phase(x: float, y: float) -> Decimal:
    """Im lnGamma(x + iy), x > 0, the branch that is 0 at y = 0, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = PHASE_DIGITS
        x, ay = Decimal(x), abs(Decimal(y))
        if not ay:
            return Decimal(0)
        shift = sum(decimal_atan(ay / (x + k)) for k in range(16))
        re = x + 16
        modulus2 = re * re + ay * ay
        # the odd powers of 1/w = conj(w)/|w|^2 by steps of 1/w^2
        inv_re, inv_im = re / modulus2, -ay / modulus2
        sq_re, sq_im = inv_re * inv_re - inv_im * inv_im, 2 * inv_re * inv_im
        p_re, p_im, series = inv_re, inv_im, Decimal(0)
        for k, b in enumerate(BERNOULLI, 1):
            series += Decimal(b.numerator) / (b.denominator * 2 * k * (2 * k - 1)) * p_im
            p_re, p_im = p_re * sq_re - p_im * sq_im, p_re * sq_im + p_im * sq_re
        phase = (re - Decimal("0.5")) * decimal_atan(ay / re) + ay * modulus2.ln() / 2 - ay + series - shift
        return phase if y > 0 else -phase


def stated_phase_error(x: float, y: float) -> float:
    """arg_gamma's error bound as its docstring states it, from the terms of its sum:
    u*(15.2*A + 13*|y|*ln|w| + 6*|y| + 21*S + x/2 + 10), w = x + 8 + i|y|."""
    ay, re = abs(y), x + 8.0
    a = (re - 0.5) * math.atan2(ay, re)
    s = math.fsum(math.atan2(ay, x + k) for k in range(8))
    return U * (15.2 * a + 13.0 * ay * math.log(math.hypot(re, ay)) + 6.0 * ay + 21.0 * s + x / 2.0 + 10.0)


def closed_phase_error(x: float, y: float) -> float:
    """Its closed form with A <= (x + 7.5)*pi/2 and S < 4*pi."""
    ay = abs(y)
    return U * (13.0 * ay * math.log(math.hypot(x + 8.0, ay)) + 6.0 * ay + 25.0 * x + 460.0)


def assert_phases_within_the_stated_error(xs, ys, got):
    """Each arg_gamma value within the stated error of the exact phase; the
    worst error as a share of it."""
    worst = 0.0
    for x, y, g in zip(np.broadcast_to(xs, got.shape).ravel().tolist(), ys.ravel().tolist(), got.ravel().tolist()):
        error = float(abs(Decimal(g) - exact_phase(x, y)))
        bound = stated_phase_error(x, y)
        assert error <= bound <= closed_phase_error(x, y), (x, y, g, error / U, bound / U)
        worst = max(worst, error / bound)
    return worst


def test_arg_gamma_lies_within_its_stated_error_of_a_50_digit_phase():
    rng = np.random.default_rng(20261021)
    signs = rng.choice([-1.0, 1.0], 2500)
    # y in (0, 500] at x = 1 and 1/2, with the points where the old
    # statement 2.1u*(|phi| + 4) fell furthest short (ROADMAP item 13)
    ys = np.concatenate([[7.24, 13.84, 500.0], 500.0 * (1.0 - rng.random(1997))]) * signs[:2000]
    ys = ys.reshape(2, 1000)
    rows = np.array([[1.0], [0.5]])
    stacked = arg_gamma(rows, ys)
    worst = assert_phases_within_the_stated_error(rows, ys, stacked)
    # each row of the stacked call has the bits of its own call
    assert stacked.tolist() == [arg_gamma(1.0, ys[0]).tolist(), arg_gamma(0.5, ys[1]).tolist()]
    # random x in (0, 10] and y in (0, 500]
    x = 10.0 * (1.0 - rng.random(500))
    y = 500.0 * (1.0 - rng.random(500)) * signs[2000:]
    worst = max(worst, assert_phases_within_the_stated_error(x, y, arg_gamma(x, y)))
    # the bound is not vacuous: the error reaches a tenth of it
    assert worst > 0.1, worst

"""The numpy spectrum and its consumers without the support prefix, kept as
a test oracle: every family kernel runs on every frequency 1..max(2L, 256),
the tails sum every term of L+1..max(2L, 256), and the bound builds its
per_term tuple in full.  chains keeps only c_1..c_S and the consumers built
on it must still give these outputs bit for bit.

The spectrum is the polar one of the package: the product of the certified
closed-form moduli times e^(i*phi), phi the sum of the family phases.
deviation_bound and fold_probability take their tails from those moduli,
rounded up, as the package does, closed past max(2L, 256) from each link's
anchor there; majorant_tails is the tail before that, with the family
majorants the package once had in place of the moduli up to L2 and of the
anchors, kept as the reference the new tails must stay below within a
rounding slack.
hypot_deviation_bound takes |c_l| as hypot of the spectrum instead, with
no rounding allowance, and stays within 1e-12 relative of the bound."""

import math
from itertools import groupby
from operator import itemgetter

import numpy as np

from benford_chains.chains import SpectrumCheckError, _fold_rounding, _round_up
from benford_chains.families import Family
from benford_chains.specfun import gamma_abs_on_line

_TWO_PI = 2.0 * math.pi
U = 2.0**-53


def _by_family(chain):
    for family, run in groupby(chain._factors, key=itemgetter(0)):
        yield family, np.array([r for _, r in run], dtype=np.float64)


def products(chain, ells, kernel):
    out = np.ones(ells.shape)
    for family, rs in _by_family(chain):
        for m in kernel(family, np.abs(rs)[:, None] * ells, chain.base):
            out *= m
    return out


def spectrum(chain, ells):
    m = products(chain, ells, Family.certified_modulus)
    phase = np.zeros(ells.shape)
    for family, rs in _by_family(chain):
        for p in family.mellin_phase(rs[:, None] * ells, chain.base):
            phase += p
    return m * np.cos(phase), m * np.sin(phase)


def chain_spectrum(chain, ell: int) -> complex:
    if ell == 0:
        return 1.0 + 0.0j
    re, im = spectrum(chain, np.arange(abs(ell), abs(ell) + 1, dtype=np.float64))
    if not (re[0] or im[0]):  # a vanishing product: m = 0
        return 0j
    return complex(re[0], im[0] if ell > 0 else -im[0])


def majorant(family, ells, base):
    """The family majorant the tails once closed from, at R*l = ells: a
    second closed form of the modulus with an ad hoc pad (exponential,
    half-Gaussian) or a rounding pad (uniform), and benford's envelope."""
    ells = np.asarray(ells, dtype=np.float64)
    if family.name == "exponential":
        return np.minimum(1.0, 1.0002 * gamma_abs_on_line(_TWO_PI * ells / math.log(base)))
    if family.name == "uniform":
        return np.minimum(1.0, (1.0 + 8.0 * U) * (math.log(base) / (_TWO_PI * ells)))
    if family.name == "half_gaussian":
        t = math.pi**2 * ells / math.log(base)
        return np.minimum(1.0, 1.01 * math.sqrt(2.0) * np.exp(-0.5 * t))
    if base == family.base:
        return np.zeros(ells.shape)
    return np.minimum(1.0, math.log(base) / (math.pi * ells * math.log(family.base)))


def majorants(chain, ells):
    return products(chain, ells, majorant)


def omega(r, ell0, base) -> float:
    """w(|R| * ell0), formed as chains._moduli forms it."""
    return _TWO_PI * float(abs(r) * ell0) / math.log(base)


def ratio_law(family, r, base, ell0):
    """(g, p) of a family's tail law past ell0, which the majorants had too."""
    return family.tail(family.base, float(abs(r)), base, ell0, omega(r, ell0, base), 0.0)[1:]


def anchors(chain, L2):
    """(A, g, p) of each link past L2, from its certified modulus there; (1, 1, 0)
    where A is capped at 1."""
    out = []
    for family, r in chain._factors:
        w = omega(r, L2, chain.base)
        [m] = family.modulus(family.base, np.array([w]), chain.base).tolist()
        a, g, p = family.tail(family.base, float(abs(r)), chain.base, L2, w, m)
        out.append((1.0, 1.0, 0) if a >= 1.0 else (a, g, p))
    return out


def _close(L2, plain, weighted, last, laws):
    """2 * (sum + rest) of the plain and weighted terms, rest closing past L2
    from last with the links' ratio laws."""
    g_total = 1.0
    p_total = 0
    for g, p in laws:
        g_total *= g
        p_total += p

    def close(terms, last, p):
        if g_total < 1.0:
            rest = last * g_total / (1.0 - g_total)
        elif p >= 2:
            rest = last * L2 / (p - 1)
        elif last == 0.0:
            rest = 0.0
        else:
            rest = math.inf
        return 2.0 * (math.fsum(terms) + rest)

    return close(plain, last, p_total), close(weighted, last / (math.pi * L2), p_total + 1)


def majorant_tails(chain, L: int) -> tuple[float, float]:
    """The tails before the certified moduli: majorant terms L+1..L2, closed
    from the last with each majorant's law, or (1, 0) while its cap binds."""
    L2 = max(2 * L, 256)
    ells = np.arange(L + 1, L2 + 1, dtype=np.float64)
    plain = majorants(chain, ells)
    weighted = (plain / (math.pi * ells)).tolist()
    laws = [
        (1.0, 0) if majorant(family, abs(r) * L2, chain.base) >= 1.0 else ratio_law(family, r, chain.base, L2)
        for family, r in chain._factors
    ]
    return _close(L2, plain.tolist(), weighted, float(plain[-1]), laws)


def moduli(chain, L: int):
    """The certified moduli rounded up, at every frequency 1..max(2L, 256)."""
    ells = np.arange(1, max(2 * L, 256) + 1, dtype=np.float64)
    return products(chain, ells, Family.certified_modulus) * _round_up(len(chain.links))


def tails(chain, L: int) -> tuple[float, float]:
    """The tails: moduli L+1..L2, closed from the product of the anchors at L2."""
    L2 = max(2 * L, 256)
    ells = np.arange(L + 1, L2 + 1, dtype=np.float64)
    explicit = moduli(chain, L)[L:]
    weighted = (explicit / (math.pi * ells)).tolist()
    last, laws = 1.0, []
    for a, g, p in anchors(chain, L2):
        last *= a
        laws.append((g, p))
    return _close(L2, explicit.tolist(), weighted, last, laws)


def _bound(chain, interval, L: int, moduli, tail):
    grows = ~(moduli[1:] <= moduli[:-1] * (1.0 + 1e-12) + 1e-305)
    if grows.any():
        ell = int(np.argmax(grows)) + 2
        raise SpectrumCheckError(f"spectrum modulus grows from |l| = {ell - 1} to {ell}")
    per_term = tuple((sgn, m) for ell, m in enumerate(moduli.tolist(), 1) for sgn in (ell, -ell))
    value = 0.0 if interval.width == 0.0 else interval.width * (math.fsum(m for _, m in per_term) + tail)
    return value, tail, per_term


def deviation_bound(chain, interval, L: int):
    """(value, tail, per_term) of the bound from the certified moduli."""
    tail, _ = tails(chain, L)
    value, tail, per_term = _bound(chain, interval, L, moduli(chain, L)[:L], tail)
    return value * _round_up(5), tail, per_term


def hypot_deviation_bound(chain, interval, L: int):
    """(value, tail, per_term) of the bound before the certified moduli and their tails."""
    tail, _ = majorant_tails(chain, L)
    ells = np.arange(1, L + 1, dtype=np.float64)
    return _bound(chain, interval, L, np.hypot(*spectrum(chain, ells)), tail)


def _cis(ells, x):
    y = np.zeros(ells.shape, dtype=np.complex128)
    y.imag = (_TWO_PI * x) * ells
    return np.exp(y)


def fold_series(chain, edges, L: int) -> list[float]:
    ells = re = im = None
    e_a = None
    out = []
    for a, b in zip(edges, edges[1:]):
        width = b - a
        if width in (0.0, 1.0):
            out.append(width)
            e_a = None
            continue
        if ells is None:
            ells = np.arange(1, L + 1, dtype=np.float64)
            re, im = spectrum(chain, ells)
            denom = _TWO_PI * ells
        if e_a is None:
            e_a = _cis(ells, a)
        e_b = _cis(ells, b)
        diff = e_b - e_a
        z_re = re * (diff.imag / denom) - im * (-diff.real / denom)
        acc = np.add.accumulate(np.repeat(z_re, 2))[-1]
        out.append(width + float(acc))
        e_a = e_b
    return out


def fold_probability(chain, interval, L: int) -> tuple[float, float]:
    [prob] = fold_series(chain, [interval.a, interval.b], L)
    if interval.width in (0.0, 1.0):
        return prob, 0.0
    tail_plain, tail_weighted = tails(chain, L)
    # the rounding bound counts the terms up to the last nonzero modulus of
    # 1..L2, cut at L
    bounds = moduli(chain, L)
    support = np.flatnonzero(bounds)
    S = min(L, int(support[-1]) + 1) if support.size else 0
    rounding = _fold_rounding(chain, interval, bounds[:S], prob)
    return prob, min(interval.width * tail_plain, tail_weighted) + rounding


def first_digit_probabilities(chain, L: int) -> list[float]:
    log_base = math.log(chain.base)
    edges = [math.log(d) / log_base for d in range(1, chain.base + 1)]
    return fold_series(chain, edges, L)


def tail_slack(chain) -> float:
    """s with every tail <= s * its majorant_tails value, for chains without
    a benford factor at a base other than the chain's.

    A uniform certified modulus lies within 42u above the exact one (20u
    budget, families.py), and the majorant ln(B)/(2*pi*l), with or without
    its pad 1 + 8u, at most 5.4u below 1/w, which is above the exact
    modulus.  The uniform anchor c*m rounded up lies within 65u above
    c * exact = 1/w: m's 42u, c's 9u, the 12u of the rounding up and its two
    multiplies.  So 72u per uniform link covers both its explicit terms and
    its anchor.  The exponential and half-Gaussian moduli lie within
    2e + 2u, e < 6100u below zero_beyond, above the exact ones, and their
    anchors m and c*m rounded up within 2e + 25u above the exact modulus
    (exponential) and sqrt(2)*exp(-pi*w/4) (half-Gaussian), which the
    majorants' pads (1.0002, 1.01) cover.  The k - 1 product roundings of
    each side differ by 2(k - 1)u, the round-up by 1 + gamma_k and its
    multiply add (k + 3)u, and fsum, the closure and the final adds are
    monotone but for a few last roundings (4u).
    """
    k = len(chain.links)
    uniform = sum(family.name == "uniform" for family, _ in chain._factors)
    return 1.0 + (72 * uniform + 3 * k + 8) * U

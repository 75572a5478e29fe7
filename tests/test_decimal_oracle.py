"""A decimal oracle for the certified moduli.

The standard library's decimal module rounds exp, ln and sqrt correctly.
At 40 digits, with pi from a frozen 60-digit string, it gives the exact
moduli of the three closed-form families far below a double's rounding:
sqrt(pi*w/sinh(pi*w)) (exponential), 1/sqrt(cosh(pi*w/2)) (half-Gaussian)
and 1/sqrt(1 + w^2) (uniform).  Each family's modulus kernel, on random
angular frequencies w, and each product that chains._moduli forms for
hypothesis-drawn chains, at the exact w = 2*pi*|R|*l/ln B, must lie at or
above them where the exact value is normal, and below 2**-1022 no further
below than the absolute error each family states at its kernel
(families.py).
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_chains import chains, families
from benford_chains.chains import ChainLink, ChainSpec

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

"""The scalar spectrum, bound and fold code as it was before the numpy
spectrum, kept as a test oracle: one Python complex per family factor and
frequency, complex Gamma from scipy.special.loggamma, and a per-l fold loop.
Its outputs reproduce the parent pins in test_pinned_outputs bit for bit,
with the tails of that time: majorant terms up to max(2L, 256), closed
from the last one.  tails gives the tails the package has since taken from
the moduli and closed from each link's anchor at max(2L, 256), here from
this module's own |c_l| and Mellin moduli."""

import cmath
import math

import numpy as np
from scipy.special import loggamma

from benford_chains.chains import BoundResult
from full_spectrum import ratio_law

_TWO_PI = 2.0 * math.pi


def gamma(z: complex) -> complex:
    return cmath.exp(complex(loggamma(complex(z))))


def gamma_abs_on_line(x: float) -> float:
    x = abs(float(x))
    if x == 0.0:
        return 1.0
    px = math.pi * x
    if px <= 30.0:
        return math.sqrt(px / math.sinh(px))
    return math.sqrt(2.0 * px) * math.exp(-px / 2.0) / math.sqrt(-math.expm1(-2.0 * px))


def omega(ell: int, base: int) -> float:
    return _TWO_PI * ell / math.log(base)


def mellin(family, ell: int, base: int) -> complex:
    if ell == 0:
        return 1.0 + 0.0j
    if family.name == "exponential":
        return gamma(complex(1.0, -omega(ell, base)))
    if family.name == "uniform":
        return 1.0 / complex(1.0, -omega(ell, base))
    if family.name == "half_gaussian":
        return gamma(complex(0.5, -0.5 * omega(ell, base))) / math.sqrt(math.pi)
    if base == family.base:
        return 0.0 + 0.0j
    w = complex(0.0, -omega(ell, base) * math.log(family.base))
    return (np.exp(w) - 1.0) / w


def majorant(family, ell: int, base: int) -> float:
    if family.name == "exponential":
        return min(1.0, 1.0002 * gamma_abs_on_line(omega(ell, base)))
    if family.name == "uniform":
        return min(1.0, math.log(base) / (_TWO_PI * ell))
    if family.name == "half_gaussian":
        t = math.pi**2 * ell / math.log(base)
        return min(1.0, 1.01 * math.sqrt(2.0) * math.exp(-0.5 * t))
    if base == family.base:
        return 0.0
    return min(1.0, math.log(base) / (math.pi * ell * math.log(family.base)))


def anchor(family, ell: int, base: int) -> float:
    """The tail anchor at R*l = ell before its rounding up: c*|M f| with the
    family's constant c, or at a foreign base benford's envelope 1/x."""
    w = omega(ell, base)
    if family.name == "benford":
        return 0.0 if base == family.base else min(1.0, math.log(base) / (math.pi * ell * math.log(family.base)))
    c = {"exponential": 1.0, "uniform": math.sqrt(1.0 + w**-2), "half_gaussian": math.sqrt(1.0 + math.exp(-math.pi * w))}
    return min(1.0, c[family.name] * abs(mellin(family, ell, base)))


def chain_spectrum(chain, ell: int) -> complex:
    if ell == 0:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for family, r in chain._factors:
        out *= mellin(family, r * ell, chain.base)
        if out == 0.0:
            break
    return out


def spectrum_majorant(chain, ell: int) -> float:
    if ell == 0:
        return 1.0
    out = 1.0
    for family, r in chain._factors:
        out *= majorant(family, abs(r * ell), chain.base)
        if out == 0.0:
            break
    return out


def _close(L2, plain, last, laws):
    """(plain, weighted) tails: the terms L+1..L2 of plain, closed past L2 from
    last with the links' ratio laws."""
    weighted = [t / (math.pi * ell) for ell, t in enumerate(plain, L2 - len(plain) + 1)]
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
    L2 = max(2 * L, 256)
    plain = [spectrum_majorant(chain, ell) for ell in range(L + 1, L2 + 1)]
    # the decay law holds once min(1, .) no longer caps the majorant
    laws = [
        (1.0, 0) if majorant(family, abs(r) * L2, chain.base) >= 1.0 else ratio_law(family, r, chain.base, L2)
        for family, r in chain._factors
    ]
    return _close(L2, plain, plain[-1], laws)


def tails(chain, L: int) -> tuple[float, float]:
    L2 = max(2 * L, 256)
    plain = [abs(chain_spectrum(chain, ell)) for ell in range(L + 1, L2 + 1)]
    # each link's anchor from its own |M f| at |R| * L2, capped as the package caps it
    last, laws = 1.0, []
    for family, r in chain._factors:
        w = omega(abs(r) * L2, chain.base)
        m = abs(mellin(family, abs(r) * L2, chain.base))
        a, g, p = family.tail(family.base, float(abs(r)), chain.base, L2, w, m)
        a, g, p = (1.0, 1.0, 0) if a >= 1.0 else (a, g, p)
        last *= a
        laws.append((g, p))
    return _close(L2, plain, last, laws)


def deviation_bound(chain, interval, L: int = 64) -> BoundResult:
    width = interval.width
    moduli = [abs(chain_spectrum(chain, ell)) for ell in range(1, L + 1)]
    per_term = tuple((sgn, m) for ell, m in enumerate(moduli, 1) for sgn in (ell, -ell))
    tail, _ = majorant_tails(chain, L)
    value = 0.0 if width == 0.0 else width * (math.fsum(m for _, m in per_term) + tail)
    return BoundResult(value=value, truncation_L=L, moduli=np.array(moduli), tail=tail)


def fold_series(chain, intervals, L: int) -> list[float]:
    coeffs = None
    out = []
    for a, b in intervals:
        width = b - a
        if width in (0.0, 1.0):
            out.append(width)
            continue
        if coeffs is None:
            coeffs = [chain_spectrum(chain, ell) for ell in range(1, L + 1)]
        acc = 0.0 + 0.0j
        for ell, c in enumerate(coeffs, 1):
            i_ell = (
                cmath.exp(2j * math.pi * b * ell) - cmath.exp(2j * math.pi * a * ell)
            ) / (2j * math.pi * ell)
            z = c * i_ell
            acc += z
            acc += z.conjugate()
        out.append(width + acc.real)
    return out


def fold_probability(chain, interval, L: int = 64) -> tuple[float, float]:
    [prob] = fold_series(chain, [(interval.a, interval.b)], L)
    if interval.width in (0.0, 1.0):
        return prob, 0.0
    tail_plain, tail_weighted = majorant_tails(chain, L)
    return prob, min(interval.width * tail_plain, tail_weighted)


def first_digit_probabilities(chain, L: int = 64) -> list[float]:
    log_base = math.log(chain.base)
    edges = [math.log(d) / log_base for d in range(1, chain.base + 1)]
    return fold_series(chain, list(zip(edges, edges[1:])), L)

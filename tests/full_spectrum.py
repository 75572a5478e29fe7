"""The numpy spectrum and its consumers without the support prefix, kept as
a test oracle: every family kernel runs on every frequency 1..L, the
majorant tails sum every term of L+1..max(2L, 256), and the bound builds
its per_term tuple in full.  chains._spectrum keeps only c_1..c_S and the
consumers built on it must still give these outputs bit for bit.

The spectrum is the polar one of the package: the product of the certified
closed-form moduli times e^(i*phi), phi the sum of the family phases.
deviation_bound sums the certified moduli, as the package does;
hypot_deviation_bound takes |c_l| as hypot of the spectrum instead, with no
rounding allowance, and stays within 1e-12 relative of it."""

import math
from itertools import groupby
from operator import itemgetter

import numpy as np

from benford_chains.chains import SpectrumCheckError, _round_up
from benford_chains.families import Family

_TWO_PI = 2.0 * math.pi


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


def majorants(chain, ells):
    return products(chain, ells, Family.majorant)


def chain_spectrum(chain, ell: int) -> complex:
    if ell == 0:
        return 1.0 + 0.0j
    re, im = spectrum(chain, np.arange(abs(ell), abs(ell) + 1, dtype=np.float64))
    if not (re[0] or im[0]):  # a vanishing product: m = 0
        return 0j
    return complex(re[0], im[0] if ell > 0 else -im[0])


def spectrum_majorant(chain, ell: int) -> float:
    if ell == 0:
        return 1.0
    return float(majorants(chain, np.arange(abs(ell), abs(ell) + 1, dtype=np.float64))[0])


def majorant_tails(chain, L: int) -> tuple[float, float]:
    L2 = max(2 * L, 256)
    ells = np.arange(L + 1, L2 + 1, dtype=np.float64)
    plain = majorants(chain, ells)
    weighted = (plain / (math.pi * ells)).tolist()
    plain = plain.tolist()
    g_total = 1.0
    p_total = 0
    for family, r in chain._factors:
        g, p = family.majorant_tail_profile(r, chain.base, L2)
        g_total *= g
        p_total += p

    def close(terms, p):
        last = terms[-1]
        if g_total < 1.0:
            rest = last * g_total / (1.0 - g_total)
        elif p >= 2:
            rest = last * L2 / (p - 1)
        elif last == 0.0:
            rest = 0.0
        else:
            rest = math.inf
        return 2.0 * (math.fsum(terms) + rest)

    return close(plain, p_total), close(weighted, p_total + 1)


def _bound(chain, interval, L: int, moduli):
    grows = ~(moduli[1:] <= moduli[:-1] * (1.0 + 1e-12) + 1e-305)
    if grows.any():
        ell = int(np.argmax(grows)) + 2
        raise SpectrumCheckError(f"spectrum modulus grows from |l| = {ell - 1} to {ell}")
    per_term = tuple((sgn, m) for ell, m in enumerate(moduli.tolist(), 1) for sgn in (ell, -ell))
    tail, _ = majorant_tails(chain, L)
    value = 0.0 if interval.width == 0.0 else interval.width * (math.fsum(m for _, m in per_term) + tail)
    return value, tail, per_term


def deviation_bound(chain, interval, L: int):
    """(value, tail, per_term) of the bound from the certified moduli."""
    ells = np.arange(1, L + 1, dtype=np.float64)
    moduli = products(chain, ells, Family.certified_modulus)
    value, tail, per_term = _bound(chain, interval, L, moduli * _round_up(len(chain.links)))
    return value * _round_up(5), tail, per_term


def hypot_deviation_bound(chain, interval, L: int):
    """(value, tail, per_term) of the bound before the certified moduli."""
    return _bound(chain, interval, L, np.hypot(*spectrum(chain, np.arange(1, L + 1, dtype=np.float64))))


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
    tail_plain, tail_weighted = majorant_tails(chain, L)
    return prob, min(interval.width * tail_plain, tail_weighted)


def first_digit_probabilities(chain, L: int) -> list[float]:
    log_base = math.log(chain.base)
    edges = [math.log(d) / log_base for d in range(1, chain.base + 1)]
    return fold_series(chain, edges, L)

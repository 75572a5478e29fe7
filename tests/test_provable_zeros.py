"""The frequencies where a Gamma family provably computes zero.

Each family's zero_beyond is the angular frequency w = 2*pi*|R*l|/ln B at
and beyond which its mellin_exact and certified_modulus return exactly
0.0, so a tail anchored there is 0.0 too, and chains._moduli, the one pass of every query, skips those
frequencies before any kernel call.  The skipped entries were exact zeros,
so every output keeps the bits of the full-length loop in
tests/full_spectrum.py."""

import math

import numpy as np
import pytest

import full_spectrum as full
from benford_chains import chains, families
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    chain_spectrum,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import get_family

BASES = [2, 3, 10, 16, 1000, 10**6]
CUT_FAMILIES = ["exponential", "half_gaussian"]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def scaled(w, base):
    """The scaled frequencies R*l (the kernels' argument) at angular frequencies w."""
    return np.asarray(w) * (math.log(base) / (2.0 * math.pi))


def assert_zero_at(family, x, base):
    for sign in (1.0, -1.0):
        m = family.mellin_exact(sign * x, base)
        assert not m.real.any() and not m.imag.any(), (family, base, sign)
    assert not family.certified_modulus(x, base).any(), (family, base)


def chain_of(base, links):
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


# ------------------------------------------------------------- the contract


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", CUT_FAMILIES)
def test_the_kernels_are_zero_just_past_zero_beyond(name, base):
    family = get_family(name, base)
    w = family.zero_beyond + np.linspace(0.0, 50.0, 20001)
    assert_zero_at(family, scaled(w, base), base)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", CUT_FAMILIES)
def test_the_kernels_are_zero_out_to_1e22(name, base):
    family = get_family(name, base)
    assert_zero_at(family, scaled(np.geomspace(family.zero_beyond, 1e22, 4001), base), base)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", CUT_FAMILIES)
def test_the_kernels_are_zero_at_every_integer_frequency_past_the_cut(name, base):
    # the frequencies chains._moduli drops for the link with the largest |R|
    family = get_family(name, base)
    for r in (1, 2, 7, 59049, 2**53):
        last = math.floor(family.zero_beyond * math.log(base) / (2.0 * math.pi * r)) + 1
        ells = np.arange(last + 1, last + 2001, dtype=np.float64)
        assert_zero_at(family, r * ells, base)


@pytest.mark.parametrize("name", CUT_FAMILIES)
def test_zero_beyond_lies_within_15_of_the_last_nonzero_value(name):
    # a threshold far above the underflow would cut almost nothing
    family = get_family(name)
    w = np.linspace(family.zero_beyond - 15.0, family.zero_beyond, 15001)
    assert np.abs(family.mellin_exact(scaled(w, 10), 10)).any()
    assert family.certified_modulus(scaled(w, 10), 10).any()


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("name", CUT_FAMILIES)
def test_a_tail_anchored_past_zero_beyond_is_zero(name, base):
    # chains._tails skips the closure there; anchored, it would close to 0.0
    family = get_family(name, base)
    for w in (family.zero_beyond + np.linspace(0.0, 50.0, 101)).tolist():
        [m] = family.modulus(family.base, np.array([w]), base).tolist()
        for r in (1, 2, 7):
            assert family.tail(family.base, float(r), base, 256, w, m)[0] == 0.0, (w, r)


def test_uniform_and_benford_are_never_cut():
    assert get_family("uniform").zero_beyond == math.inf
    assert get_family("benford", 10).zero_beyond == math.inf
    assert get_family("benford", 7).zero_beyond == math.inf


# ------------------------------------------------------------ the edges


def assert_matches_the_full_loop(chain, L, interval=FoldInterval(0.125, 0.6)):
    old_re, old_im = full.spectrum(chain, np.arange(1.0, L + 1))
    new_re, new_im = chains._polar(chain, *chains._moduli(chain, 1, L))
    S = new_re.size
    assert bits(new_re) == bits(old_re[:S]) and bits(new_im) == bits(old_im[:S])
    assert not old_re[S:].any() and not old_im[S:].any()
    assert S == 0 or old_re[S - 1] != 0.0 or old_im[S - 1] != 0.0

    value, tail, per_term = full.deviation_bound(chain, interval, L)
    bound = deviation_bound(chain, interval, L)
    assert bits([bound.value, bound.tail]) == bits([value, tail])
    assert bits([m for _, m in bound.per_term]) == bits([m for _, m in per_term])
    # the bound before the certified moduli and their tails: the moduli
    # within 1e-12 relative, the tail below its majorant tail within the
    # rounding slack
    old_value, old_tail, old_per_term = full.hypot_deviation_bound(chain, interval, L)
    for x, y in zip([m for _, m in bound.per_term], [m for _, m in old_per_term]):
        assert x == y or abs(x - y) <= 1e-12 * abs(y) + 1e-300, (x, y)
    assert bound.tail <= old_tail * full.tail_slack(chain)
    assert bound.value <= old_value * (1.0 + 1e-12) * full.tail_slack(chain)
    assert bits(fold_probability(chain, interval, L)) == bits(full.fold_probability(chain, interval, L))
    assert bits(first_digit_probabilities(chain, L)) == bits(full.first_digit_probabilities(chain, L))
    return S


def kernel_frequencies(monkeypatch, base, links, L):
    """The number of frequencies each modulus kernel call of one pass over 1..L sees."""
    seen = []
    with monkeypatch.context() as patch:
        for name, family in list(families._TABLE.items()):
            def spy(own, w, b, kernel=family.modulus):
                seen.append(w.shape[1])
                return kernel(own, w, b)

            patch.setitem(families._TABLE, name, family._replace(modulus=spy))
        chains._moduli(chain_of(base, links), 1, L)
    return seen


@pytest.mark.parametrize(
    "base, links",
    [
        (10, [("exponential", 1)]),
        (10, [("exponential", 1), ("uniform", 1)]),
        (16, [("half_gaussian", 1), ("exponential", -1)]),
        (3, [("uniform", 1), ("half_gaussian", 2), ("exponential", -1)]),
        (1000, [("exponential", 1), ("half_gaussian", 1)]),
    ],
)
def test_outputs_keep_their_bits_where_the_cut_meets_L(monkeypatch, base, links):
    chain = chain_of(base, links)
    lasts = [
        math.floor(family.zero_beyond * math.log(base) / (2.0 * math.pi * abs(r))) + 1
        for family, r in chain._factors
        if family.zero_beyond != math.inf
    ]
    for last in lasts:
        # the cut lands at L + 1, at L and at L - 1 of the spectrum; the
        # tail frequencies L+1.. keep one of them, or none
        for L in (last - 1, last, last + 1):
            seen = kernel_frequencies(monkeypatch, base, links, L)
            assert seen and set(seen) == {min(L, *lasts)}, (L, seen)
            assert_matches_the_full_loop(chain, L)


def test_a_chain_cut_to_l_1_that_computes_zero_there_has_S_0(monkeypatch):
    links = [("exponential", 1)] + [("exponential", 9)] * 5
    chain = chain_of(2, links)
    assert kernel_frequencies(monkeypatch, 2, links, 1024) == [1]
    for L in (1, 2, 64, 1024):
        assert assert_matches_the_full_loop(chain, L) == 0


def test_at_L_1024_a_fold_evaluates_at_most_90_phase_gamma_points_and_a_bound_none(monkeypatch):
    # R = 6, 3, 1: the cut keeps l <= floor(480 ln 10 / (12 pi)) + 1 = 30,
    # and the support of the moduli is l <= 17, where the product underflows.
    # The phases run on the significant prefix only.  With
    # w_k = 2 pi R_k l / ln 10 the product of the |Gamma(1 + i w_k)| is
    # about prod sqrt(2 pi w_k) * e^(-pi (w_1 + w_2 + w_3) / 2)
    # = e^(-10 pi^2 l / ln 10 + ...): m_1 = e^-37.2 = 7.3e-17 and
    # m_2 = e^-79.0 = 5.0e-35 < 2^-110 = 7.7e-34, falling from there on, so
    # K = 1, three phase points (one per link) where the underflow support
    # took 3 * 17
    points = []
    original = families.arg_gamma

    def counting(x, y):
        points.append(np.size(y))
        return original(x, y)

    monkeypatch.setattr(families, "arg_gamma", counting)
    chain = chain_of(10, [("exponential", 1), ("exponential", 2), ("exponential", 3)])
    deviation_bound(chain, FoldInterval(0.0, 0.5), 1024)
    assert points == []
    fold_probability(chain, FoldInterval(0.0, 0.5), 1024)
    [count] = points
    assert count == 3 * 1


@pytest.mark.parametrize("ell", [2**63, 10**30, 10**300])
def test_a_frequency_past_every_cut_gives_zero_at_any_size(ell):
    # the cut leaves no frequency, so none is formed, even past int64
    for links in ([("exponential", 1)], [("uniform", 1), ("benford", 1)]):
        chain = chain_of(10, links)
        assert chain_spectrum(chain, ell) == chain_spectrum(chain, -ell) == 0j

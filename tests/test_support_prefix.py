"""The support prefix of the chain spectrum: chains._moduli keeps c_1..c_S
and drops the frequencies where the product is exactly zero.  Every output
must keep the bits of the full-length loop in tests/full_spectrum.py, and
the integer frequency and truncation arguments are checked.  The bound moved
once, to the certified closed-form moduli; the bound before them stays as a
check that its values lie within 1e-12 relative of the new ones.  The tails
moved once more, to those moduli up to max(2L, 256); the tails before them
stay as a check that the new ones lie below them within a rounding slack."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import full_spectrum as full
from benford_chains import chains
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    SpectrumCheckError,
    chain_spectrum,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import FAMILY_NAMES, get_family

LINKS = st.lists(
    st.tuples(st.sampled_from(FAMILY_NAMES), st.integers(1, 9), st.booleans()),
    min_size=1,
    max_size=6,
)


def build(base, links, foreign):
    chain = ChainSpec(
        base,
        tuple(ChainLink(f, 1 if i == 0 else (-p if neg else p)) for i, (f, p, neg) in enumerate(links)),
    )
    if foreign is not None:
        # A chain spec gives every benford link the chain's base; a benford
        # factor in another base has a spectrum that never vanishes.
        factors = tuple(
            (get_family("benford", foreign) if family.name == "benford" else family, r)
            for family, r in chain._factors
        )
        chain.__dict__.update(_factors=factors, _blocks=chains._family_blocks(factors))
    return chain


def prefix(chain, L):
    """The certified moduli of c_1..c_L on their support prefix, and their w rows."""
    return chains._moduli(chain, 1, L)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def cbits(c: complex) -> list[int]:
    return bits([c.real, c.imag])


def assert_within_1e12(new, old):
    assert len(new) == len(old)
    for i, (x, y) in enumerate(zip(new, old)):
        assert x == y or abs(x - y) <= 1e-12 * abs(y) + 1e-300, (i, x, y)


@settings(max_examples=200, deadline=None)
@given(
    base=st.integers(2, 1000),
    links=LINKS,
    foreign=st.one_of(st.none(), st.integers(2, 1000)),
    L=st.sampled_from([1, 2, 64, 1024, 4096]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
)
def test_the_support_prefix_keeps_every_bit(base, links, foreign, L, ends):
    chain = build(base, links, foreign)
    interval = FoldInterval(*ends)

    old_re, old_im = full.spectrum(chain, np.arange(1.0, L + 1))
    new_re, new_im = chains._polar(chain, *prefix(chain, L))
    S = new_re.size
    assert S <= L and new_im.size == S
    assert bits(new_re) == bits(old_re[:S]) and bits(new_im) == bits(old_im[:S])
    # every dropped entry is +-0, and c_S itself is not
    assert not old_re[S:].any() and not old_im[S:].any()
    assert S == 0 or old_re[S - 1] != 0.0 or old_im[S - 1] != 0.0

    # chain_spectrum keeps the signs of its zeros, past S too
    for ell in {1, min(S + 1, L), L}:
        for signed in (ell, -ell):
            assert cbits(chain_spectrum(chain, signed)) == cbits(full.chain_spectrum(chain, signed))
    # both tails, closed from the anchors of the links at max(2L, 256)
    bounds = prefix(chain, max(2 * L, 256))[0] * chains._round_up(len(chain.links))
    assert bits(chains._tails(chain, bounds, L)) == bits(full.tails(chain, L))

    try:
        value, tail, per_term = full.deviation_bound(chain, interval, L)
    except SpectrumCheckError as exc:  # a foreign-base benford modulus oscillates
        with pytest.raises(SpectrumCheckError, match=re.escape(str(exc))):
            deviation_bound(chain, interval, L)
    else:
        bound = deviation_bound(chain, interval, L)
        assert bits([bound.value, bound.tail]) == bits([value, tail])
        assert [ell for ell, _ in bound.per_term] == [ell for ell, _ in per_term]
        assert bits([m for _, m in bound.per_term]) == bits([m for _, m in per_term])
        if foreign is None or all(f != "benford" for f, _, _ in links):
            # A foreign-base benford modulus carries an absolute rounding
            # allowance (its exact value may vanish), so only chains without
            # one compare relatively.
            old_value, old_tail, old_per_term = full.hypot_deviation_bound(chain, interval, L)
            slack = full.tail_slack(chain)
            assert bound.tail <= old_tail * slack
            assert bound.value <= old_value * (1.0 + 1e-12) * slack
            assert_within_1e12([m for _, m in bound.per_term], [m for _, m in old_per_term])

    assert bits(fold_probability(chain, interval, L)) == bits(full.fold_probability(chain, interval, L))
    if (base - 1) * L <= 50000:
        assert bits(first_digit_probabilities(chain, L)) == bits(full.first_digit_probabilities(chain, L))


@pytest.mark.parametrize(
    "base, links",
    [
        (1000, [("exponential", 1)]),
        (1000, [("exponential", 1), ("uniform", 1)]),
        (16, [("half_gaussian", 1), ("uniform", -2)]),
        (3, [("uniform", 1), ("exponential", 3)]),
    ],
)
def test_the_tails_vanish_where_the_products_do(base, links):
    # Around the last nonzero modulus the explicit tail holds a single
    # nonzero term or none, and the anchor product at L2 underflows, so
    # nothing closes the sum past L2: from L = S on the tail is exactly 0.
    chain = ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))
    S = prefix(chain, 20000)[0].size
    assert S < 20000
    for L in range(S - 3, S + 3):
        L2 = max(2 * L, 256)
        assert math.prod(a for a, _, _ in full.anchors(chain, L2)) == 0.0
        bounds, _ = prefix(chain, L2)
        bounds *= chains._round_up(len(chain.links))
        new = chains._tails(chain, bounds, L)
        assert bits(new) == bits(full.tails(chain, L)), L
        assert new[0] == 2.0 * math.fsum(bounds[L:].tolist()), L
        assert (new == (0.0, 0.0)) == (L >= S), L


def test_a_benford_link_leaves_an_empty_prefix_and_exact_widths():
    chain = ChainSpec(10, (ChainLink("exponential", 1), ChainLink("benford", 2), ChainLink("uniform", 1)))
    re_, im_ = chains._polar(chain, *prefix(chain, 1024))
    assert re_.size == im_.size == 0
    bound = deviation_bound(chain, FoldInterval(0.2, 0.7), 1024)
    assert bound.moduli.shape == (1024,) and not bound.moduli.any()
    assert (bound.value, bound.tail) == (0.0, 0.0)
    edges = [math.log(d) / math.log(10) for d in range(1, 11)]
    assert first_digit_probabilities(chain, 1024) == [b - a for a, b in zip(edges, edges[1:])]


def test_bound_moduli_are_read_only_and_per_term_is_derived():
    chain = ChainSpec(10, (ChainLink("exponential", 1), ChainLink("uniform", 1)))
    bound = deviation_bound(chain, FoldInterval(0.0, 0.5), 8)
    with pytest.raises(ValueError):
        bound.moduli[0] = 1.0
    assert bound.per_term == tuple(
        (sgn, m) for ell, m in enumerate(bound.moduli.tolist(), 1) for sgn in (ell, -ell)
    )
    assert "moduli" not in repr(bound) and "per_term" not in repr(bound)


def test_a_bound_at_L_65536_retains_under_a_mebibyte():
    # the moduli array is 512 KiB; a per_term tuple of 2L pairs took 13 MiB
    chain = ChainSpec(
        10, (ChainLink("exponential", 1), ChainLink("uniform", 2), ChainLink("half_gaussian", -3))
    )
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        bound = deviation_bound(chain, FoldInterval(0.1, 0.6), 65536)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bound.moduli.shape == (65536,)
    assert retained < 2**20


# ------------------------------------------------------- integer arguments

CHAIN = ChainSpec(10, (ChainLink("exponential", 1), ChainLink("uniform", 2)))
INTERVAL = FoldInterval(0.25, 0.5)
NOT_INTEGERS = [64.5, 64.0, np.float64(64.0), True, False, np.True_, "64", None]
INTEGERS = [np.int64(64), np.int32(64), np.uint16(64)]


@pytest.mark.parametrize("L", NOT_INTEGERS)
@pytest.mark.parametrize(
    "entry",
    [
        lambda L: deviation_bound(CHAIN, INTERVAL, L),
        lambda L: fold_probability(CHAIN, INTERVAL, L),
        lambda L: first_digit_probabilities(CHAIN, L),
    ],
    ids=["deviation_bound", "fold_probability", "first_digit_probabilities"],
)
def test_L_must_be_an_integer(entry, L):
    with pytest.raises(ValueError, match="L must be an integer"):
        entry(L)


@pytest.mark.parametrize("L", INTEGERS)
def test_numpy_integer_L_gives_the_python_int_result(L):
    bound = deviation_bound(CHAIN, INTERVAL, L)
    assert type(bound.truncation_L) is int
    assert bound == deviation_bound(CHAIN, INTERVAL, 64)
    assert bits(bound.moduli) == bits(deviation_bound(CHAIN, INTERVAL, 64).moduli)
    assert fold_probability(CHAIN, INTERVAL, L) == fold_probability(CHAIN, INTERVAL, 64)
    assert first_digit_probabilities(CHAIN, L) == first_digit_probabilities(CHAIN, 64)


@pytest.mark.parametrize("ell", [1.5, 2.0, True, np.float64(3.0), "1", None])
def test_ell_must_be_an_integer(ell):
    with pytest.raises(ValueError, match="ell must be an integer"):
        chain_spectrum(CHAIN, ell)


@pytest.mark.parametrize("ell", [np.int64(3), np.int8(-3), np.uint32(0)])
def test_numpy_integer_ell_gives_the_python_int_value(ell):
    assert cbits(chain_spectrum(CHAIN, ell)) == cbits(chain_spectrum(CHAIN, int(ell)))


@pytest.mark.parametrize("block", [1, 7, 64, 4096])
def test_fold_series_in_blocks_keeps_every_bit(monkeypatch, block):
    # blocks of one interval or several, cut anywhere, with zero-width and
    # full-circle intervals inside a block: each interval keeps the bits
    # of its own one-row series
    monkeypatch.setattr(chains, "_FOLD_BLOCK_TERMS", block)
    chain = ChainSpec(10, (ChainLink("exponential", 1), ChainLink("uniform", 2), ChainLink("uniform", -1)))
    rng = np.random.default_rng(7)
    edges = sorted(rng.random(40).tolist()) + [0.0, 0.0, 1.0, 1.0, 0.25, 0.25, 0.5]
    for L in (1, 3, 64):
        assert bits(chains._fold_series(chain, edges, *prefix(chain, L))) == bits(full.fold_series(chain, edges, L)), L

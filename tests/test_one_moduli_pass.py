"""Each query evaluates the chain's certified moduli once: deviation_bound
and fold_probability make one pass over 1..max(2L, 256), whose first L
moduli feed the bound's sum or the fold's series and whose rest is the
explicit tail; the tail past L2 closes from each link's certified modulus
at |R| * L2, one more modulus call per family, and none where some link's
modulus there is provably 0.0.  A digit table computes no tail, and a base-2 table or a
fold of width 0 or 1 computes no spectrum at all.  The phases of a fold or
a digit table take one arg_gamma call, whatever Gamma families the chain
holds, and a bound takes none."""

import math

import numpy as np
import pytest

import full_spectrum as full
from benford_chains import chains, families
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    deviation_bound,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import FAMILY_NAMES, get_family
from benford_chains.specfun import arg_gamma

LINKS = [("exponential", 1), ("uniform", -2), ("half_gaussian", 3), ("exponential", -1), ("uniform", 1)]


@pytest.fixture
def spy(monkeypatch):
    """(passes, closures): each _moduli call as (first, last), and each
    modulus kernel call outside them as (family, sorted w)."""
    passes, closures, inside = [], [], []
    moduli = chains._moduli

    def spying_moduli(chain, first, last):
        passes.append((first, last))
        inside.append(True)
        try:
            return moduli(chain, first, last)
        finally:
            inside.pop()

    def spying(name, kernel):
        def modulus(own, w, base):
            if not inside:
                closures.append((name, sorted(np.ravel(w).tolist())))
            return kernel(own, w, base)

        return modulus

    monkeypatch.setattr(chains, "_moduli", spying_moduli)
    for name, family in list(families._TABLE.items()):
        monkeypatch.setitem(families._TABLE, name, family._replace(modulus=spying(name, family.modulus)))
    monkeypatch.setattr(families, "_benford_modulus", spying("benford", families._benford_modulus))
    return passes, closures


def build(base, links):
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in links))


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("L", [1, 64, 200, 1024])
@pytest.mark.parametrize("query", [deviation_bound, fold_probability])
def test_a_bound_or_a_fold_makes_one_moduli_pass(spy, query, L):
    passes, closures = spy
    query(build(10, LINKS), FoldInterval(0.1, 0.45), L)
    assert passes == [(1, max(2 * L, 256))]
    # the exponential links at base 10 leave w(|R| * L2) >= 480: no closure
    assert closures == []


def test_a_digit_table_makes_one_moduli_pass_and_no_closure(spy):
    passes, closures = spy
    first_digit_probabilities(build(10, LINKS), 64)
    assert passes == [(1, 64)]
    assert closures == []


def test_a_base_2_table_and_a_width_0_or_1_fold_compute_no_spectrum(spy):
    passes, closures = spy
    assert first_digit_probabilities(build(2, LINKS), 64) == [1.0]
    chain = build(10, LINKS)
    assert fold_probability(chain, FoldInterval(0.0, 1.0), 64) == (1.0, 0.0)
    assert fold_probability(chain, FoldInterval(0.3, 0.3), 64) == (0.0, 0.0)
    assert passes == [] and closures == []


# At L2 = 256 the threshold w(256) = 2*pi*256/ln B >= zero_beyond falls
# between bases 28 (482.7) and 29 (477.7) for the exponential's 480, and
# between 5 (999.6) and 6 (897.7) for the half-Gaussian's 960.  At
# L2 = 2048 all four lie past it.
@pytest.mark.parametrize(
    "base, links, closes_at_256",
    [
        (28, [("exponential", 1)], False),
        (29, [("exponential", 1)], True),
        (5, [("half_gaussian", 1)], False),
        (6, [("half_gaussian", 1)], True),
        (29, [("uniform", 1), ("uniform", -3), ("exponential", 2)], True),
        (7, [("uniform", 1), ("benford", 2), ("exponential", -1)], False),
        (10, [("uniform", 1), ("uniform", 3)], True),
    ],
)
@pytest.mark.parametrize("L", [1, 64, 1024])
def test_the_closure_is_skipped_only_where_it_is_provably_zero(spy, base, links, closes_at_256, L):
    _, closures = spy
    chain = build(base, links)
    L2 = max(2 * L, 256)
    bounds = chains._moduli(chain, 1, L2)[0] * chains._round_up(len(links))
    expected = full.tails(chain, L)
    closures.clear()
    tails = chains._tails(chain, bounds, L)
    assert bits(tails) == bits(expected)
    closes = closes_at_256 if L2 == 256 else all(f == "uniform" for f, _ in links)
    if closes:
        # one modulus call per family, in the _factors order, at w(|R| * L2)
        # of its links, formed as _moduli forms it
        expected = {}
        for family, r in chain._factors:
            expected.setdefault(family.name, []).append(2.0 * math.pi * float(abs(r) * L2) / math.log(base))
        assert closures == [(name, sorted(w)) for name, w in expected.items()]
    else:
        assert closures == []
        explicit = bounds[L:]
        weighted = explicit / (math.pi * np.arange(L + 1.0, L + explicit.size + 1.0))
        assert bits(tails) == bits([2.0 * math.fsum(explicit.tolist()), 2.0 * math.fsum(weighted.tolist())])


def with_foreign_benford(chain, own):
    """chain with a benford factor of base own appended: a chain spec gives
    every benford link the chain's base, and one in another base leaves the
    spectrum nonzero."""
    factors = tuple(sorted(
        (*chain._factors, (get_family("benford", own), 2)), key=lambda fr: (fr[0].name, fr[1])
    ))
    chain.__dict__.update(_factors=factors, _blocks=chains._family_blocks(factors))
    return chain


@pytest.mark.parametrize("foreign", [None, 7])
@pytest.mark.parametrize("L", [64, 1024])
def test_a_fold_or_a_digit_table_makes_one_phase_call_and_a_bound_none(monkeypatch, foreign, L):
    calls = []

    def counting(x, y):
        calls.append(np.shape(y))
        return arg_gamma(x, y)

    monkeypatch.setattr(families, "arg_gamma", counting)
    links = [("exponential", 1), ("half_gaussian", -2), ("uniform", 3), ("exponential", 2), ("half_gaussian", 1)]
    chain = build(10, links)
    if foreign is not None:
        chain = with_foreign_benford(chain, foreign)
    deviation_bound(chain, FoldInterval(0.1, 0.45), L)
    assert calls == []
    fold_probability(chain, FoldInterval(0.1, 0.45), L)
    # one call on the rows of the two exponential and the two half-Gaussian links
    assert len(calls) == 1 and calls[0][0] == 4, calls
    calls.clear()
    first_digit_probabilities(chain, L)
    assert len(calls) == 1


def test_the_gamma_rows_of_a_chain_are_adjacent():
    # _polar takes the Gamma rows as one slice: _factors sorts the links by
    # family name, and no other family's name falls between the Gamma ones.
    names = sorted(FAMILY_NAMES)
    gamma = [i for i, name in enumerate(names) if get_family(name).gamma]
    assert len(gamma) == 2 and gamma == list(range(gamma[0], gamma[-1] + 1))


def test_the_stacked_phase_call_equals_the_per_family_calls_bitwise():
    # The chain's Gamma rows go to one call with x and the scale of w as
    # columns; each row keeps the bits of its family's own call on its block.
    rng = np.random.default_rng(20261022)
    gamma = [get_family(name) for name in ("exponential", "half_gaussian")]
    for _ in range(200):
        rows = [gamma[i] for i in rng.integers(0, 2, rng.integers(1, 7))]
        size = int(rng.integers(1, 301))
        w = rng.choice([-1.0, 1.0], (len(rows), size)) * np.exp(rng.uniform(-30.0, 7.0, (len(rows), size)))
        x, scale = (np.array([[f.gamma[i]] for f in rows]) for i in (0, 1))
        stacked = families._line_phase(x, scale * w)
        for family in gamma:
            block = [i for i, f in enumerate(rows) if f is family]
            if not block:
                continue
            # the per-family kernels: -arg Gamma(1 + iw) and -arg Gamma(1/2 + iw/2)
            own = -arg_gamma(1.0, w[block]) if family.name == "exponential" else -arg_gamma(0.5, 0.5 * w[block])
            assert bits(stacked[block]) == bits(own)

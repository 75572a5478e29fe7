"""The significant prefix: the fold series and the digit table run over
c_1..c_K only, K the least k <= min(L, S) whose dropped certified moduli
m_{k+1}..m_L sum to below chains._FOLD_FLOOR = 2**-110, and the fold's
error carries the dropped terms in both tails.

The full-prefix series, _fold_series over m[:min(L, S)] with the tails from
L, is the computation before the cut; the cut may move a probability by
at most what the dropped terms can add, and may only raise the error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_chains import chains, families
from benford_chains.chains import (
    ChainLink,
    ChainSpec,
    FoldInterval,
    first_digit_probabilities,
    fold_probability,
)
from benford_chains.families import FAMILY_NAMES, get_family

FLOOR = 2.0**-110


def test_the_floor_is_2_to_the_minus_110():
    assert chains._FOLD_FLOOR == FLOOR


def phase_points(call) -> int:
    """The number of Gamma phase points call evaluates."""
    points = []
    original = families.arg_gamma

    def counting(x, y):
        points.append(np.size(y))
        return original(x, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "arg_gamma", counting)
        call()
    return sum(points)


@pytest.mark.parametrize(
    "name, support, significant",
    # The modulus of an exponential link, about e^(-pi*w/2) at
    # w = 2*pi*l/ln 16 = 2.27*l, underflows past l = 209 but falls below
    # 2**-110 past l = 22; a half-Gaussian link's, about e^(-pi*w/4), past
    # l = 418 and l = 43.
    [("exponential", 209, 22), ("half_gaussian", 418, 43)],
)
def test_at_L_1024_a_base_16_fold_or_digit_table_evaluates_the_significant_points_only(name, support, significant):
    chain = ChainSpec(16, (ChainLink(name, 1),))
    m, _ = chains._moduli(chain, 1, 1024)
    assert m.size == support
    assert m[significant - 1] >= FLOOR > math.fsum(m[significant:].tolist())
    interval = FoldInterval(0.125, 0.6)
    assert phase_points(lambda: fold_probability(chain, interval, 1024)) == significant
    assert phase_points(lambda: first_digit_probabilities(chain, 1024)) == significant


def test_six_uniform_links_keep_terms_below_the_floor_until_the_rest_sums_below_it():
    # A power-law spectrum: each modulus past l = 498 lies below 2**-110,
    # but up to L = 4096 they sum to more than it; the last 2846 sum to less.
    chain = ChainSpec(10, (ChainLink("uniform", 1),) + (ChainLink("uniform", 9),) * 5)
    m, _ = chains._moduli(chain, 1, 4096)
    K = chains._significant(m)
    first_below = int(np.argmax(m < FLOOR))
    assert first_below < K < m.size
    assert math.fsum(m[K:].tolist()) < FLOOR <= math.fsum(m[K - 1 :].tolist())


def test_the_significant_prefix_of_no_terms_or_only_tiny_ones_is_empty():
    assert chains._significant(np.array([])) == 0
    assert chains._significant(np.full(100, FLOOR / 128)) == 0
    assert chains._significant(np.full(200, FLOOR / 128)) == 200 - 127
    assert chains._significant(np.array([1.0, 0.0, FLOOR])) == 3


# --------------------------------------------------- against the full prefix

LINKS = st.lists(
    st.tuples(st.sampled_from(FAMILY_NAMES), st.integers(1, 9), st.booleans()),
    min_size=1,
    max_size=4,
)


def build(base, links, foreign):
    chain = ChainSpec(
        base,
        tuple(ChainLink(f, 1 if i == 0 else (-p if neg else p)) for i, (f, p, neg) in enumerate(links)),
    )
    if foreign is not None:
        # A chain spec gives every benford link the chain's base; a benford
        # factor in another base has a spectrum that never vanishes and a
        # modulus that is not monotone.
        factors = tuple(
            (get_family("benford", foreign) if family.name == "benford" else family, r)
            for family, r in chain._factors
        )
        chain.__dict__.update(_factors=factors, _blocks=chains._family_blocks(factors))
    return chain


def full_prefix_fold(chain, edges, L):
    """The fold before the cut: the series over c_1..c_min(L, S), the tails
    beyond L, and each interval's error."""
    m, w = chains._moduli(chain, 1, max(2 * L, 256))
    probs = chains._fold_series(chain, edges, m[:L], w[:, :L])
    bounds = m * chains._round_up(len(chain.links))
    plain, weighted = chains._tails(chain, bounds, L)
    errors = []
    for (a, b), p in zip(zip(edges, edges[1:]), probs):
        interval = FoldInterval(a, b)
        rounding = chains._fold_rounding(chain, interval, bounds[:L], p)
        errors.append(min(interval.width * plain, weighted) + rounding)
    return probs, errors, bounds[:L]


def dropped_bound(bounds, K, width) -> float:
    """2 * sum over the dropped terms of bounds_l * min(width, 1/(pi*l))."""
    ells = np.arange(K + 1, bounds.size + 1, dtype=np.float64)
    return 2.0 * math.fsum((np.minimum(width, 1.0 / (math.pi * ells)) * bounds[K:]).tolist())


def series_lengths(call):
    """The number of terms of each _fold_series call that call makes, and its result."""
    seen = []
    original = chains._fold_series

    def spy(chain, edges, moduli, w):
        seen.append(moduli.size)
        return original(chain, edges, moduli, w)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chains, "_fold_series", spy)
        result = call()
    return seen, result


@settings(max_examples=120, deadline=None)
@given(
    base=st.one_of(st.integers(2, 20), st.integers(2, 10**6)),
    links=LINKS,
    foreign=st.one_of(st.none(), st.integers(2, 10**6)),
    L=st.sampled_from([1, 64, 1024]),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
)
def test_the_cut_moves_no_fold_past_its_dropped_terms_and_only_raises_the_error(base, links, foreign, L, ends):
    chain = build(base, links, foreign)
    interval = FoldInterval(*ends)
    width = interval.width
    m, _ = chains._moduli(chain, 1, L)

    seen, (p, err) = series_lengths(lambda: fold_probability(chain, interval, L))
    if width in (0.0, 1.0):
        assert seen == [] and (p, err) == (width, 0.0)
        return
    [K] = seen
    # no modulus at or above the floor is dropped, the dropped ones sum to
    # below it, and one more would not
    assert K <= m.size and not (m[K:] >= FLOOR).any()
    assert math.fsum(m[K:].tolist()) < FLOOR * (1.0 + 1e-12)
    assert K == 0 or math.fsum(m[K - 1 :].tolist()) >= FLOOR * (1.0 - 1e-12)

    [p_full], [err_full], bounds = full_prefix_fold(chain, [interval.a, interval.b], L)
    assert abs(p - p_full) <= dropped_bound(bounds, K, width)
    assert err >= err_full

    if (base - 1) * L <= 20000:
        edges = [math.log(d) / math.log(base) for d in range(1, base + 1)]
        seen, table = series_lengths(lambda: first_digit_probabilities(chain, L))
        assert seen == ([] if base == 2 else [K])
        if base > 2:
            full_table, _, _ = full_prefix_fold(chain, edges, L)
            for a, b, d, d_full in zip(edges, edges[1:], table, full_table):
                assert abs(d - d_full) <= dropped_bound(bounds, K, b - a)

"""Benford conformance statistics: digit counts, CDF deviation, KS tests."""

import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from benford_chains.chains import ChainLink, ChainSpec
from benford_chains.conformance import (
    KS_ONE_SAMPLE_COEFF,
    KS_TWO_SAMPLE_COEFF,
    ConformanceReport,
    DigitStats,
    audit_dataset,
    benford_cdf,
    benford_digit_prob,
    digit_stats,
    _benford_cdfs,
    _grid,
    _packed,
    two_sample_ks,
)
from benford_chains.families import get_family
from benford_chains.montecarlo import BLOCK_SIZE, batch_mantissas, make_rng, mantissa, sample_batch

SEED = 20260814


def chain(*families, base=10):
    return ChainSpec(base, tuple(ChainLink(f, 1) for f in families))


def test_decision_coefficients_pinned():
    assert KS_ONE_SAMPLE_COEFF == 1.63
    assert KS_TWO_SAMPLE_COEFF == 1.7309
    # Massart on each sample with a union bound gives the two-sample rule a
    # level of 2 * 2 exp(-2 c^2) at every n and m, within 0.01; 1.7308, c
    # rounded down, would exceed it
    assert 4.0 * math.exp(-2.0 * KS_TWO_SAMPLE_COEFF**2) <= 0.01 < 4.0 * math.exp(-2.0 * 1.7308**2)


def test_two_sample_ks_rejects_above_the_sum_of_the_two_massart_radii():
    # n = 4 and m = 100: the critical value is 1.7309 * (1/2 + 1/10) = 1.03854,
    # above 1, so no pair of samples of these sizes is rejected; the old
    # asymptotic 1.628 * sqrt(104/400) = 0.830 rejected disjoint samples
    stat, reject = two_sample_ks([1.0, 2.0, 3.0, 4.0], np.arange(10.0, 110.0))
    assert stat == 1.0 and not reject
    stat, reject = two_sample_ks(np.arange(100.0), np.arange(100.0, 200.0))
    assert stat == 1.0 and reject


def test_benford_cdf_values():
    assert benford_cdf(1.0) == 0.0
    assert benford_cdf(10.0) == 1.0
    assert benford_cdf(2.0) == math.log10(2.0)
    assert benford_cdf(1.5, base=2) == pytest.approx(math.log(1.5) / math.log(2.0), rel=1e-15)
    for bad in (0.5, 10.5):
        with pytest.raises(ValueError):
            benford_cdf(bad)
    with pytest.raises(ValueError):
        benford_cdf(1.5, base=1)


def test_benford_digit_prob_values_and_domain():
    assert benford_digit_prob(1) == math.log10(2.0)
    assert benford_digit_prob(9) == pytest.approx(math.log10(10.0 / 9.0), rel=1e-15)
    assert benford_digit_prob(1, base=2) == 1.0
    for bad in (0, 10, -1, True, 1.0):
        with pytest.raises(ValueError):
            benford_digit_prob(bad)


def test_benford_digit_probs_sum_to_exactly_one():
    for base in (2, 10, 16):
        probs = [benford_digit_prob(d, base) for d in range(1, base)]
        assert math.fsum(probs) == 1.0, base


def test_digit_stats_counts():
    st = digit_stats([1.0, 10.0, 100.0])
    assert st.count == 3
    assert st.digit_counts == (3, 0, 0, 0, 0, 0, 0, 0, 0)

    st = digit_stats([1.5, 2.5, 95.0])
    assert st.digit_counts == (1, 1, 0, 0, 0, 0, 0, 0, 1)


def test_digit_stats_grid_and_cdf():
    st = digit_stats([1.5, 2.5, 95.0], grid_size=100)
    grid = np.asarray(st.mantissa_grid)
    assert len(grid) == 101
    assert grid[0] == 1.0
    assert grid[-1] == 10.0
    assert np.all(np.diff(grid) > 0)
    cdf = np.asarray(st.empirical_cdf)
    assert cdf[0] == 0.0  # no mantissa at or below 1.0 in this sample
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    # between mantissa 2.5 and 9.5 the CDF sits at 2/3
    mid = (grid > 2.5) & (grid < 9.5)
    assert np.all(np.abs(cdf[mid] - 2.0 / 3.0) < 1e-15)


def test_digit_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        digit_stats([])
    with pytest.raises(ValueError):
        digit_stats([[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"values\[1\]"):
        digit_stats([1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match=r"values\[0\]"):
        digit_stats([math.nan, 1.0])
    with pytest.raises(ValueError):
        digit_stats([1.0], grid_size=1)


def test_digit_stats_invariant():
    with pytest.raises(ValueError):
        DigitStats(base=10, count=2, digit_counts=(1, 0, 0, 0, 0, 0, 0, 0, 0),
                   mantissa_grid=(1.0, 10.0), empirical_cdf=(0.0, 1.0))


def _one_sort_digit_stats(x, base, grid_size):
    """Digit counts and CDF from one sort of every mantissa at once."""
    mants = np.sort(batch_mantissas(x, base))
    counts = np.bincount(mants.astype(np.int64), minlength=base)[1:base]
    grid = np.asarray(digit_stats(x[:1], base, grid_size).mantissa_grid)
    cdf = np.searchsorted(mants, grid, side="right") / x.size
    return tuple(counts.tolist()), tuple(cdf.tolist())


@pytest.mark.parametrize("base, grid_size", [(10, 1000), (7, BLOCK_SIZE + 5), (BLOCK_SIZE + 3, 2)])
def test_digit_stats_in_blocks_equals_one_sort(base, grid_size):
    # three blocks and a ragged end at each block size the step can take,
    # with repeated values so that ties straddle block boundaries
    step = max(BLOCK_SIZE, grid_size + 1, base)
    x = np.exp(np.random.default_rng(base).normal(0.0, 20.0, 3 * step + 17))
    x[::97] = x[5]
    stats = digit_stats(x, base, grid_size)
    assert stats.count == x.size
    assert (stats.digit_counts, stats.empirical_cdf) == _one_sort_digit_stats(x, base, grid_size)


def test_packed_blocks_are_views_of_one_part_and_copies_across_parts():
    size = 10
    x = np.arange(34.0)
    blocks = list(_packed(iter((x,)), size))  # as _digit_stats cuts one part
    assert [b.size for b in blocks] == [10, 10, 10, 4]
    assert all(np.shares_memory(b, x) for b in blocks)
    parts = [x[:3], x[3:3], x[3:9], x[9:31], x[31:]]
    blocks = list(_packed(iter(parts), size))
    assert [b.size for b in blocks] == [10, 10, 10, 4]
    assert np.array_equal(np.concatenate(blocks), x)
    assert np.shares_memory(blocks[1], x)  # x[10:20] lies in one part


def test_digit_stats_names_a_bad_value_past_the_first_block():
    x = np.ones(2 * BLOCK_SIZE)
    x[BLOCK_SIZE + 3] = -1.0
    with pytest.raises(ValueError, match=rf"values\[{BLOCK_SIZE + 3}\]"):
        digit_stats(x)


def test_audit_counts_dirty_entries_in_every_block():
    x = np.exp(np.random.default_rng(7).normal(0.0, 5.0, 3 * BLOCK_SIZE))
    bad = np.arange(11, x.size, 1009)
    dirty = x.copy()
    dirty[bad] = np.resize([np.nan, -1.0, 0.0, np.inf, -np.inf], bad.size)
    report = audit_dataset(dirty, 10)
    assert report.skipped == bad.size
    assert report == replace(audit_dataset(np.delete(x, bad), 10), skipped=bad.size)


def test_a_clean_audit_makes_no_temporary_of_the_sample_length():
    x = np.exp(np.random.default_rng(3).normal(0.0, 20.0, 1_000_000))  # 7.6 MiB
    tracemalloc.start()
    try:
        audit_dataset(x, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_benford_family_sample_conforms():
    rng = make_rng(SEED, stream=602)
    values = get_family("benford", 10).sample_unit_batch(rng, 100_000)
    report = audit_dataset(values, 10)
    assert report.conforms
    assert report.sup_deviation < report.ks_critical == 1.63 / math.sqrt(100_000)
    assert report.skipped == 0


def test_benford_headed_chain_conforms():
    # one benford link pins the digit law of the whole chain
    ch = chain("benford", "uniform", "exponential", "uniform")
    batch = sample_batch(ch, 100_000, SEED, stream=601)
    report = audit_dataset(batch.values, 10)
    assert report.conforms


def test_audit_skips_dirty_entries():
    rng = make_rng(SEED, stream=605)
    clean = get_family("benford", 10).sample_unit_batch(rng, 5_000)
    dirty = np.concatenate([clean, [np.nan, np.inf, -np.inf, 0.0, -3.5]])
    report = audit_dataset(dirty, 10)
    assert report.skipped == 5
    assert report.stats.count == 5_000
    with pytest.raises(ValueError):
        audit_dataset([0.0, -1.0, np.nan], 10)


def test_audit_scale_invariance():
    rng = make_rng(SEED, stream=600)
    values = get_family("benford", 10).sample_unit_batch(rng, 100_000)
    base_report = audit_dataset(values, 10)

    # powers of the base leave digits untouched
    shifted = audit_dataset(values * 1e3, 10)
    assert shifted.stats.digit_counts == base_report.stats.digit_counts
    assert abs(shifted.sup_deviation - base_report.sup_deviation) <= 1e-12

    # an arbitrary factor only rotates the mantissas; for conforming data
    # the deviation moves by at most a grid cell or so
    for c in (2.7, math.pi):
        rotated = audit_dataset(values * c, 10)
        assert abs(rotated.sup_deviation - base_report.sup_deviation) < 2.0 / 1000.0


@pytest.mark.parametrize("base", [2, 3, 10, 16, 1000])
@pytest.mark.parametrize("grid_size", [2, 1000, 4097])
def test_the_audit_cdf_has_the_bits_of_benford_cdf_at_every_grid_point(base, grid_size):
    # one pass of benford_cdf's formulas, the log of the base taken once
    grid = tuple(_grid(base, grid_size).tolist())
    theory = _benford_cdfs(grid, base)
    expected = [benford_cdf(s, base) for s in grid]
    assert theory.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


@pytest.mark.parametrize("base", [3, 10, 16])
def test_the_audit_sup_deviation_has_the_bits_of_the_per_point_cdf(base):
    values = np.exp(np.random.default_rng(base).normal(0.0, 3.0, 20_000))
    report = audit_dataset(values, base, grid_size=10_007)
    theory = np.array([benford_cdf(s, base) for s in report.stats.mantissa_grid])
    assert report.sup_deviation == float(np.max(np.abs(np.asarray(report.stats.empirical_cdf) - theory)))


def test_point_mass_fails_audit():
    report = audit_dataset([10.0**k for k in range(-5, 6)] * 100, 10)
    assert not report.conforms
    assert report.stats.digit_counts[0] == report.stats.count
    assert report.sup_deviation > 0.9


def test_raw_uniform_fails_audit_with_expected_digit_skew():
    # Unif(0,1) is not Benford: P(digit 1) = 1/9, not log10(2)
    rng = make_rng(SEED, stream=610)
    values = rng.random(100_000)
    report = audit_dataset(values, 10)
    assert not report.conforms
    n = report.stats.count
    freq1 = report.stats.digit_counts[0] / n
    sigma = math.sqrt((1.0 / 9.0) * (8.0 / 9.0) / n)
    assert abs(freq1 - 1.0 / 9.0) <= 3.0 * sigma
    assert report.chi_square > 100.0


def test_bound_context_gates_consistency():
    rng = make_rng(SEED, stream=606)
    good = get_family("benford", 10).sample_unit_batch(rng, 100_000)
    r = audit_dataset(good, 10, bound_context=0.004)
    assert r.bound_context == 0.004
    assert r.bound_consistent is True

    skewed = rng.random(100_000)
    r2 = audit_dataset(skewed, 10, bound_context=0.001)
    assert r2.bound_consistent is False

    r3 = audit_dataset(good, 10)
    assert r3.bound_context is None
    assert r3.bound_consistent is None


def test_bound_context_must_be_a_number_at_least_zero():
    values = [1.5, 2.5, 9.5, 4.0]
    for bad in (-1.0, -1e-300, math.nan, -math.inf):
        with pytest.raises(ValueError, match="bound_context"):
            audit_dataset(values, 10, bound_context=bad)
    assert audit_dataset(values, 10, bound_context=0.0).bound_context == 0.0
    r = audit_dataset(values, 10, bound_context=math.inf)
    assert r.bound_context == math.inf
    assert r.bound_consistent is True


def test_report_json_dict_fields():
    report = audit_dataset([1.5, 2.5, 9.5, 4.0], 10, bound_context=0.5)
    d = report.to_json_dict()
    assert list(d.keys()) == [
        "count", "skipped", "base", "digit_frequencies", "benford_frequencies",
        "sup_deviation", "chi_square", "ks_critical", "conforms",
        "bound_context", "bound_consistent",
    ]
    assert d["count"] == 4
    assert len(d["digit_frequencies"]) == 9
    assert math.fsum(d["digit_frequencies"]) == pytest.approx(1.0, abs=1e-15)
    assert d["benford_frequencies"][0] == math.log10(2.0)
    assert isinstance(report, ConformanceReport)


def test_two_sample_ks_edges():
    same = np.arange(1.0, 100.0)
    stat, reject = two_sample_ks(same, same)
    assert stat == 0.0
    assert not reject

    stat, reject = two_sample_ks(np.full(200, 1.0), np.full(200, 2.0))
    assert stat == 1.0
    assert reject

    with pytest.raises(ValueError):
        two_sample_ks([], [1.0])


def test_two_sample_ks_rejects_non_finite_values():
    # a NaN sorts last and would silently shift the empirical CDF
    for a, b in [
        ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [2.0, -math.inf, 3.0]),
        (np.arange(5.0), np.array([1.0, math.inf])),
        ([math.nan], [math.nan]),
    ]:
        with pytest.raises(ValueError, match="NaN or infinite"):
            two_sample_ks(a, b)


def test_two_sample_ks_calibration():
    g = np.random.default_rng(SEED)
    rejections = 0
    for _ in range(20):
        stat, reject = two_sample_ks(g.random(5_000), g.random(5_000))
        rejections += int(reject)
    assert rejections <= 2


def test_two_sample_ks_detects_shift():
    g = np.random.default_rng(SEED + 1)
    a = g.random(5_000)
    b = g.random(5_000) ** 1.15
    stat, reject = two_sample_ks(a, b)
    assert reject


def test_a_base_with_no_double_is_a_value_error_where_the_base_is_a_float():
    # float(base) overflowed inside the kernels (OverflowError), even for
    # mantissa(5.0, 10**400); the Benford law itself needs only log(base)
    below = 2**1024 - 2**970 - 1  # rounds down to the largest double
    assert float(below) == sys.float_info.max
    assert batch_mantissas(np.array([5.0, 1e-300]), below).tolist() == [5.0, 1e-300 * float(below)]
    for base in (2**1024 - 2**970, 2**1024, 10**400):
        message = f"^base must be below 2\\*\\*1024 - 2\\*\\*970 to have a double, got a {base.bit_length()}-bit integer$"
        for call in (
            lambda: mantissa(5.0, base),
            lambda: batch_mantissas(np.array([5.0]), base),
            lambda: digit_stats([5.0, 7.0], base),
            lambda: audit_dataset([5.0, 7.0], base),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert benford_cdf(2.0, base) == math.log(2.0) / math.log(base)
        assert benford_digit_prob(1, base) == math.log1p(1.0) / math.log(base)

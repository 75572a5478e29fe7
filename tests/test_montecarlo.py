"""Reproducible sampling, failure accounting, and mantissa extraction."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford_chains import montecarlo
from benford_chains.chains import ChainLink, ChainSpec
from benford_chains.conformance import two_sample_ks
from benford_chains.montecarlo import (
    BLOCK_SIZE,
    RNG_ALGORITHM,
    RngSeed,
    SampleBatch,
    batch_mantissas,
    first_digit,
    make_rng,
    mantissa,
    product_batch,
    sample_batch,
)
from benford_chains.families import get_family

SEED = 20260814


def chain(*families, base=10, powers=None):
    powers = powers or [1] * len(families)
    return ChainSpec(base, tuple(ChainLink(f, p) for f, p in zip(families, powers)))


class FakeRng:
    """Replays canned uniforms and normals, for exercising exact paths."""

    def __init__(self, uniforms=(), normals=()):
        self._u = list(uniforms)
        self._n = list(normals)

    def random(self, n=None):
        if n is None:
            return self._u.pop(0)
        return np.array([self._u.pop(0) for _ in range(n)])

    def standard_normal(self, n=None):
        if n is None:
            return self._n.pop(0)
        return np.array([self._n.pop(0) for _ in range(n)])


# ------------------------------------------------------------------ seeding

def test_rng_seed_validation():
    RngSeed(0, 0)
    RngSeed(2**64 - 1, 2**64 - 1)
    for bad in (-1, 2**64, 1.5, True, "7"):
        with pytest.raises(ValueError):
            RngSeed(bad, 0)
        with pytest.raises(ValueError):
            RngSeed(0, bad)


def test_make_rng_validates_block_like_seed_and_stream():
    # before: True was taken as block 1, 2**64 was accepted, 1.5 and None
    # raised TypeErrors that did not name the block
    for bad in (True, False, -1, 2**64, 1.5, None, "7", np.int64(1)):
        with pytest.raises(ValueError, match="^block must"):
            make_rng(SEED, 0, bad)
    for good in (0, 1, 2**64 - 1):
        assert make_rng(SEED, 0, good).random(4).shape == (4,)
    assert np.array_equal(make_rng(SEED, 0, 2**64 - 1).random(4), make_rng(SEED, 0, 2**64 - 1).random(4))


def test_rng_algorithm_string_is_pinned():
    assert RNG_ALGORITHM == "numpy-philox4x64/seedseq(seed,(stream,block))/block65536"
    assert BLOCK_SIZE == 65536


def test_make_rng_is_deterministic_and_keyed():
    a = make_rng(SEED, stream=3, block=1).random(8)
    b = make_rng(SEED, stream=3, block=1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(SEED, stream=4, block=1).random(8))
    assert not np.array_equal(a, make_rng(SEED, stream=3, block=2).random(8))
    assert not np.array_equal(a, make_rng(SEED + 1, stream=3, block=1).random(8))


# ----------------------------------------------------------------- sampling

def fake_rng(monkeypatch, uniforms):
    """Make every block generator replay the given uniforms."""
    monkeypatch.setattr(montecarlo, "make_rng", lambda *key: FakeRng(uniforms))


def test_sample_family_inverse_cdf_paths():
    u = get_family("uniform")
    assert 2.0 * u.sample_unit_batch(FakeRng([0.25]), 1)[0] == 0.5
    e = get_family("exponential")
    assert 3.0 * e.sample_unit_batch(FakeRng([0.5]), 1)[0] == 3.0 * -math.log1p(-0.5)
    b = get_family("benford", 10)
    assert b.sample_unit_batch(FakeRng([0.5]), 1)[0] == 10.0**0.5
    h = get_family("half_gaussian")
    assert 2.0 * h.sample_unit_batch(FakeRng(normals=[-1.0]), 1)[0] == 2.0 / math.sqrt(2.0)


def test_sample_chain_walks_scales(monkeypatch):
    fake_rng(monkeypatch, [0.5, 0.5])
    got = sample_batch(chain("uniform", "uniform"), 1, SEED)
    assert (got.values[0], got.count, got.failures) == (0.25, 1, 0)
    # power applies to the previous draw before it becomes the next scale
    fake_rng(monkeypatch, [0.5, 0.5])
    got = sample_batch(chain("uniform", "uniform", powers=[1, 2]), 1, SEED)
    assert got.values[0] == 0.5**2 * 0.5


def test_sample_chain_zero_draw_aborts(monkeypatch):
    fake_rng(monkeypatch, [0.0, 0.5])
    got = sample_batch(chain("uniform", "uniform"), 1, SEED)
    assert (got.count, got.failures) == (0, 1)


def test_sample_chain_scale_window_aborts(monkeypatch):
    # 1e-200 squared leaves [1e-300, 1e300]
    fake_rng(monkeypatch, [1e-200, 0.5])
    got = sample_batch(chain("uniform", "uniform", powers=[1, 2]), 1, SEED)
    assert (got.count, got.failures) == (0, 1)


def test_sample_product_matches_product_of_unit_draws(monkeypatch):
    ch = chain("uniform", "uniform", "uniform", powers=[1, 2, 3])
    # R = (6, 3, 1)
    fake_rng(monkeypatch, [0.5, 0.5, 0.5])
    got = product_batch(ch, 1, SEED)
    assert got.values[0] == 0.5**6 * 0.5**3 * 0.5


def test_batch_determinism_and_block_scheduling():
    ch = chain("exponential", "exponential")
    n = BLOCK_SIZE + 4321
    a = sample_batch(ch, n, SEED, stream=7)
    b = sample_batch(ch, n, SEED, stream=7)
    assert np.array_equal(a.values, b.values)
    assert a.count + a.failures == n
    assert a.seed == RngSeed(SEED, 7)

    c = sample_batch(ch, n, SEED, stream=8)
    assert not np.array_equal(a.values[: min(a.count, c.count)], c.values[: min(a.count, c.count)])

    # block 0 is a complete block in any larger batch: a whole-block
    # scheduler reproduces the same leading values
    small = sample_batch(ch, BLOCK_SIZE, SEED, stream=7)
    assert small.failures == 0
    assert np.array_equal(a.values[:BLOCK_SIZE], small.values)


def test_single_link_batch_equals_family_batch():
    ch = chain("half_gaussian")
    got = sample_batch(ch, 1000, SEED, stream=5)
    rng = make_rng(SEED, stream=5, block=0)
    assert np.array_equal(got.values, get_family("half_gaussian").sample_unit_batch(rng, 1000))


def test_chain_and_product_batches_coincide_without_powers():
    # with all powers 1 both kernels multiply the same draws in the same
    # order, so the arrays are bitwise equal
    ch = chain("exponential", "uniform", "half_gaussian")
    a = sample_batch(ch, 50_000, SEED, stream=6)
    b = product_batch(ch, 50_000, SEED, stream=6)
    assert np.array_equal(a.values, b.values)


def test_failures_are_counted_not_flushed():
    # theta = x**300 with x ~ U(0,1) leaves [1e-300, 1e300] when x < 0.1
    ch = chain("uniform", "uniform", powers=[1, 300])
    n = 20_000
    got = sample_batch(ch, n, SEED, stream=12)
    assert got.count + got.failures == n
    assert 1_700 < got.failures < 2_300  # P(abort) = P(x < 0.1) = 10%
    assert np.all(got.values > 0.0)
    assert np.all(np.isfinite(got.values))

    prod = product_batch(ch, n, SEED, stream=12)
    assert prod.count + prod.failures == n
    assert 1_700 < prod.failures < 2_300


def test_a_batch_is_its_kept_blocks_in_order():
    ch = chain("uniform", "uniform", powers=[1, 300])  # about 10% of lanes abort
    n = 3 * BLOCK_SIZE + 99
    got = sample_batch(ch, n, SEED, stream=14)
    kept = [values for values, _ in montecarlo._blocks(ch, n, SEED, 14)]
    assert got.count < n
    assert np.array_equal(got.values, np.concatenate(kept))


def test_a_batch_holds_one_block_beside_its_output():
    ch = chain("half_gaussian", "exponential", "uniform", powers=[1, 2, -3])
    n = 1_000_000  # 7.6 MiB of output
    tracemalloc.start()
    try:
        batch = sample_batch(ch, n, SEED, stream=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.count == n
    assert peak < 8 * n + 4 * 2**20


def test_batch_validates_count():
    ch = chain("uniform")
    for bad in (0, -5, 1.5, True):
        with pytest.raises(ValueError):
            sample_batch(ch, bad, SEED)


@pytest.mark.parametrize("sampler", [sample_batch, product_batch])
def test_batches_reject_a_benford_base_that_has_no_double(monkeypatch, sampler):
    # A benford link samples float(base)**U, which raised OverflowError from
    # inside the block kernel; the argument checks now name the base before
    # the first block.  A chain without a benford link never forms
    # float(base), so it still samples at such a base.
    rngs = []
    make = montecarlo.make_rng
    monkeypatch.setattr(montecarlo, "make_rng", lambda *args: rngs.append(args) or make(*args))
    for base in (2**1024 - 2**970, 10**400):
        with pytest.raises(ValueError, match=r"below 2\*\*1024 - 2\*\*970 to have a double"):
            sampler(chain("uniform", "benford", base=base), 10, SEED)
        assert rngs == []
        assert sampler(chain("uniform", "exponential", base=base), 10, SEED).count == 10
        rngs.clear()
    below = 2**1024 - 2**970 - 1  # rounds down to the largest double
    assert sampler(chain("uniform", "benford", base=below), 10, SEED).count <= 10


def test_sample_batch_invariant():
    ch = chain("uniform")
    with pytest.raises(ValueError):
        SampleBatch(chain=ch, seed=RngSeed(1), values=np.ones(3), count=2, failures=0)


def test_streams_are_statistically_independent():
    ch = chain("exponential", "uniform", "half_gaussian")
    rejections = 0
    for s in range(20):
        a = sample_batch(ch, 100_000, SEED, stream=100 + 2 * s)
        b = sample_batch(ch, 100_000, SEED, stream=101 + 2 * s)
        _, reject = two_sample_ks(batch_mantissas(a.values), batch_mantissas(b.values))
        rejections += int(reject)
    assert rejections <= 2


def test_link_order_does_not_move_the_digit_law():
    # same multiset of families, different order: mantissa samples must be
    # indistinguishable (all powers are 1)
    a_chain = chain("exponential", "uniform", "half_gaussian")
    b_chain = chain("half_gaussian", "exponential", "uniform")
    rejections = 0
    for s in range(20):
        a = sample_batch(a_chain, 20_000, SEED + s, stream=603)
        b = sample_batch(b_chain, 20_000, SEED + s, stream=604)
        _, reject = two_sample_ks(batch_mantissas(a.values), batch_mantissas(b.values))
        rejections += int(reject)
    assert rejections <= 2


# ----------------------------------------------------------------- mantissa

def test_mantissa_point_values():
    assert mantissa(250.0) == 2.5
    assert mantissa(0.03) == 3.0
    assert mantissa(1.0) == 1.0
    assert mantissa(9.999) == 9.999
    assert mantissa(10.0) == 1.0
    assert first_digit(250.0) == 2
    assert first_digit(0.03) == 3
    assert first_digit(9.999) == 9


def test_mantissa_domain():
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            mantissa(bad)
    with pytest.raises(ValueError):
        mantissa(1.0, base=1)
    with pytest.raises(ValueError):
        mantissa(1.0, base=True)


def test_mantissa_exact_on_decade_shifts():
    # these mantissas scale to every decade without rounding
    grid = [1.0, 1.25, 2.0, 2.5, 4.0, 5.0, 5.5, 6.25, 7.5, 8.0, 8.5, 9.5, 9.75]
    for m in grid:
        for k in range(-3, 4):
            assert mantissa(m * 10.0**k) == m, (m, k)


def test_mantissa_powers_of_base_land_on_one():
    for k in range(-8, 9):
        assert mantissa(10.0**k) == 1.0, k
    for k in range(-40, 41):
        assert mantissa(2.0**k, base=2) == 1.0, k
    assert mantissa(16.0**5, base=16) == 1.0


def test_mantissa_other_bases():
    assert mantissa(5.0, base=2) == 1.25  # 5 = 1.25 * 2^2
    assert mantissa(255.0, base=16) == pytest.approx(15.9375, rel=1e-15)
    assert first_digit(255.0, base=16) == 15
    assert first_digit(5.0, base=2) == 1


def test_mantissa_extremes_stay_in_range():
    for x in (1e308, 1.7e308, 5e-324, 1e-320, 4.9e-300, 1e300):
        m = mantissa(x)
        assert 1.0 <= m < 10.0, x
    assert mantissa(1e308) == 1.0
    assert first_digit(5e-324) == 4  # 4.9406564584124654e-324


def test_mantissa_of_the_largest_double_in_power_of_two_bases():
    # log2 of the largest double rounds up to 1024, so base**e overflows a
    # double and the scaling goes through the staged path
    top = sys.float_info.max  # (2 - 2**-52) * 2**1023
    for base in (2, 4, 16, 256):
        want = base * (1.0 - 2.0**-53)
        assert mantissa(top, base) == want, base
        assert batch_mantissas(np.array([top, 1.0]), base)[0] == want, base


def test_mantissa_shift_error_within_ulps():
    rng = make_rng(SEED, stream=401)
    ms = 1.0 + 9.0 * rng.random(300)
    ks = rng.integers(-30, 31, size=300)
    for m, k in zip(ms, ks):
        got = mantissa(float(m) * 10.0 ** float(k))
        # one rounding in the shift, one in the unshift
        assert abs(got - m) <= 4.0 * math.ulp(m), (m, k)


def test_batch_mantissas_bitwise_matches_scalar():
    rng = make_rng(SEED, stream=402)
    x = np.concatenate([
        10.0 ** (rng.random(5000) * 600.0 - 300.0),
        np.array([1e308, 1.7e308, 5e-324, 1e-320, 1.0, 10.0, 0.1, 250.0]),
    ])
    batch = batch_mantissas(x)
    scalar = np.array([mantissa(float(v)) for v in x])
    assert np.array_equal(batch, scalar)
    assert np.all((batch >= 1.0) & (batch < 10.0))


def test_batch_mantissas_other_base_and_empty():
    x = np.array([5.0, 20.0, 0.75])
    assert np.array_equal(batch_mantissas(x, base=2), np.array([1.25, 1.25, 1.5]))
    assert batch_mantissas(np.array([])).size == 0
    # any shape, a 0-d array included, comes back in that shape
    assert batch_mantissas(np.float64(250.0)).shape == ()
    assert batch_mantissas(250.0) == 2.5
    grid = batch_mantissas(np.array([[5.0, 1e-320], [0.03, 7.0]]))
    assert np.array_equal(grid, [[5.0, mantissa(1e-320)], [3.0, 7.0]])
    with pytest.raises(ValueError):
        batch_mantissas(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        batch_mantissas(np.array([1.0, np.nan]))
    for bad_base in (2.5, 1, True):
        with pytest.raises(ValueError, match="base must be an integer >= 2"):
            batch_mantissas(np.array([5.0, 20.0]), base=bad_base)


positive_doubles = st.lists(
    st.floats(min_value=5e-324, max_value=sys.float_info.max, allow_subnormal=True), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(a=positive_doubles, b=positive_doubles, base=st.integers(2, 1000))
def test_batch_mantissas_do_not_depend_on_batch_neighbours(a, b, base):
    # the scale table spans the largest exponent in the batch; no lane's
    # result may depend on which other values share its batch
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    whole = batch_mantissas(np.concatenate([x, y]), base)
    parts = np.concatenate([batch_mantissas(x, base), batch_mantissas(y, base)])
    assert whole.tobytes() == parts.tobytes()
    assert np.all((whole >= 1.0) & (whole < base))

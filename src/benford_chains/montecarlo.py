"""Seeded, reproducible sampling of chains, and mantissa extraction.

Sampling is the empirical oracle for every analytic claim in this
package, so reproducibility is a hard contract: a (seed, stream) pair
must give bit-identical batches across runs, platforms, and worker
counts.  Batches are cut into fixed blocks of 65536 lanes and every
block draws from its own counter-based generator, keyed as
SeedSequence(entropy=seed, spawn_key=(stream, block)) over Philox4x64.
Any scheduler that assigns whole blocks to workers reproduces the same
values in the same positions.  The two block kernels (chain walk and
product form) are the only samplers; a single draw is a batch of one.

Scales that leave [1e-300, 1e300] while walking a chain mark their lane
as failed; failed lanes are dropped and counted rather than silently
flushed to zero or infinity, which would corrupt digit statistics.
Mantissas come from one array kernel that mantissa and batch_mantissas
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainSpec, cumulative_powers

__all__ = [
    "RNG_ALGORITHM",
    "BLOCK_SIZE",
    "RngSeed",
    "SampleBatch",
    "make_rng",
    "sample_batch",
    "product_batch",
    "mantissa",
    "first_digit",
    "batch_mantissas",
]

# Version-pinned generator identity, echoed into every CLI output.
RNG_ALGORITHM = "numpy-philox4x64/seedseq(seed,(stream,block))/block65536"
BLOCK_SIZE = 65536

_SCALE_MIN = 1e-300
_SCALE_MAX = 1e300


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed plus a 64-bit substream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v < 2**64:
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {v}")


@dataclass(frozen=True)
class SampleBatch:
    """Successful draws of X_n plus the count of aborted lanes."""

    chain: ChainSpec
    seed: RngSeed
    values: np.ndarray = field(repr=False)
    count: int
    failures: int

    def __post_init__(self):
        if self.count != len(self.values):
            raise ValueError("count must equal the number of values")


def make_rng(seed: int, stream: int = 0, block: int = 0) -> np.random.Generator:
    """The generator for one block of one substream."""
    RngSeed(seed, stream)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _batch(chain: ChainSpec, count: int, seed: int, stream: int, kernel) -> SampleBatch:
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    key = RngSeed(seed, stream)
    kept = []
    failures = 0
    for block, off in enumerate(range(0, count, BLOCK_SIZE)):
        lanes = min(BLOCK_SIZE, count - off)
        rng = make_rng(seed, stream, block)
        values, bad = kernel(chain, rng, lanes)
        failures += int(bad.sum())
        kept.append(values[~bad])
    values = np.concatenate(kept)
    return SampleBatch(
        chain=chain, seed=key, values=values, count=len(values), failures=failures
    )


def _chain_kernel(chain: ChainSpec, rng, lanes: int):
    families = chain.families()
    bad = np.zeros(lanes, dtype=bool)
    x = families[0].sample_unit_batch(rng, lanes)
    for link, family in zip(chain.links[1:], families[1:]):
        draws = family.sample_unit_batch(rng, lanes)
        with np.errstate(all="ignore"):
            theta = x ** float(link.power)
        bad |= ~np.isfinite(theta) | (theta < _SCALE_MIN) | (theta > _SCALE_MAX)
        x = theta * draws
    bad |= ~np.isfinite(x) | (x <= 0.0)
    return x, bad


def _product_kernel(chain: ChainSpec, rng, lanes: int):
    powers = cumulative_powers(chain)
    bad = np.zeros(lanes, dtype=bool)
    out = np.ones(lanes)
    for family, r in zip(chain.families(), powers):
        draws = family.sample_unit_batch(rng, lanes)
        with np.errstate(all="ignore"):
            out = out * draws ** float(r)
        bad |= ~np.isfinite(out) | (out < _SCALE_MIN) | (out > _SCALE_MAX)
    return out, bad


def sample_batch(chain: ChainSpec, count: int, seed: int, stream: int = 0) -> SampleBatch:
    """count draws of X_n; lanes whose scale escaped are dropped and counted."""
    return _batch(chain, count, seed, stream, _chain_kernel)


def product_batch(chain: ChainSpec, count: int, seed: int, stream: int = 0) -> SampleBatch:
    """count draws of the product form prod_m Xi_m^(R_m)."""
    return _batch(chain, count, seed, stream, _product_kernel)


def _check_base(base) -> None:
    if isinstance(base, bool) or not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")


def _mantissas(x: np.ndarray, base: int) -> np.ndarray:
    """M in x = M * base**e, M in [1, base), for a 1-D array of finite positive doubles.

    A log-based exponent estimate e, then one division (e >= 0) or
    multiplication (e < 0) by base**|e| taken as an exact integer and
    rounded once to a double, then one correction step, so exact powers of
    the base land exactly on 1.0 instead of drifting across the boundary;
    np.power would drift a ulp at extreme exponents and flip boundary
    digits.  The scale factors come from one table over 0..max|e|.
    """
    if base == 10:
        e = np.log10(x)
    else:
        e = np.log(x)
        e /= math.log(base)
    np.floor(e, out=e)
    neg = e < 0.0
    k = np.abs(e, out=e).astype(np.intp)
    del e
    table, power = [], 1
    for _ in range(int(k.max(initial=0)) + 1):
        try:
            table.append(float(power))
        except OverflowError:  # only deep subnormals (and x near the max in bases 2**j)
            table.append(math.inf)
        power *= base
    m = np.array(table)[k]
    staged = np.isinf(m)
    np.divide(x, m, out=m, where=~neg)
    np.multiply(x, m, out=m, where=neg)
    if staged.any():
        # Where the factor overflows a double, scale in base**cap steps
        # first, then by the remaining power (negative for x near the max).
        cap = max(1, int(300.0 / math.log10(base)))
        y = x[staged]
        s = np.where(neg[staged], k[staged], -k[staged])
        while (over := s > cap).any():
            y[over] *= float(base**cap)
            s[over] -= cap
        lo = int(s.min())
        rest = np.array([float(base**j) for j in range(lo, int(s.max()) + 1)])
        m[staged] = y * rest[s - lo]
    np.multiply(m, base, out=m, where=m < 1.0)
    np.divide(m, base, out=m, where=m >= base)
    return m


def mantissa(x: float, base: int = 10) -> float:
    """The M in x = M * base**k with M in [1, base) and integer k."""
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"mantissa requires finite x > 0, got {x!r}")
    _check_base(base)
    return float(_mantissas(np.array([x]), base)[0])


def first_digit(x: float, base: int = 10) -> int:
    """Leading digit of x in the given base, in [1, base - 1]."""
    return int(mantissa(x, base))


def batch_mantissas(values: np.ndarray, base: int = 10) -> np.ndarray:
    """mantissa of every element of a sample array."""
    _check_base(base)
    x = np.asarray(values, dtype=float)
    if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
        raise ValueError("mantissa requires finite positive values")
    return _mantissas(x.ravel(), base).reshape(x.shape)

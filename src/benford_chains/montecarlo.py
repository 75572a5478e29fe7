"""Seeded, reproducible sampling of chains, and mantissa extraction.

Sampling is the empirical oracle for every analytic claim in this
package, so reproducibility is a hard contract: a (seed, stream) pair
must give bit-identical batches across runs, platforms, and worker
counts.  Batches are cut into fixed blocks of 65536 lanes and every
block draws from its own counter-based generator, keyed as
SeedSequence(entropy=seed, spawn_key=(stream, block)) over Philox4x64.
Any scheduler that assigns whole blocks to workers reproduces the same
values in the same positions.

Scales that leave [1e-300, 1e300] while walking a chain are aborted and
counted as failures rather than silently flushed to zero or infinity,
which would corrupt digit statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainSpec, cumulative_powers
from .families import ScaleFamily

__all__ = [
    "RNG_ALGORITHM",
    "BLOCK_SIZE",
    "RngSeed",
    "SampleBatch",
    "SampleFailure",
    "make_rng",
    "sample_family",
    "sample_chain",
    "sample_product",
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


class SampleFailure(RuntimeError):
    """A single draw aborted because the running scale left [1e-300, 1e300]."""


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


def sample_family(family: ScaleFamily, theta: float, rng) -> float:
    """One draw from the family at scale theta (inverse-CDF samplers)."""
    theta = float(theta)
    if not theta > 0.0:
        raise ValueError(f"scale must be positive, got {theta}")
    return theta * family.sample_unit(rng)


def _checked_power(x: float, power: int) -> float:
    # x**power as the next link's scale; anything outside the safe window
    # (or a pow overflow, which Python raises instead of returning inf)
    # aborts the sample.
    try:
        theta = x**power
    except (OverflowError, ZeroDivisionError):
        raise SampleFailure(f"scale {x!r}**{power} left the representable range")
    if not _SCALE_MIN <= theta <= _SCALE_MAX:
        raise SampleFailure(f"scale {theta!r} outside [1e-300, 1e300]")
    return theta


def sample_chain(chain: ChainSpec, rng) -> float:
    """Walk the chain once: each draw becomes the next link's scale."""
    families = chain.families()
    x = sample_family(families[0], 1.0, rng)
    for link, family in zip(chain.links[1:], families[1:]):
        if not x > 0.0 or math.isinf(x):
            raise SampleFailure(f"draw {x!r} cannot seed the next scale")
        theta = _checked_power(x, link.power)
        x = sample_family(family, theta, rng)
    if not x > 0.0 or not math.isfinite(x):
        raise SampleFailure(f"final draw {x!r} is not a positive real")
    return x


def sample_product(chain: ChainSpec, rng) -> float:
    """Equivalent product form: independent unit draws raised to R_m."""
    powers = cumulative_powers(chain)
    out = 1.0
    for family, r in zip(chain.families(), powers):
        xi = family.sample_unit(rng)
        if not xi > 0.0:
            raise SampleFailure(f"unit draw {xi!r} is not positive")
        try:
            factor = xi**r
        except (OverflowError, ZeroDivisionError):
            raise SampleFailure(f"factor {xi!r}**{r} left the representable range")
        out *= factor
        if not _SCALE_MIN <= out <= _SCALE_MAX:
            raise SampleFailure(f"partial product {out!r} outside [1e-300, 1e300]")
    return out


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


def mantissa(x: float, base: int = 10) -> float:
    """The M in x = M * base**k with M in [1, base) and integer k.

    Log-based exponent estimate plus one correction step, so exact powers
    of the base land exactly on 1.0 instead of drifting across the decade
    boundary.
    """
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"mantissa requires finite x > 0, got {x!r}")
    if isinstance(base, bool) or not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    if base == 10:
        e = math.floor(math.log10(x))
    else:
        e = math.floor(math.log(x) / math.log(base))
    # Scale by base**|e| as an exact integer; only for deep subnormals can
    # the float conversion overflow, and then the scaling is staged.
    try:
        if e >= 0:
            m = x / float(base**e)
        else:
            m = x * float(base**-e)
    except OverflowError:
        cap = max(1, int(300.0 / math.log10(base)))
        k = -e
        while k > cap:
            x *= float(base**cap)
            k -= cap
        m = x * float(base**k)
    if m < 1.0:
        m *= base
    elif m >= base:
        m /= base
    return m


def first_digit(x: float, base: int = 10) -> int:
    """Leading digit of x in the given base, in [1, base - 1]."""
    return int(mantissa(x, base))


def batch_mantissas(values: np.ndarray, base: int = 10) -> np.ndarray:
    """Vectorized mantissa for sample arrays (same algorithm as mantissa)."""
    if isinstance(base, bool) or not isinstance(base, int) or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base!r}")
    x = np.asarray(values, dtype=float)
    if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
        raise ValueError("mantissa requires finite positive values")
    if base == 10:
        e = np.floor(np.log10(x))
    else:
        e = np.floor(np.log(x) / math.log(base))
    # Group lanes by exponent and scale with the same exact integer power
    # the scalar path uses, so both paths agree bit for bit; np.power
    # would drift a ulp at extreme exponents and flip boundary digits.
    m = np.empty_like(x)
    for u in np.unique(e):
        mask = e == u
        iu = int(u)
        try:
            if iu >= 0:
                m[mask] = x[mask] / float(base**iu)
            else:
                m[mask] = x[mask] * float(base**-iu)
        except OverflowError:
            m[mask] = [mantissa(v, base) for v in x[mask]]
    m = np.where(m < 1.0, m * base, m)
    m = np.where(m >= base, m / base, m)
    return m

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
One block loop serves both whole batches, which copy each block into
their output as it is drawn, and the CLI's simulate, which writes each
block as it is drawn.  It draws two blocks at a time, the caller one and
a helper thread the next (numpy releases the GIL in the Philox fills and
the ufuncs), and hands them out in block order, so every value and every
error is the serial loop's; both consumers hold at most two blocks in
flight.  A one-block job starts no thread, a forked child starts its own
helper, and while recent pairs did not pay for the helper the loop runs
serially, trying a pair now and then.

Scales that leave [1e-300, 1e300] while walking a chain mark their lane
as failed; failed lanes are dropped and counted rather than silently
flushed to zero or infinity, which would corrupt digit statistics.
Mantissas come from one array kernel that mantissa and batch_mantissas
share.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._closed import RNG_ALGORITHM, _check_base

if TYPE_CHECKING:  # audit and the mantissas load no analytic code
    from .chains import ChainSpec

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

BLOCK_SIZE = 65536

_SCALE_MIN = 1e-300
_SCALE_MAX = 1e300


def _check_u64(name: str, v) -> None:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if not 0 <= v < 2**64:
        raise ValueError(f"{name} must fit in 64 unsigned bits, got {v}")


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed plus a 64-bit substream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        _check_u64("seed", self.seed)
        _check_u64("stream", self.stream)


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
    _check_u64("block", block)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, block))
    return np.random.Generator(np.random.Philox(ss))


def _chain_kernel(chain: ChainSpec, rng, lanes: int):
    families = chain.families()
    ok = np.ones(lanes, dtype=bool)
    x = families[0].sample_unit_batch(rng, lanes)
    for link, family in zip(chain.links[1:], families[1:]):
        draws = family.sample_unit_batch(rng, lanes)
        with np.errstate(all="ignore"):
            x **= float(link.power)
        ok &= np.isfinite(x)
        ok &= x >= _SCALE_MIN
        ok &= x <= _SCALE_MAX
        x *= draws
    ok &= np.isfinite(x)
    ok &= x > 0.0
    return x, ok


def _product_kernel(chain: ChainSpec, rng, lanes: int):
    from .chains import cumulative_powers

    powers = cumulative_powers(chain)
    ok = np.ones(lanes, dtype=bool)
    out = np.ones(lanes)
    for family, r in zip(chain.families(), powers):
        draws = family.sample_unit_batch(rng, lanes)
        with np.errstate(all="ignore"):
            draws **= float(r)
            out *= draws
        ok &= np.isfinite(out)
        ok &= out >= _SCALE_MIN
        ok &= out <= _SCALE_MAX
    return out, ok


# (pid, task queue) of the helper thread; a forked child has another pid,
# so it starts a helper of its own instead of waiting on one it lacks.
_helper = (None, None)
_END = object()
# Whether the helper pays, from the pairs themselves: each pair's wall time
# over twice the caller's CPU time (what the two items cost in series),
# clipped to 2, averaged with weight 1/8 per pair.  Below 1 the map pairs
# items; above it the map runs serially and tries one pair every
# _PROBE_ITEMS items.  On a 2-CPU VM whose host steals time, a GIL handoff
# can wait milliseconds for the other vCPU: a 1e6 sample_batch then took
# up to 150 ms on two threads against 52 ms on one.  On a quiet host about
# one pair in a hundred reads above 1; the average does not leave the pair
# map for such a pair, so the map's speed does not hang on when they come.
_cost = 0.5
_serial_items = 0
_PROBE_ITEMS = 32


def _serve(tasks) -> None:
    # Each item runs in a frame of its own, so an idle helper holds no block.
    while True:
        _run(*tasks.get())


def _run(fn, item, reply) -> None:
    try:
        reply.put((fn(item), None))
    except BaseException as exc:
        reply.put((None, exc))


def _submit(fn, item):
    """Run fn(item) on the helper thread; the returned queue gets (result, error)."""
    global _helper
    import queue

    pid, tasks = _helper
    if pid != os.getpid():
        import threading

        tasks = queue.SimpleQueue()
        threading.Thread(
            target=_serve, args=(tasks,), name="benford_chains-blocks", daemon=True
        ).start()
        _helper = (os.getpid(), tasks)
    reply = queue.SimpleQueue()
    tasks.put((fn, item, reply))
    return reply


def _pair(fn, first, second):
    """([fn(first), fn(second)], None), the second run on the helper meanwhile.

    If fn(second) raised, ([fn(first)], its error).  The helper's item is
    waited for before the pair returns or raises, so no work outlives it.
    """
    reply = _submit(fn, second)
    try:
        head = fn(first)
    finally:
        tail, error = reply.get()
    return ([head] if error is not None else [head, tail]), error


def _in_order(fn, items):
    """fn(item) for each item, in order, two at a time.

    Every second item runs on the helper thread while the caller runs the
    one before it; results and errors come out in item order, so the
    caller sees what map(fn, items) gives.  A single item runs in the
    caller and starts no thread.  While _cost says the helper does not
    pay, items run in the caller, with a pair every _PROBE_ITEMS items.
    fn must not itself use this map: the one helper would wait on itself.
    """
    global _cost, _serial_items
    items = iter(items)
    for item in items:
        if _cost > 1.0 and _serial_items < _PROBE_ITEMS:
            _serial_items += 1
            yield fn(item)
            continue
        after = next(items, _END)
        if after is _END:
            yield fn(item)
            return
        _serial_items = 0
        wall, cpu = time.perf_counter(), time.thread_time()
        done, error = _pair(fn, item, after)
        wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
        cost = 2.0 if wall > 4.0 * cpu else (wall / (2.0 * cpu) if cpu else 0.0)
        _cost += (cost - _cost) / 8.0
        while done:
            yield done.pop(0)
        if error is not None:
            raise error


def _blocks(chain: ChainSpec, count: int, seed: int, stream: int = 0, kernel=_chain_kernel):
    """(kept draws, failed lanes) of each block in order, drawn lazily.

    The arguments are checked on the call, before any block is drawn, so a
    caller fails before it opens its output.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    RngSeed(seed, stream)
    if any(link.family == "benford" for link in chain.links):
        _check_base(chain.base, double=True)  # a benford link samples float(base)**U

    def draw(job):
        rng, lanes = job
        values, ok = kernel(chain, rng, lanes)
        kept = int(np.count_nonzero(ok))
        return (values if kept == lanes else values[ok]), lanes - kept

    # The caller makes the generators, in block order, so numpy.random is
    # imported before the helper starts and only the kernels run on it.
    jobs = (
        (make_rng(seed, stream, block), min(BLOCK_SIZE, count - off))
        for block, off in enumerate(range(0, count, BLOCK_SIZE))
    )
    return _in_order(draw, jobs)


def _batch(chain: ChainSpec, count: int, seed: int, stream: int, kernel) -> SampleBatch:
    # One count-sized output, so a batch holds two blocks beside it, never
    # the blocks and their concatenation; the values are its prefix.  The
    # output is a bytearray, not np.empty: numpy advises 2 MiB pages for
    # arrays of 4 MiB and more, the advice outlives the array in the malloc
    # heap, and the kernel then backs heap ranges with 2 MiB pages when the
    # host has them to spare, so the resident size of a process that draws
    # batch after batch would vary from run to run.
    blocks = _blocks(chain, count, seed, stream, kernel)
    out = np.frombuffer(bytearray(8 * count), dtype=np.float64)
    kept = failures = 0
    for values, failed in blocks:
        out[kept : kept + values.size] = values
        kept += values.size
        failures += failed
        del values  # the next two blocks are drawn beside none of this one
    return SampleBatch(
        chain=chain,
        seed=RngSeed(seed, stream),
        values=out[:kept],
        count=kept,
        failures=failures,
    )


def sample_batch(chain: ChainSpec, count: int, seed: int, stream: int = 0) -> SampleBatch:
    """count draws of X_n; lanes whose scale escaped are dropped and counted."""
    return _batch(chain, count, seed, stream, _chain_kernel)


def product_batch(chain: ChainSpec, count: int, seed: int, stream: int = 0) -> SampleBatch:
    """count draws of the product form prod_m Xi_m^(R_m)."""
    return _batch(chain, count, seed, stream, _product_kernel)


def _mantissas(x: np.ndarray, base: int) -> np.ndarray:
    """M in x = M * base**e, M in [1, base), for a 1-D array of finite positive doubles.

    A log-based exponent estimate e, then one multiplication (e < 0) or
    division (e >= 0) by base**|e| taken as an exact integer and rounded
    once to a double, then one correction step, so exact powers of the
    base land exactly on 1.0 instead of drifting across the boundary;
    np.power would drift a ulp at extreme exponents and flip boundary
    digits.  The factors come from two tables over the exponents present,
    mul (base**-e for e < 0, else 1.0) and div (base**e for e >= 0, else
    1.0): m = mul * x / div.  Multiplying first keeps subnormal x out of
    the division.
    """
    if base == 10:
        e = np.log10(x)
    else:
        e = np.log(x)
        e /= math.log(base)
    np.floor(e, out=e)
    k = e.astype(np.intp)
    del e
    e_min, e_max = int(k.min(initial=0)), int(k.max(initial=0))
    table, power = [], 1
    for _ in range(max(-e_min, e_max) + 1):
        try:
            table.append(float(power))
        except OverflowError:  # only deep subnormals (and x near the max in bases 2**j)
            table.append(math.inf)
        power *= base
    exponents = np.arange(e_min, e_max + 1)
    factor = np.array(table)[np.abs(exponents)]
    mul = np.where(exponents < 0, factor, 1.0)
    div = np.where(exponents < 0, 1.0, factor)
    k -= e_min  # index into the tables
    m = mul[k]
    m *= x
    m /= div[k]
    overflow = np.isinf(factor)
    if overflow.any() and (staged := overflow[k]).any():
        # Where the factor overflows a double, scale in base**cap steps
        # first, then by the remaining power (negative for x near the max).
        cap = max(1, int(300.0 / math.log10(base)))
        y = x[staged]
        s = -(k[staged] + e_min)
        while (over := s > cap).any():
            y[over] *= float(base**cap)
            s[over] -= cap
        lo = int(s.min())
        rest = np.array([float(base**j) for j in range(lo, int(s.max()) + 1)])
        m[staged] = y * rest[s - lo]
    m[np.flatnonzero(m < 1.0)] *= base
    m[np.flatnonzero(m >= base)] /= base
    return m


def mantissa(x: float, base: int = 10) -> float:
    """The M in x = M * base**k with M in [1, base) and integer k."""
    x = float(x)
    if not x > 0.0 or math.isinf(x):
        raise ValueError(f"mantissa requires finite x > 0, got {x!r}")
    _check_base(base, double=True)
    return float(_mantissas(np.array([x]), base)[0])


def first_digit(x: float, base: int = 10) -> int:
    """Leading digit of x in the given base, in [1, base - 1]."""
    return int(mantissa(x, base))


def batch_mantissas(values: np.ndarray, base: int = 10) -> np.ndarray:
    """mantissa of every element of a sample array."""
    _check_base(base, double=True)
    x = np.asarray(values, dtype=float)
    if x.size and (not np.all(np.isfinite(x)) or np.any(x <= 0.0)):
        raise ValueError("mantissa requires finite positive values")
    return _mantissas(x.ravel(), base).reshape(x.shape)

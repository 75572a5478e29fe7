"""Workload `sampling`: 1e6-draw `sample_batch` jobs, each followed by an
`audit_dataset` of the drawn values, in process and one at a time.

The chain set is fixed and covers base 10 (the `log10` mantissa path) and
bases 2, 3 and 16, half-Gaussian (normal) draws, and dynamic ranges from
about 10 to about 300 distinct exponents, over which `batch_mantissas`
time grows several-fold.  The uniform chain with powers 9, 9 aborts a few
hundred lanes per 1e6 draws, by design.  Each chain runs on two streams of
the workload seed.  This load runs `montecarlo` and `conformance` and
leaves the analytic layers idle.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import numpy as np

import benford_chains as bc

from harness import Digests, SpeedProbe, Tally, p50, p90, peak_rss_mib, ratio, sha256

WARMUP = (
    "import benford_chains as bc; "
    "c = bc.ChainSpec(10, (bc.ChainLink('exponential', 1),)); "
    "bc.audit_dataset(bc.sample_batch(c, bc.BLOCK_SIZE, 0).values, 10)"
)

DRAWS = 1_000_000
STREAMS = (0, 1)
CHAINS = (
    (10, (("half_gaussian", 1), ("exponential", 2))),
    (10, (("exponential", 1), ("exponential", 2), ("exponential", 3))),
    (10, (("uniform", 1), ("uniform", 9), ("uniform", 9))),
    (2, (("exponential", 1), ("half_gaussian", -2))),
    (3, (("half_gaussian", 1), ("half_gaussian", 1))),
    (16, (("uniform", 1), ("exponential", 3), ("uniform", -4))),
)

E2E_SLOTS = {
    "lat1_ms": ("batch_p50_s", 1e3),
    "lat2_ms": ("sample_p50_ms", 1.0),
    "lat3_ms": ("audit_p50_ms", 1.0),
    "lat4_ms": ("batch_p90_s", 1e3),
    "throughput_per_s": ("samples_per_s", 1.0),
}


def chains():
    return [
        bc.ChainSpec(base, tuple(bc.ChainLink(f, p) for f, p in links)) for base, links in CHAINS
    ]


def label(chain, stream: int) -> str:
    links = ",".join(f"{link.family}^{link.power}" for link in chain.links)
    return f"base {chain.base} [{links}] stream {stream}"


def check_job(chain, batch, report) -> list[str]:
    """Checks that hold for every job."""
    problems = []
    if batch.count + batch.failures != DRAWS:
        problems.append(f"count {batch.count} + failures {batch.failures} != {DRAWS}")
    if report.stats.count != batch.count or report.skipped != 0:
        problems.append(f"audit saw {report.stats.count} values and skipped {report.skipped}")
    # The digit counts cover digits 1..base-1 only, so they add up to the
    # count exactly when every mantissa lies in [1, base).
    if sum(report.stats.digit_counts) != report.stats.count:
        problems.append("a mantissa lies outside [1, base)")
    return problems


def check_first_job(chain, stream: int, seed: int, batch) -> list[str]:
    """Costlier checks, made once per (chain, stream) and run.

    They work on one block at a time, so their arrays stay far below the
    job's own and cannot set the run's peak RSS.
    """
    problems = []
    for start in range(0, batch.count, bc.BLOCK_SIZE):
        mants = bc.batch_mantissas(batch.values[start : start + bc.BLOCK_SIZE], chain.base)
        if not (np.all(mants >= 1.0) and np.all(mants < chain.base)):
            problems.append("batch_mantissas left [1, base)")
            break
    # Any block split must give the same values: one block is a prefix.
    block = bc.sample_batch(chain, bc.BLOCK_SIZE, seed, stream)
    if not np.array_equal(block.values, batch.values[: block.count]):
        problems.append("one-block batch is not a prefix of the full batch")
    return problems


def run_cycle(jobs, seed: int, tally: Tally, digests: Digests, tracer=None, probe=None):
    """One job per (chain, stream); yields (sample s, audit s) for passes."""
    for chain, stream in jobs:
        if probe:
            probe.tick()
        what = label(chain, stream)
        try:
            with tracer.span("op.sample") if tracer else nullcontext():
                t0 = time.perf_counter()
                batch = bc.sample_batch(chain, DRAWS, seed, stream)
                t1 = time.perf_counter()
            with tracer.span("op.audit") if tracer else nullcontext():
                t2 = time.perf_counter()
                report = bc.audit_dataset(batch.values, chain.base)
                t3 = time.perf_counter()
            with tracer.paused() if tracer else nullcontext():
                problems = check_job(chain, batch, report)
                first = what not in digests.first
                problems += digests.check(what, sha256(np.ascontiguousarray(batch.values)))
                if first:
                    problems += check_first_job(chain, stream, seed, batch)
        except Exception as exc:  # a failing job is counted, the run goes on
            tally.crash(what, exc)
            continue
        if tally.record(what, problems):
            yield t1 - t0, t3 - t2


def jobs():
    return [(chain, stream) for chain in chains() for stream in STREAMS]


def measure(ctx, tally: Tally, probe: SpeedProbe) -> dict:
    exec(WARMUP, {})
    digests = Digests()
    sample, audit = [], []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        for ts, ta in run_cycle(jobs(), ctx.seed, tally, digests, probe=probe):
            sample.append(ts)
            audit.append(ta)
    # Scaled to the reference machine speed by the run's median probe tick.
    scale = probe.scale()
    batch = [s + a for s, a in zip(sample, audit)]
    return {
        "metrics": {
            "samples_per_s": (ratio(len(batch) * DRAWS, sum(batch)) / scale, "1/s"),
            "batch_p50_s": (p50(batch) * scale, "s"),
            "batch_p90_s": (p90(batch) * scale, "s"),
            "sample_p50_ms": (p50(sample) * 1e3 * scale, "ms"),
            "audit_p50_ms": (p50(audit) * 1e3 * scale, "ms"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
        "scale": f"times scaled by {scale:.4f}, the run's median probe tick",
        "samples": {"jobs": len(batch)},
        "digests": {"sample values, all jobs": digests.combined()},
    }


def trace(ctx, tally: Tally, tracer) -> dict:
    """Fixed work: one untraced and one traced pass over every job."""
    exec(WARMUP, {})
    plain = sum(ts + ta for ts, ta in run_cycle(jobs(), ctx.seed, tally, Digests()))
    tracer.install()
    try:
        traced = sum(
            ts + ta for ts, ta in run_cycle(jobs(), ctx.seed, tally, Digests(), tracer)
        )
    finally:
        tracer.uninstall()
    return {"trace.overhead_pct": (ratio(traced, plain) - 1.0) * 100.0}

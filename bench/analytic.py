"""Workload `analytic`: deviation bounds, fold probabilities and digit tables.

One closed-loop caller sends queries in process, each against a chain it
has not used before, so a cache across calls can show no gain here.  Every
block of six queries holds one of each (kind, L) pair: kind is
`deviation_bound` or `fold_probability` on a random interval, or
`first_digit_probabilities`; L is 64 or 1024.  At L = 64 the explicit
majorant tail (summed up to max(2L, 256)) costs about as much as the
spectrum; at L = 1024 the spectrum dominates, so a tail change and a
spectrum change move different metrics.

The base and the number of links of each chain follow a fixed rotation
through 24 strata, so every seed gets the same mix of cheap and costly
queries; the seed draws the families, powers and intervals.  One stratum
in five carries a `benford` link, which makes the chain exactly Benford.
This load runs `chains`, `families` and `specfun` and leaves `montecarlo`
and `conformance` idle.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

import benford_chains as bc

from harness import SpeedProbe, Tally, p50, p90, peak_rss_mib, ratio

WARMUP = (
    "import benford_chains as bc; "
    "bc.deviation_bound(bc.ChainSpec(10, (bc.ChainLink('exponential', 1),)), "
    "bc.FoldInterval(0.0, 1.0), 64)"
)

FAMILIES = ("exponential", "uniform", "half_gaussian")
BASES = (2, 3, 10, 16)
POWERS = tuple(p for p in range(-9, 10) if p != 0)
KINDS = ("bound", "fold", "digits")
SLOTS = tuple((kind, L) for L in (64, 1024) for kind in KINDS)
# (base, links) strata; for each base the six link counts appear once.
STRATA = tuple((BASES[i % 4], 1 + (i // 4 + 2 * (i % 4)) % 6) for i in range(24))
# Rounding allowance of the output checks, far below any truncation error
# that matters and far above the ~1e-15 the sums actually show.
SLACK = 1e-12
DIGEST_BLOCKS = 8
TRACE_BLOCKS = 24

# Slot in BENCHMARK.json -> (metric of this workload, factor to the slot's unit).
E2E_SLOTS = {
    "lat1_ms": ("l64_query_p50_ms", 1.0),
    "lat2_ms": ("l64_query_p90_ms", 1.0),
    "lat3_ms": ("l1024_query_p50_ms", 1.0),
    "lat4_ms": ("l1024_query_p90_ms", 1.0),
    "throughput_per_s": ("queries_per_s", 1.0),
}


@dataclass(frozen=True)
class Query:
    kind: str
    L: int
    chain: object
    interval: object

    @property
    def label(self) -> str:
        return f"{self.kind} L={self.L} base={self.chain.base} links={len(self.chain.links)}"

    @property
    def absorbed(self) -> bool:
        return any(link.family == "benford" for link in self.chain.links)


class QueryStream:
    """Blocks of six queries drawn from the workload seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._seen: set = set()
        self.blocks = 0

    def next_block(self) -> list[Query]:
        block = []
        for slot, (kind, L) in enumerate(SLOTS):
            stratum = (self.blocks + 5 * slot) % len(STRATA)
            base, links = STRATA[stratum]
            chain = self._fresh_chain(base, links, absorbed=stratum % 5 == 0)
            a, b = sorted((self._rng.random(), self._rng.random()))
            block.append(Query(kind, L, chain, bc.FoldInterval(a, b)))
        self._rng.shuffle(block)
        self.blocks += 1
        return block

    def _fresh_chain(self, base: int, links: int, absorbed: bool):
        while True:
            for _ in range(64):
                families = [self._rng.choice(FAMILIES) for _ in range(links)]
                if absorbed:
                    families[self._rng.randrange(links)] = "benford"
                powers = [1] + [self._rng.choice(POWERS) for _ in range(links - 1)]
                key = (base, tuple(zip(families, powers)))
                if key not in self._seen:
                    self._seen.add(key)
                    return bc.ChainSpec(base, tuple(bc.ChainLink(f, p) for f, p in key[1]))
            # Every chain of this length was used already (only short
            # chains run out); take one link more.
            links += 1


def call(q: Query):
    if q.kind == "bound":
        return bc.deviation_bound(q.chain, q.interval, q.L)
    if q.kind == "fold":
        return bc.fold_probability(q.chain, q.interval, q.L)
    return bc.first_digit_probabilities(q.chain, q.L)


def digit_interval(d: int, base: int):
    """[log_B d, log_B(d+1)], the fold interval of leading digit d."""
    return bc.FoldInterval(math.log(d) / math.log(base), math.log(d + 1) / math.log(base))


def check(q: Query, result) -> list[str]:
    """Problems with one query's result; an empty list means it is right."""
    problems = []
    base = q.chain.base
    if q.kind == "digits":
        probs = list(result)
        if len(probs) != base - 1:
            return [f"{len(probs)} digit probabilities for base {base}"]
        # Truncation errors of the digit intervals add up to at most the
        # plain two-sided tail, because the interval widths sum to 1.
        whole = bc.deviation_bound(q.chain, bc.FoldInterval(0.0, 1.0), q.L)
        total = math.fsum(probs)
        if not abs(total - 1.0) <= whole.tail + SLACK:
            problems.append(f"digit probabilities sum to {total!r}, tail {whole.tail!r}")
        # The sum cannot catch a wrong digit: the series terms of the digit
        # intervals telescope over [0, 1].  So each digit departs from its
        # interval's width w by at most w times the deviation bound on
        # [0, 1], and one digit, picked by the query's random interval,
        # equals the fold probability on its interval: the same series
        # truncated at the same L.
        intervals = [digit_interval(d, base) for d in range(1, base)]
        for d, (p, iv) in enumerate(zip(probs, intervals), start=1):
            if not abs(p - iv.width) <= iv.width * whole.value + SLACK:
                problems.append(f"digit {d}: {p!r} departs from width {iv.width!r} beyond the bound")
        d = 1 + int(q.interval.a * (base - 1))
        fold, _ = bc.fold_probability(q.chain, intervals[d - 1], q.L)
        if not abs(probs[d - 1] - fold) <= SLACK:
            problems.append(f"digit {d}: {probs[d - 1]!r} is not the fold probability {fold!r}")
        if q.absorbed:
            if whole.tail != 0.0:
                problems.append(f"benford link left a tail of {whole.tail!r}")
            for d, p in enumerate(probs, start=1):
                if not abs(p - bc.benford_digit_prob(d, base)) <= SLACK:
                    problems.append(f"digit {d}: {p!r} is not Benford")
        return problems

    width = q.interval.width
    if q.kind == "bound":
        bound = result.value
        prob, err = bc.fold_probability(q.chain, q.interval, q.L)
    else:
        prob, err = result
        bound = bc.deviation_bound(q.chain, q.interval, q.L).value
    if not (bound >= 0.0 and err >= 0.0):
        problems.append(f"negative bound {bound!r} or fold error {err!r}")
    if not abs(prob - width) <= bound + err + SLACK:
        problems.append(f"|fold {prob!r} - width {width!r}| exceeds bound {bound!r} + error {err!r}")
    if q.absorbed and not (bound == 0.0 and prob == width and err == 0.0):
        problems.append(f"benford link: bound {bound!r}, fold {prob!r} +- {err!r}, width {width!r}")
    return problems


def run_block(block, tally: Tally, tracer=None):
    """Time each query of a block; yields (query, seconds, result) for passes."""
    for q in block:
        try:
            with tracer.span(f"op.{q.kind}.L{q.L}") if tracer else nullcontext():
                t0 = time.perf_counter()
                result = call(q)
                dt = time.perf_counter() - t0
            with tracer.paused() if tracer else nullcontext():
                problems = check(q, result)
        except Exception as exc:  # a failing query is counted, the run goes on
            tally.crash(q.label, exc)
            continue
        if tally.record(q.label, problems):
            yield q, dt, result


def measure(ctx, tally: Tally, probe: SpeedProbe) -> dict:
    stream = QueryStream(ctx.seed)
    exec(WARMUP, {})
    lat = {64: [], 1024: []}
    digest = hashlib.sha256()
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline:
        probe.tick()
        for q, dt, result in run_block(stream.next_block(), tally):
            lat[q.L].append(dt)
            if stream.blocks <= DIGEST_BLOCKS:
                digest.update(repr(result).encode())
    # Scaled to the reference machine speed by the run's median probe tick.
    scale = probe.scale()
    queries = len(lat[64]) + len(lat[1024])
    return {
        "metrics": {
            "l64_query_p50_ms": (p50(lat[64]) * 1e3 * scale, "ms"),
            "l64_query_p90_ms": (p90(lat[64]) * 1e3 * scale, "ms"),
            "l1024_query_p50_ms": (p50(lat[1024]) * 1e3 * scale, "ms"),
            "l1024_query_p90_ms": (p90(lat[1024]) * 1e3 * scale, "ms"),
            "queries_per_s": (ratio(queries, sum(lat[64]) + sum(lat[1024])) / scale, "1/s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
        "scale": f"times scaled by {scale:.4f}, the run's median probe tick",
        "samples": {"L=64 queries": len(lat[64]), "L=1024 queries": len(lat[1024])},
        "digests": {f"first {DIGEST_BLOCKS * len(SLOTS)} query results": digest.hexdigest()},
    }


def trace(ctx, tally: Tally, tracer) -> dict:
    """Fixed work so call counts repeat: 24 blocks traced, 24 others untraced."""
    stream = QueryStream(ctx.seed)
    traced_blocks = [stream.next_block() for _ in range(TRACE_BLOCKS)]
    plain_blocks = [stream.next_block() for _ in range(TRACE_BLOCKS)]
    exec(WARMUP, {})
    plain = sum(dt for block in plain_blocks for _, dt, _ in run_block(block, tally))
    tracer.install()
    try:
        traced = sum(
            dt for block in traced_blocks for _, dt, _ in run_block(block, tally, tracer)
        )
    finally:
        tracer.uninstall()
    return {"trace.overhead_pct": (ratio(traced, plain) - 1.0) * 100.0}

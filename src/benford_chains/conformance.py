"""Digit statistics and Benford conformance tests.

Works on simulator batches and on external datasets alike.  The decision
rule is a one-sample KS-style comparison of the empirical mantissa CDF
against log_B s on a geometric grid, at the alpha = 0.01 critical value
1.63/sqrt(N), a level that holds at every N (see KS_ONE_SAMPLE_COEFF);
chi-square over first digits is reported for context but never drives
the decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._closed import _check_base, benford_cdf, benford_digit_prob
from .montecarlo import BLOCK_SIZE, _in_order, _mantissas

__all__ = [
    "DigitStats",
    "ConformanceReport",
    "benford_cdf",
    "benford_digit_prob",
    "digit_stats",
    "audit_dataset",
    "two_sample_ks",
    "KS_ONE_SAMPLE_COEFF",
    "KS_TWO_SAMPLE_COEFF",
]

# alpha = 0.01 coefficients c of the rule sup|F_N - F| > c/sqrt(N).  The
# one-sample level holds at every N, not only asymptotically: Massart (Ann.
# Probab. 18, 1990) gives P(sup|F_N - F| > eps) <= 2 exp(-2 N eps^2) for all
# N, so eps = sqrt(ln(200)/2)/sqrt(N) = 1.6276/sqrt(N) has level 0.01, 1.63
# lies above it, and a sup over grid points is at most the full sup.
KS_ONE_SAMPLE_COEFF = 1.63
# The two-sample rule sup|F_n - G_m| > c*(1/sqrt(n) + 1/sqrt(m)) has level
# at most 0.01 at every n and m: under a common F, sup|F_n - G_m| <=
# sup|F_n - F| + sup|G_m - F|, and Massart puts each above c/sqrt(its size)
# with probability at most 2 exp(-2 c^2) = 0.005 at c = sqrt(ln(400)/2) =
# 1.730818; 1.7309 lies above it.
KS_TWO_SAMPLE_COEFF = 1.7309

DEFAULT_GRID_SIZE = 1000


@dataclass(frozen=True)
class DigitStats:
    """First-digit counts and the empirical mantissa CDF on a geometric grid."""

    base: int
    count: int
    digit_counts: tuple[int, ...]
    mantissa_grid: tuple[float, ...] = field(repr=False)
    empirical_cdf: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        if sum(self.digit_counts) != self.count:
            raise ValueError("digit counts must sum to the sample count")


@dataclass(frozen=True)
class ConformanceReport:
    """Audit outcome: deviation, chi-square, and the KS decision."""

    stats: DigitStats
    skipped: int
    sup_deviation: float
    chi_square: float
    ks_critical: float
    conforms: bool
    bound_context: float | None
    bound_consistent: bool | None

    def to_json_dict(self) -> dict:
        """The exact report field set for machine-readable output."""
        n = self.stats.count
        return {
            "count": n,
            "skipped": self.skipped,
            "base": self.stats.base,
            "digit_frequencies": [c / n for c in self.stats.digit_counts],
            "benford_frequencies": [
                benford_digit_prob(d, self.stats.base) for d in range(1, self.stats.base)
            ],
            "sup_deviation": self.sup_deviation,
            "chi_square": self.chi_square,
            "ks_critical": self.ks_critical,
            "conforms": self.conforms,
            "bound_context": self.bound_context,
            "bound_consistent": self.bound_consistent,
        }


def digit_stats(values, base: int = 10, grid_size: int = DEFAULT_GRID_SIZE) -> DigitStats:
    """First-digit counts and the empirical mantissa CDF of a sample.

    The CDF is evaluated on the geometric grid s_j = base**(j/grid_size),
    j = 0..grid_size, whose last point is exactly the base.

    The values are read one block at a time, so the temporaries stay at
    the size of a block however long the sample is: the mantissas of each
    block are sorted, counted by first digit and searched for every grid
    point.  Each block but the last is a view of max(BLOCK_SIZE,
    grid_size + 1, base) values, so the grid search and the digit count
    cost no more than the sort; the digits are counted by a search at the
    edges of the digits present, so a block of few digits pays for few.
    The counts are integers, so the result does not depend on how the
    values are cut.  Two blocks are counted at a time, by the caller and a
    helper thread.
    """
    grid = _grid(base, grid_size)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a nonempty one-dimensional sequence")
    return _digit_stats((x,), base, grid, drop_bad=False)[0]


def _grid(base: int, grid_size) -> np.ndarray:
    _check_base(base, double=True)
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    grid = np.array([float(base) ** (j / grid_size) for j in range(grid_size + 1)])
    grid[0] = 1.0
    grid[-1] = float(base)
    return grid


def _benford_cdfs(grid, base: int) -> np.ndarray:
    """benford_cdf(s, base) at every s of grid, bit for bit, in one pass.

    The same formulas with the log of the base taken once; grid comes from
    _grid, which checked the base and keeps every point in [1, base].
    numpy's log10 and log differ from math's on some grid points, so the
    logs stay math's; numpy's divide rounds as Python's does.
    """
    if base == 10:
        return np.array(list(map(math.log10, grid)))
    return np.array(list(map(math.log, grid))) / math.log(base)


def _digit_stats(parts, base: int, grid: np.ndarray, drop_bad: bool):
    """digit_stats of the finite positive entries of parts, 1-D float64 arrays
    drawn in the calling thread, and how many other entries they hold.

    Each part is counted in views of a block or less, each checked once.
    Unless drop_bad, the first other entry raises ValueError; otherwise a
    dirty block is filtered on its own, so no mask spans a block.
    """
    step = max(BLOCK_SIZE, grid.size, base)
    if step > BLOCK_SIZE:
        # Each block pays a grid and a digit search of up to step points
        # however few values it holds.  When the grid or the base sets the
        # step, short parts (audit's, one per 1 MiB of CSV) are packed
        # into blocks of step values first, so the searches stay
        # ceil(n/step); at BLOCK_SIZE they cost no more than a block's
        # sort, and the parts are counted as they come.
        parts = _packed(parts, step)

    def blocks():  # (offset in all the parts, view)
        offset = 0
        for part in parts:
            yield from ((offset + i, part[i : i + step]) for i in range(0, part.size, step))
            offset += part.size

    def count(job):
        start, block = job
        ok = np.isfinite(block) & (block > 0.0)
        bad = block.size - int(np.count_nonzero(ok))
        if bad:
            if not drop_bad:
                i = int(np.flatnonzero(~ok)[0])
                raise ValueError(f"values[{start + i}] = {block[i]!r} is not a positive real")
            block = block[ok]
        mants = _mantissas(block, base)  # the block is checked above
        mants.sort()
        # The digits present run from floor(mants[0]) to floor(mants[-1]);
        # digit d counts the sorted mantissas below d + 1 less those below d.
        first, last = (int(mants[0]), int(mants[-1])) if mants.size else (1, 0)
        counts = np.diff(np.searchsorted(mants, np.arange(first + 1, last + 2)), prepend=0)
        return first, counts, np.searchsorted(mants, grid, side="right"), bad

    digits = np.zeros(base, dtype=np.int64)
    below = np.zeros(grid.size, dtype=np.int64)  # mantissas <= each grid point
    skipped = 0
    for first, counts, block_below, bad in _in_order(count, blocks()):
        digits[first : first + counts.size] += counts
        below += block_below
        skipped += bad
    n = int(digits.sum())  # every value kept has a first digit
    if n == 0:
        raise ValueError("no positive values left after filtering")
    stats = DigitStats(
        base=base,
        count=n,
        digit_counts=tuple(digits[1:].tolist()),
        mantissa_grid=tuple(grid.tolist()),
        empirical_cdf=tuple((below / n).tolist()),
    )
    return stats, skipped


def _packed(parts, size: int):
    """The values of parts, 1-D arrays, in arrays of size values, the last
    one shorter.

    A block that lies in one part is a view of it, so a single part comes
    out cut as blocks() cuts it; a block across parts is one copy of its
    pieces.  Fewer than size values are held between blocks.
    """
    held, count = [], 0
    for part in parts:
        while part.size:
            take, part = part[: size - count], part[size - count :]
            held.append(take)
            count += take.size
            if count == size:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [], 0
    if held:
        yield held[0] if len(held) == 1 else np.concatenate(held)


def audit_dataset(
    values,
    base: int = 10,
    bound_context: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ConformanceReport:
    """Benford conformance report for a (possibly dirty) dataset.

    Nonpositive and non-finite entries are dropped and counted, never
    fatal; an input with nothing left after filtering is an error.  When
    an analytic deviation bound is supplied (a number >= 0, +inf allowed,
    NaN not), the report also says whether the observed deviation is within
    that bound plus 3/sqrt(N) of Monte Carlo slack.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    return _audit(iter((x,)), base, bound_context, grid_size)


def _audit(parts, base: int, bound_context, grid_size) -> ConformanceReport:
    """audit_dataset of parts, an iterator of 1-D float64 arrays."""
    # The first part is drawn before the arguments are checked, so that an
    # input that cannot be opened, or has no such column, is reported first.
    drawn = iter([next(parts)])  # a list iterator lets go of its list once done
    if bound_context is not None and not float(bound_context) >= 0.0:
        raise ValueError(f"bound_context must be a number >= 0 or None, got {bound_context!r}")
    grid = _grid(base, grid_size)
    stats, skipped = _digit_stats(itertools.chain(drawn, parts), base, grid, drop_bad=True)
    n = stats.count
    theory = _benford_cdfs(stats.mantissa_grid, base)
    sup_dev = float(np.max(np.abs(np.asarray(stats.empirical_cdf) - theory)))

    expected = np.array([n * benford_digit_prob(d, base) for d in range(1, base)])
    observed = np.asarray(stats.digit_counts, dtype=float)
    chi_square = float(np.sum((observed - expected) ** 2 / expected))

    ks_critical = KS_ONE_SAMPLE_COEFF / math.sqrt(n)
    bound = None if bound_context is None else float(bound_context)
    consistent = None if bound is None else bool(sup_dev <= bound + 3.0 / math.sqrt(n))
    return ConformanceReport(
        stats=stats,
        skipped=skipped,
        sup_deviation=sup_dev,
        chi_square=chi_square,
        ks_critical=ks_critical,
        conforms=sup_dev <= ks_critical,
        bound_context=bound,
        bound_consistent=consistent,
    )


def two_sample_ks(a, b) -> tuple[float, bool]:
    """Sup distance of two empirical CDFs and the alpha = 0.01 decision.

    Rejects equality when the statistic exceeds
    1.7309 * (1/sqrt(n) + 1/sqrt(m)), a level of at most 0.01 at every n
    and m (see KS_TWO_SAMPLE_COEFF).  NaN or infinite values raise
    ValueError.
    """
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    # sorted, -inf comes first and +inf and NaN come last
    if not (np.isfinite(xa[[0, -1]]).all() and np.isfinite(xb[[0, -1]]).all()):
        raise ValueError("both samples must be finite: a NaN or infinite value was given")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    stat = float(np.max(np.abs(fa - fb)))
    crit = KS_TWO_SAMPLE_COEFF * (1.0 / math.sqrt(xa.size) + 1.0 / math.sqrt(xb.size))
    return stat, stat > crit

"""Digit statistics and Benford conformance tests.

Works on simulator batches and on external datasets alike.  The decision
rule is a one-sample KS-style comparison of the empirical mantissa CDF
against log_B s on a geometric grid, at the alpha = 0.01 critical value
1.63/sqrt(N), a level that holds at every N (see KS_ONE_SAMPLE_COEFF);
chi-square over first digits is reported for context but never drives
the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .montecarlo import _check_base, batch_mantissas

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
# Asymptotic two-sample value; all intended uses have N >= 1e4.
KS_TWO_SAMPLE_COEFF = 1.628

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


def benford_cdf(s: float, base: int = 10) -> float:
    """P(mantissa <= s) under the Benford law: log_base(s)."""
    _check_base(base)
    s = float(s)
    if not 1.0 <= s <= base:
        raise ValueError(f"s must lie in [1, {base}], got {s}")
    if base == 10:
        return math.log10(s)
    return math.log(s) / math.log(base)


def benford_digit_prob(d: int, base: int = 10) -> float:
    """P(first digit = d) under the Benford law: log_base(1 + 1/d)."""
    _check_base(base)
    if isinstance(d, bool) or not isinstance(d, int) or not 1 <= d <= base - 1:
        raise ValueError(f"digit must be an integer in [1, {base - 1}], got {d!r}")
    if base == 10:
        return math.log10(1.0 + 1.0 / d)
    return math.log1p(1.0 / d) / math.log(base)


def digit_stats(values, base: int = 10, grid_size: int = DEFAULT_GRID_SIZE) -> DigitStats:
    """First-digit counts and the empirical mantissa CDF of a sample.

    The CDF is evaluated on the geometric grid s_j = base**(j/grid_size),
    j = 0..grid_size, whose last point is exactly the base.
    """
    _check_base(base)
    if isinstance(grid_size, bool) or not isinstance(grid_size, int) or grid_size < 2:
        raise ValueError(f"grid_size must be an integer >= 2, got {grid_size!r}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a nonempty one-dimensional sequence")
    ok = np.isfinite(x) & (x > 0.0)
    if not ok.all():
        i = int(np.nonzero(~ok)[0][0])
        raise ValueError(f"values[{i}] = {x[i]!r} is not a positive real")

    mants = np.sort(batch_mantissas(x, base))
    digits = mants.astype(np.int64)
    counts = np.bincount(digits, minlength=base)[1:base]

    grid = np.array([float(base) ** (j / grid_size) for j in range(grid_size + 1)])
    grid[0] = 1.0
    grid[-1] = float(base)
    cdf = np.searchsorted(mants, grid, side="right") / x.size
    return DigitStats(
        base=base,
        count=int(x.size),
        digit_counts=tuple(int(c) for c in counts),
        mantissa_grid=tuple(grid.tolist()),
        empirical_cdf=tuple(cdf.tolist()),
    )


def audit_dataset(
    values,
    base: int = 10,
    bound_context: float | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> ConformanceReport:
    """Benford conformance report for a (possibly dirty) dataset.

    Nonpositive and non-finite entries are dropped and counted, never
    fatal; an input with nothing left after filtering is an error.  When
    an analytic deviation bound is supplied, the report also says whether
    the observed deviation is within that bound plus 3/sqrt(N) of Monte
    Carlo slack.
    """
    _check_base(base)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("values must be one-dimensional")
    keep = np.isfinite(x) & (x > 0.0)
    skipped = int(x.size - keep.sum())
    x = x[keep]
    if x.size == 0:
        raise ValueError("no positive values left after filtering")

    stats = digit_stats(x, base, grid_size)
    n = stats.count
    theory = np.array([benford_cdf(s, base) for s in stats.mantissa_grid])
    sup_dev = float(np.max(np.abs(np.asarray(stats.empirical_cdf) - theory)))

    expected = np.array([n * benford_digit_prob(d, base) for d in range(1, base)])
    observed = np.asarray(stats.digit_counts, dtype=float)
    chi_square = float(np.sum((observed - expected) ** 2 / expected))

    ks_critical = KS_ONE_SAMPLE_COEFF / math.sqrt(n)
    conforms = sup_dev <= ks_critical
    consistent = None
    if bound_context is not None:
        consistent = bool(sup_dev <= float(bound_context) + 3.0 / math.sqrt(n))
    return ConformanceReport(
        stats=stats,
        skipped=skipped,
        sup_deviation=sup_dev,
        chi_square=chi_square,
        ks_critical=ks_critical,
        conforms=conforms,
        bound_context=None if bound_context is None else float(bound_context),
        bound_consistent=consistent,
    )


def two_sample_ks(a, b) -> tuple[float, bool]:
    """Sup distance of two empirical CDFs and the alpha = 0.01 decision.

    Rejects equality when the statistic exceeds
    1.628 * sqrt((n + m)/(n * m)).
    """
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, pooled, side="right") / xa.size
    fb = np.searchsorted(xb, pooled, side="right") / xb.size
    stat = float(np.max(np.abs(fa - fb)))
    crit = KS_TWO_SAMPLE_COEFF * math.sqrt((xa.size + xb.size) / (xa.size * xb.size))
    return stat, stat > crit

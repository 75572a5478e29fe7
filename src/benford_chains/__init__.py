"""Convergence of chained scale-family distributions to Benford's law.

Analytic deviation bounds via Mellin-transform spectra, semi-analytic
fold probabilities via Poisson summation, reproducible Monte Carlo
simulation, and digit-conformance auditing.
"""

from .chains import (
    BoundResult,
    ChainLink,
    ChainSpec,
    ChainSpecError,
    FoldInterval,
    SpectrumCheckError,
    chain_spectrum,
    cumulative_powers,
    deviation_bound,
    exponential_chain_bound,
    first_digit_probabilities,
    fold_probability,
    load_chain,
    parse_chain,
    spectrum_majorant,
    uniform_chain_cdf_bound,
    uniform_chain_cdf_terms,
    uniform_chain_density,
)
from .conformance import (
    ConformanceReport,
    DigitStats,
    audit_dataset,
    benford_cdf,
    benford_digit_prob,
    digit_stats,
    two_sample_ks,
)
from .families import (
    FAMILY_NAMES,
    Family,
    get_family,
    mellin_at,
)
from .montecarlo import (
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
from .specfun import complex_gamma, gamma_abs_on_line, gamma_real, zeta_minus_one

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BLOCK_SIZE",
    "BoundResult",
    "ChainLink",
    "ChainSpec",
    "ChainSpecError",
    "ConformanceReport",
    "DigitStats",
    "FAMILY_NAMES",
    "Family",
    "FoldInterval",
    "RNG_ALGORITHM",
    "RngSeed",
    "SampleBatch",
    "SpectrumCheckError",
    "audit_dataset",
    "batch_mantissas",
    "benford_cdf",
    "benford_digit_prob",
    "chain_spectrum",
    "complex_gamma",
    "cumulative_powers",
    "deviation_bound",
    "digit_stats",
    "exponential_chain_bound",
    "first_digit",
    "first_digit_probabilities",
    "fold_probability",
    "gamma_abs_on_line",
    "gamma_real",
    "get_family",
    "load_chain",
    "make_rng",
    "mantissa",
    "mellin_at",
    "parse_chain",
    "product_batch",
    "sample_batch",
    "spectrum_majorant",
    "two_sample_ks",
    "uniform_chain_cdf_bound",
    "uniform_chain_cdf_terms",
    "uniform_chain_density",
    "zeta_minus_one",
]

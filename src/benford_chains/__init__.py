"""Convergence of chained scale-family distributions to Benford's law.

Analytic deviation bounds via Mellin-transform spectra, semi-analytic
fold probabilities via Poisson summation, reproducible Monte Carlo
simulation, and digit-conformance auditing.

Public names load on first use (PEP 562): importing the package imports
no submodule, and each name imports only the module that defines it, so
the closed forms, which come from the math-only _closed module, need no
numpy.  A resolved name is bound into the package namespace, so later
lookups are plain attribute hits.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule it is taken from.
_HOMES = {
    "BLOCK_SIZE": "montecarlo",
    "BoundResult": "chains",
    "ChainLink": "chains",
    "ChainSpec": "chains",
    "ChainSpecError": "_closed",
    "ConformanceReport": "conformance",
    "DigitStats": "conformance",
    "FAMILY_NAMES": "families",
    "Family": "families",
    "FoldInterval": "chains",
    "RNG_ALGORITHM": "_closed",
    "RngSeed": "montecarlo",
    "SampleBatch": "montecarlo",
    "SpectrumCheckError": "_closed",
    "arg_gamma": "specfun",
    "audit_dataset": "conformance",
    "batch_mantissas": "montecarlo",
    "benford_cdf": "_closed",
    "benford_digit_prob": "_closed",
    "chain_spectrum": "chains",
    "cumulative_powers": "chains",
    "deviation_bound": "chains",
    "digit_stats": "conformance",
    "exponential_chain_bound": "_closed",
    "first_digit": "montecarlo",
    "first_digit_probabilities": "chains",
    "fold_probability": "chains",
    "gamma_abs_on_line": "specfun",
    "gamma_real": "_closed",
    "get_family": "families",
    "load_chain": "chains",
    "make_rng": "montecarlo",
    "mantissa": "montecarlo",
    "mellin_at": "families",
    "parse_chain": "chains",
    "product_batch": "montecarlo",
    "sample_batch": "montecarlo",
    "two_sample_ks": "conformance",
    "uniform_chain_cdf_bound": "_closed",
    "uniform_chain_cdf_terms": "_closed",
    "uniform_chain_density": "_closed",
    "zeta_minus_one": "_closed",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _HOMES.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Traced run support: wrap the package's public functions where each layer
looks them up, and fold the resulting spans into per-name aggregates.

Patching happens in the benchmark process only and is undone on exit.  A
target that no longer exists is listed in ``absent`` instead of failing.

An L = 1024 digits query opens about 10^5 nested spans, so nested spans are
folded into per-name (calls, total, self) aggregates as they close; only the
outermost spans (one per benchmark operation) are kept whole.  Self time is
a span's duration minus the durations of its direct children, which in a
single thread is exactly the part of the interval child spans cover.  Time
spent in probes (counters computed from arguments and results) is excluded
from every enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time

import numpy as np

FAMILY_METHODS = ("majorant", "majorant_tail_profile", "sample_unit_batch")

# span name -> "module:attribute" lookups to patch.  Family methods are
# added per subclass of ScaleFamily that defines them.
TARGETS = {
    "specfun.complex_gamma": ["benford_chains.families:complex_gamma"],
    "specfun.gamma_abs_on_line": ["benford_chains.families:gamma_abs_on_line"],
    "families.mellin_at": ["benford_chains.chains:mellin_at"],
    "chains.chain_spectrum": ["benford_chains.chains:chain_spectrum"],
    "chains.deviation_bound": ["benford_chains:deviation_bound", "benford_chains.cli:deviation_bound"],
    "chains.fold_probability": [
        "benford_chains:fold_probability",
        "benford_chains.chains:fold_probability",
        "benford_chains.cli:fold_probability",
    ],
    "chains.first_digit_probabilities": [
        "benford_chains:first_digit_probabilities",
        "benford_chains.cli:first_digit_probabilities",
    ],
    "chains.load_chain": ["benford_chains.cli:load_chain"],
    "montecarlo.make_rng": ["benford_chains.montecarlo:make_rng"],
    "montecarlo.sample_batch": ["benford_chains:sample_batch", "benford_chains.cli:sample_batch"],
    "montecarlo.batch_mantissas": [
        "benford_chains:batch_mantissas",
        "benford_chains.conformance:batch_mantissas",
        "benford_chains.cli:batch_mantissas",
    ],
    "conformance.digit_stats": ["benford_chains.conformance:digit_stats"],
    "conformance.audit_dataset": ["benford_chains:audit_dataset", "benford_chains.cli:audit_dataset"],
    "conformance.benford_cdf": ["benford_chains.conformance:benford_cdf"],
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _probe_spectrum(tracer, args, kwargs, result):
    tracer.spectrum_keys.add((_arg(args, kwargs, 0, "chain"), _arg(args, kwargs, 1, "ell")))


def _probe_sample_batch(tracer, args, kwargs, result):
    tracer.add("montecarlo.requested", _arg(args, kwargs, 1, "count"))
    tracer.add("montecarlo.failures", result.failures)


def _probe_mantissas(tracer, args, kwargs, result):
    x = np.asarray(_arg(args, kwargs, 0, "values"), dtype=float)
    base = _arg(args, kwargs, 1, "base", 10)
    e = np.floor(np.log10(x) if base == 10 else np.log(x) / math.log(base))
    tracer.add("montecarlo.batch_mantissas.calls_probed", 1)
    tracer.add("montecarlo.batch_mantissas.exponents", np.unique(e).size)


PROBES = {
    "chains.chain_spectrum": _probe_spectrum,
    "montecarlo.sample_batch": _probe_sample_batch,
    "montecarlo.batch_mantissas": _probe_mantissas,
}


def _resolve(target: str):
    module_name, attr = target.split(":")
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Spans for one traced run; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, int, int]] = []
        self.spectrum_keys: set = set()
        self.absent: list[str] = []
        self.active = False
        self._stack: list[list] = []
        self._probe_ns = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def install(self, targets=None) -> None:
        """Patch ``targets`` (default: every layer's public functions)."""
        if targets is None:
            targets = {**TARGETS, **self._family_targets()}
        for name, lookups in targets.items():
            for target in lookups:
                try:
                    owner, leaf = _resolve(target)
                    original = inspect.getattr_static(owner, leaf)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                probe = PROBES.get(name)
                if isinstance(original, (staticmethod, classmethod)):
                    patched = type(original)(self._wrap(original.__func__, name, probe))
                else:
                    patched = self._wrap(original, name, probe)
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, patched)
        self.active = True

    def _family_targets(self) -> dict:
        try:
            base = importlib.import_module("benford_chains.families").ScaleFamily
        except (ImportError, AttributeError):
            self.absent.append("benford_chains.families:ScaleFamily")
            return {}
        out = {}
        for method in FAMILY_METHODS:
            out[f"families.{method}"] = [
                f"benford_chains.families:{cls.__name__}.{method}"
                for cls in base.__subclasses__()
                if method in vars(cls)
            ]
        return out

    def uninstall(self) -> None:
        self.active = False
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def _wrap(self, fn, name, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if probe is not None:
                t0 = time.perf_counter_ns()
                probe(tracer, args, kwargs, result)
                tracer._probe_ns += time.perf_counter_ns() - t0
            return result

        return wrapper

    # -- spans ------------------------------------------------------------
    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0, self._probe_ns])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, probe_at_entry = self._stack.pop()
        duration = end - start - (self._probe_ns - probe_at_entry)
        agg = self.stats.setdefault(name, [0, 0, 0])
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.spans.append((name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextlib.contextmanager
    def paused(self):
        """Calls made while checking outputs are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- results ----------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e6

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def layer_metrics(self) -> dict:
        """Per-layer metrics that come from spans and probes."""
        spectrum_calls = self.calls("chains.chain_spectrum")
        requested = self.counters.get("montecarlo.requested", 0)
        probed = self.counters.get("montecarlo.batch_mantissas.calls_probed", 0)
        out = {}
        for name in (
            "specfun.complex_gamma",
            "specfun.gamma_abs_on_line",
            "families.mellin_at",
            "families.majorant",
            "chains.chain_spectrum",
            "montecarlo.make_rng",
        ):
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_ms"] = self.self_ms(name)
        for name in ("families.majorant_tail_profile", "conformance.benford_cdf"):
            out[f"{name}.calls"] = self.calls(name)
        for name in (
            "chains.deviation_bound",
            "chains.fold_probability",
            "chains.first_digit_probabilities",
            "families.sample_unit_batch",
            "montecarlo.sample_batch",
            "montecarlo.batch_mantissas",
            "conformance.digit_stats",
            "conformance.audit_dataset",
        ):
            out[f"{name}.self_ms"] = self.self_ms(name)
        out["chains.spectrum_unique_ratio"] = (
            len(self.spectrum_keys) / spectrum_calls if spectrum_calls else 0.0
        )
        out["montecarlo.lane_failure_ratio"] = (
            self.counters.get("montecarlo.failures", 0) / requested if requested else 0.0
        )
        out["montecarlo.batch_mantissas.distinct_exponents"] = (
            self.counters.get("montecarlo.batch_mantissas.exponents", 0) / probed if probed else 0.0
        )
        return out

    def dump(self) -> dict:
        """Everything recorded, for the results file."""
        return {
            "aggregates": {
                name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "counters": self.counters,
            "operation_spans": [
                {"name": n, "start_ns": s, "end_ns": e} for n, s, e in self.spans
            ],
            "absent": self.absent,
        }

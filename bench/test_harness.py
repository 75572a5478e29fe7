"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
if str(BENCH.parent / "src") not in sys.path:
    sys.path.insert(0, str(BENCH.parent / "src"))

import benford_chains as bc  # noqa: E402

import analytic  # noqa: E402
import sampling  # noqa: E402
from harness import SpeedProbe, Tally, _import_cost_us  # noqa: E402
from tracer import Tracer  # noqa: E402


def _query(kind: str, family: str = "exponential") -> analytic.Query:
    chain = bc.ChainSpec(
        10,
        (bc.ChainLink("exponential", 1), bc.ChainLink(family, 2), bc.ChainLink("uniform", 3)),
    )
    return analytic.Query(kind, 64, chain, bc.FoldInterval(0.1, 0.6))


def test_correct_analytic_results_pass():
    for family in ("exponential", "benford"):
        block = [_query(kind, family) for kind in analytic.KINDS]
        tally = Tally()
        assert len(list(analytic.run_block(block, tally))) == 3
        assert (tally.attempted, tally.failed) == (3, 0), tally.problems


def test_injected_perturbed_result_counts_as_failed(monkeypatch):
    real = analytic.call

    def perturbed(q):
        result = real(q)
        if q.kind == "fold":
            return result[0] + 0.01, result[1]
        return result

    monkeypatch.setattr(analytic, "call", perturbed)
    tally = Tally()
    passed = list(analytic.run_block([_query("fold"), _query("bound")], tally))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert [q.kind for q, _, _ in passed] == ["bound"]


def test_perturbed_digits_and_benford_results_fail():
    q = _query("digits")
    probs = analytic.call(q)
    probs[0] += 1e-6
    assert analytic.check(q, probs)
    q = _query("fold", "benford")
    p, err = analytic.call(q)
    assert analytic.check(q, (p + 1e-9, err))


def test_digit_shifts_that_keep_the_sum_fail():
    q = _query("digits")
    probs = analytic.call(q)
    probs[4] += 1e-4
    probs[5] -= 1e-4
    assert analytic.check(q, probs)
    # A one-link uniform chain has an infinite bound, so only the
    # comparison with fold_probability can catch the shift.
    chain = bc.ChainSpec(10, (bc.ChainLink("uniform", 1),))
    q = analytic.Query("digits", 64, chain, bc.FoldInterval(0.1, 0.6))
    probs = analytic.call(q)
    assert analytic.check(q, probs) == []
    probs[0] += 1e-6
    probs[1] -= 1e-6
    assert analytic.check(q, probs)


def test_a_run_whose_every_query_fails_still_reports(monkeypatch):
    def broken(q):
        raise RuntimeError("broken")

    monkeypatch.setattr(analytic, "call", broken)
    tally = Tally()
    ctx = types.SimpleNamespace(seed=1, seconds=0.05)
    result = analytic.measure(ctx, tally, SpeedProbe())
    assert tally.attempted > 0 and tally.failed == tally.attempted
    for name, _ in analytic.E2E_SLOTS.values():
        assert math.isnan(result["metrics"][name][0]), name


def test_sampling_checks_catch_a_lost_lane():
    chain = sampling.chains()[0]
    batch = bc.sample_batch(chain, sampling.DRAWS, 3)
    report = bc.audit_dataset(batch.values, chain.base)
    assert sampling.check_job(chain, batch, report) == []
    short = bc.SampleBatch(chain, batch.seed, batch.values[:-1], batch.count - 1, batch.failures)
    assert sampling.check_job(chain, short, report)


def test_tracer_self_time_restore_and_absent_names():
    layer = types.ModuleType("fake_layer")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        layer.inner()

    layer.inner, layer.outer = inner, outer
    sys.modules["fake_layer"] = layer
    tracer = Tracer()
    try:
        tracer.install({
            "x.outer": ["fake_layer:outer"],
            "x.inner": ["fake_layer:inner"],
            "x.gone": ["fake_layer:missing", "no_such_module_here:f"],
        })
        with tracer.span("op"):
            layer.outer()
        with tracer.paused():
            layer.outer()
    finally:
        tracer.uninstall()
        del sys.modules["fake_layer"]
    assert layer.outer is outer and layer.inner is inner
    assert tracer.calls("x.outer") == tracer.calls("x.inner") == 1
    assert tracer.self_ms("x.inner") >= 20 and tracer.self_ms("x.outer") >= 10
    outer_calls, outer_total, outer_self = tracer.stats["x.outer"]
    assert outer_total - outer_self == tracer.stats["x.inner"][1]
    assert tracer.self_ms("op") < 5
    assert tracer.absent == ["fake_layer:missing", "no_such_module_here:f"]


def test_import_cost_counts_outermost_lines_of_a_module():
    lines = [  # post-order, as `-X importtime` prints them
        (4, 250, "scipy.special"),
        (2, 300, "scipy.integrate._quadrature"),
        (2, 20, "scipy.integrate._ode"),
        (2, 5, "benford_chains.specfun"),
        (0, 400, "benford_chains.families"),
    ]
    assert _import_cost_us(lines, "scipy.integrate") == 320
    assert _import_cost_us(lines, "scipy.special") == 250
    assert _import_cost_us(lines, "benford_chains") == 400
    assert _import_cost_us(lines, "scipy.linalg") == 0


def test_fails_without_printing_a_result_where_there_are_no_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

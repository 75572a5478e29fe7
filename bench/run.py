"""Benchmark of benford-chains: analytic, sampling and CLI workloads.

    python3 bench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Human-readable lines (every metric by name, with its
unit and sample count, machine facts and output digests) come first; the
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics,
`--trace 1` runs a fixed amount of work with the package's public
functions wrapped and reports the per-layer metrics.  A full record of
each run is written to `bench/out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import harness

# Before numpy is imported here or in any child: one thread per library.
for _var in harness.THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def _declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass(frozen=True)
class Context:
    root: Path
    out_dir: Path
    seed: int
    seconds: float


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analytic", "sampling", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """The checkout's own benford_chains, never an installed copy."""
    if not (SRC / "benford_chains" / "__init__.py").is_file():
        raise ImportError(f"no benford_chains sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import benford_chains

    if Path(benford_chains.__file__).resolve().parent != SRC / "benford_chains":
        raise ImportError(f"benford_chains imported from {benford_chains.__file__}")
    return benford_chains


def _baseline_digests(workload: str, seed: int, trace: int):
    try:
        with open(BENCH / "baseline.json", encoding="utf-8") as fh:
            runs = json.load(fh)["digests"]
    except (OSError, KeyError, ValueError):
        return None
    return runs.get(f"{workload}/seed{seed}/trace{trace}")


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot benchmark this directory: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)

    import analytic
    import cli_load
    import sampling
    from tracer import Tracer

    workload = {"analytic": analytic, "sampling": sampling, "cli": cli_load}[args.workload]
    ctx = Context(root=ROOT, out_dir=OUT, seed=args.seed, seconds=args.seconds)
    tally = harness.Tally()
    machine = harness.machine_facts()
    record = {"args": vars(args), "machine": machine}

    if args.trace:
        tracer = Tracer()
        imports = harness.import_seconds(ROOT, tally)
        extra = workload.trace(ctx, tally, tracer)
        layer = tracer.layer_metrics()
        layer["import.benford_chains_s"] = imports["benford_chains"]
        layer["import.scipy_special_s"] = imports["scipy.special"]
        layer["import.scipy_integrate_s"] = imports["scipy.integrate"]
        layer.update(extra)
        metrics = {
            name: {"value": layer.get(name, 0), "unit": unit}
            for name, unit in _declared("per_layer").items()
        }
        lines = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
        record["trace"] = tracer.dump()
        if tracer.absent:
            lines.append(("absent wrapped names", ", ".join(tracer.absent), "", ""))
    else:
        setup = harness.setup_seconds(workload.WARMUP, ROOT, tally)
        probe = harness.SpeedProbe()
        result = workload.measure(ctx, tally, probe)
        named = dict(result["metrics"])
        named["setup_s"] = (setup, "s")
        named["failed_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
        slots = dict(workload.E2E_SLOTS, setup_s=("setup_s", 1.0), peak_rss_mib=("peak_rss_mib", 1.0))
        units = _declared("end_to_end")
        metrics = {
            slot: {"value": named[name][0] * factor, "unit": units[slot]}
            for slot, (name, factor) in slots.items()
        }
        slot_of = {name: slot for slot, (name, _) in slots.items()}
        lines = [
            (name, value, unit, f"[{slot_of[name]}]" if name in slot_of else "")
            for name, (value, unit) in named.items()
        ]
        lines.append(("reference speed", result["scale"], "", ""))
        record["probe_ticks"] = probe.ticks
        lines += [(f"samples: {k}", v, "", "") for k, v in result["samples"].items()]
        record["digests"] = result["digests"]
        record["walls"] = result.get("walls")
        baseline = _baseline_digests(args.workload, args.seed, args.trace)
        verdict = "not recorded" if baseline is None else (
            "same" if baseline == result["digests"] else "differs (reported, not failed)"
        )
        lines.append(("output digests vs baseline.json", verdict, "", ""))

    record.update(
        metrics=metrics, attempted=tally.attempted, failed=tally.failed, problems=tally.problems
    )
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, value, unit, note in lines:
        print(f"{name} = {value} {unit} {note}".rstrip())
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for m in metrics.values():
        if isinstance(m["value"], float) and not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

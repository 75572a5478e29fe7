"""Workload `cli`: `python -m benford_chains.cli` children, one at a time.

A round runs six short commands (`bound`, `fold`, `digits --lmax 64`,
`bound-exp`, `bound-uniform`, `density-uniform`), then `simulate
--samples 250000` to a CSV of about 12 MB, an `audit` of that CSV, and an
`audit` of a dirty CSV made at set-up (a few per cent blank, text,
negative and NaN cells, plus `#` lines).  Short commands are almost all
interpreter start and scipy import; the bulk commands spend about half
their time in `.17g` formatting and Python CSV parsing.  The dirty input is
there so a fast parse path for clean files cannot hide a slower tolerant
fallback.

Bulk commands use 250000 rows, not 1e6: at 1e6 a 30-second run holds only
two or three of each, and their means spread by 0.15 to 0.3 from run to
run on the reference machine.
"""

from __future__ import annotations

import io
import itertools
import json
import random
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import benford_chains as bc
import benford_chains.cli as bc_cli

from harness import Child, Digests, SpeedProbe, Tally, file_sha256, mean, p50, ratio, run_child, sha256

WARMUP = (
    "import io; from benford_chains.cli import main; "
    "main(['bound-exp', '--n', '3'], out=io.StringIO())"
)

SAMPLES = 250_000
SIM_CHAIN = {
    "base": 10,
    "links": [
        {"family": "exponential", "power": 1},
        {"family": "exponential", "power": 2},
        {"family": "half_gaussian", "power": 3},
    ],
}
DIRTY_SHARE = 0.01  # of each kind of bad cell
DIRTY_COMMENT_EVERY = 10_000
CHECKED_ROWS = 1000

E2E_SLOTS = {
    "lat1_ms": ("short_cmd_p50_s", 1e3),
    "lat2_ms": ("simulate_s", 1e3),
    "lat3_ms": ("audit_s", 1e3),
    "lat4_ms": ("audit_dirty_s", 1e3),
    "throughput_per_s": ("commands_per_s", 1.0),
}


class Inputs:
    """Files, command lines and expected outputs of one run, from the seed.

    The files and expected outputs are made by `prepare` in a child
    process: a child's peak RSS as the kernel reports it includes the peak
    of the process that spawned it, so the harness itself must stay small.
    """

    def __init__(self, root: Path, out_dir: Path, seed: int):
        rng = random.Random(seed)
        self.root, self.seed = root, seed
        self.dir = out_dir / f"cli-seed{seed}"
        rel = self.dir.relative_to(root)
        self.chain_path = str(rel / "chain.json")
        self.sim_chain_path = str(rel / "sim_chain.json")
        self.sim_csv = str(rel / "simulate.csv")
        self.dirty_csv = str(rel / "dirty.csv")
        self.expected_path = self.dir / "expected.json"

        families = ("exponential", "uniform", "half_gaussian")
        self.chain = {
            "base": rng.choice((3, 10, 16)),
            "links": [{"family": rng.choice(families), "power": 1}]
            + [{"family": rng.choice(families), "power": rng.choice((-3, -2, 2, 3))} for _ in range(2)],
        }
        a, b = sorted(round(rng.random(), 6) for _ in range(2))
        n = rng.randint(2, 6)
        k = round(rng.uniform(1.0, 9.0), 6)
        s = round(rng.uniform(1.0, 9.0), 6)
        self.short = {
            "bound": ["bound", "--chain", self.chain_path, "--a", str(a), "--b", str(b)],
            "fold": ["fold", "--chain", self.chain_path, "--a", str(a), "--b", str(b)],
            "digits": ["digits", "--chain", self.chain_path, "--lmax", "64"],
            "bound-exp": ["bound-exp", "--n", str(n), "--base", str(self.chain["base"])],
            "bound-uniform": ["bound-uniform", "--n", str(n), "--k", str(k), "--s", str(s)],
            "density-uniform": ["density-uniform", "--n", str(n), "--k", str(k)],
        }
        self.simulate = ["simulate", "--chain", self.sim_chain_path, "--samples", str(SAMPLES),
                         "--seed", str(seed), "--out", self.sim_csv]
        self.audit = ["audit", "--input", self.sim_csv, "--column", "value"]
        self.audit_dirty = ["audit", "--input", self.dirty_csv, "--column", "value"]
        self.expected: dict = {}

    def make(self, tally: Tally) -> None:
        """Make the files and expected outputs in a child, then load them."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        child = run_child([__file__, str(self.root), str(self.dir.parent), str(self.seed)], self.root)
        if not tally.record("set-up", child.problems()):
            raise RuntimeError("the cli inputs could not be made")
        self.expected = json.loads(self.expected_path.read_text(encoding="utf-8"))

    def prepare(self) -> None:
        """Child side of `make`: every expected output is computed in process."""
        (self.dir / "chain.json").write_text(json.dumps(self.chain), encoding="utf-8")
        (self.dir / "sim_chain.json").write_text(json.dumps(SIM_CHAIN), encoding="utf-8")
        spec = bc.parse_chain(SIM_CHAIN)
        batch = bc.sample_batch(spec, SAMPLES, self.seed)
        expected = {
            "short_stdout": {name: in_process(argv)[1] for name, argv in self.short.items()},
            "count": batch.count,
            "head": batch.values[:CHECKED_ROWS].tolist(),
            "audit": report_dict(bc.audit_dataset(batch.values, spec.base)),
            "audit_dirty": report_dict(bc.audit_dataset(self._write_dirty(spec), spec.base)),
        }
        self.expected_path.write_text(json.dumps(expected), encoding="utf-8")

    def _write_dirty(self, spec) -> np.ndarray:
        values = bc.sample_batch(spec, SAMPLES, self.seed, stream=1).values
        kind = np.random.default_rng(self.seed).random(values.size)
        expected = values.copy()
        lines = ["# dirty input: blank, text, negative and NaN cells", "index,value"]
        for i, (v, u) in enumerate(zip(values.tolist(), kind.tolist())):
            if i % DIRTY_COMMENT_EVERY == 0:
                lines.append(f"# row {i}")
            if u < DIRTY_SHARE:
                cell, expected[i] = "", np.nan
            elif u < 2 * DIRTY_SHARE:
                cell, expected[i] = "n/a", np.nan
            elif u < 3 * DIRTY_SHARE:
                cell, expected[i] = repr(-v), -v
            elif u < 4 * DIRTY_SHARE:
                cell, expected[i] = "nan", np.nan
            else:
                cell = repr(v)
            lines.append(f"{i},{cell}")
        with open(self.root / self.dirty_csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return expected

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def report_dict(report) -> dict:
    """The audit report as it reads back from the CLI's JSON."""
    return json.loads(json.dumps(report.to_json_dict()))


def in_process(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = bc_cli.main(list(argv), out=out)
    return code, out.getvalue()


def cli(argv) -> Child:
    return run_child(["-m", "benford_chains.cli", *argv], cwd=None)


def check_simulate(inputs, child: Child) -> list[str]:
    out = json.loads(child.stdout)
    problems = []
    if out["count"] + out["failures"] != out["requested"] or out["requested"] != SAMPLES:
        problems.append(f"count {out['count']} + failures {out['failures']} != {SAMPLES}")
    if out["count"] != inputs.expected["count"]:
        problems.append(f"count {out['count']} != in-process {inputs.expected['count']}")
    with open(inputs.sim_csv, encoding="utf-8") as fh:
        rows = (line.split(",") for line in fh if not line.startswith("#"))
        head = np.array([float(r[1]) for r in itertools.islice(rows, 1, CHECKED_ROWS + 1)])
    if not np.array_equal(head, inputs.expected["head"][: head.size]):
        problems.append(f"first {CHECKED_ROWS} CSV values differ from in-process sample_batch")
    return problems


def check_audit(expected: dict, child: Child) -> list[str]:
    got = json.loads(child.stdout)["report"]
    return [] if got == expected else ["audit JSON differs from in-process audit_dataset"]


def run_round(inputs, tally: Tally, digests: Digests, probe: SpeedProbe):
    """One round of every command; yields (name, child, probe scale) for passes."""
    steps = [(name, argv, None) for name, argv in inputs.short.items()] + [
        ("simulate", inputs.simulate, check_simulate),
        ("audit", inputs.audit, lambda i, p: check_audit(i.expected["audit"], p)),
        ("audit_dirty", inputs.audit_dirty, lambda i, p: check_audit(i.expected["audit_dirty"], p)),
    ]
    for name, argv, checker in steps:
        start = len(probe.ticks)
        for _ in range(3):
            probe.tick()
        try:
            child = cli(argv)
            for _ in range(3):
                probe.tick()
            if child.returncode != 0:
                problems = child.problems()
            elif checker is None:
                problems = [] if child.stdout == inputs.expected["short_stdout"][name].encode() else [
                    "stdout differs from in-process main()"
                ]
            else:
                problems = checker(inputs, child)
            problems += digests.check(f"{name} stdout", sha256(child.stdout))
            if name == "simulate":
                problems += digests.check("simulate CSV", file_sha256(inputs.sim_csv))
        except Exception as exc:  # a failing command is counted, the run goes on
            tally.crash(name, exc)
            continue
        if tally.record(name, problems):
            yield name, child, probe.scale(since=start)


def measure(ctx, tally: Tally, probe: SpeedProbe) -> dict:
    inputs = Inputs(ctx.root, ctx.out_dir, ctx.seed)
    digests = Digests()
    walls: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    peak_rss = 0.0
    try:
        inputs.make(tally)
        deadline = time.perf_counter() + ctx.seconds
        while time.perf_counter() < deadline:
            for name, child, scale in run_round(inputs, tally, digests, probe):
                walls.setdefault(name, []).append(child.wall_s)
                scaled.setdefault(name, []).append(child.wall_s * scale)
                peak_rss = max(peak_rss, child.peak_rss_mib)
    finally:
        inputs.remove()
    short = [w for name in inputs.short for w in scaled.get(name, [])]
    every = [w for ws in scaled.values() for w in ws]
    return {
        "metrics": {
            "short_cmd_p50_s": (p50(short), "s"),
            "simulate_s": (mean(scaled.get("simulate", [])), "s"),
            "audit_s": (mean(scaled.get("audit", [])), "s"),
            "audit_dirty_s": (mean(scaled.get("audit_dirty", [])), "s"),
            "commands_per_s": (ratio(len(every), sum(every)), "1/s"),
            "peak_rss_mib": (peak_rss, "MiB"),
        },
        "scale": "each command's wall scaled by the median of the 3 probe ticks before and the 3 after it",
        "samples": {"short commands": len(short), "rounds": len(scaled.get("simulate", []))},
        "digests": dict(sorted(digests.first.items())),
        "walls": walls,
    }


def trace(ctx, tally: Tally, tracer) -> dict:
    """Fixed work: each command once as a child, then in process untraced
    and traced; the CLI layer numbers come from the in-process calls."""
    inputs = Inputs(ctx.root, ctx.out_dir, ctx.seed)
    try:
        inputs.make(tally)
        commands = dict(inputs.short)
        commands.update(simulate=inputs.simulate, audit=inputs.audit, audit_dirty=inputs.audit_dirty)
        startup, compute = [], []
        for name, argv in inputs.short.items():
            child = cli(argv)
            tally.record(name, child.problems())
            t0 = time.perf_counter()
            in_process(argv)
            dt = time.perf_counter() - t0
            startup.append(child.wall_s - dt)
            compute.append(dt)
        plain = traced = 0.0
        reports = {}
        for name, argv in commands.items():
            t0 = time.perf_counter()
            in_process(argv)
            plain += time.perf_counter() - t0
        tracer.install()
        try:
            for name, argv in commands.items():
                span = name if name in ("simulate", "audit", "audit_dirty") else "short"
                with tracer.span(f"cli.main.{span}"):
                    t0 = time.perf_counter()
                    code, stdout = in_process(argv)
                    traced += time.perf_counter() - t0
                with tracer.paused():
                    passed = tally.record(name, [] if code == 0 else [f"exit {code}"])
                    if passed and name.startswith("audit"):
                        reports[name] = json.loads(stdout)["report"]
        finally:
            tracer.uninstall()
        rows = [r["count"] + r["skipped"] for r in reports.values()]
        return {
            "trace.overhead_pct": (ratio(traced, plain) - 1.0) * 100.0,
            "cli.startup_s": p50(startup),
            "cli.short.compute_ms": p50(compute) * 1e3,
            "cli.simulate.format_write_s": tracer.self_s("cli.main.simulate"),
            "cli.simulate.bytes_written": (ctx.root / inputs.sim_csv).stat().st_size,
            "cli.audit.parse_s": tracer.self_s("cli.main.audit"),
            "cli.audit_dirty.parse_s": tracer.self_s("cli.main.audit_dirty"),
            "cli.audit.rows_parsed": sum(rows),
            "cli.audit.rows_skipped": sum(r["skipped"] for r in reports.values()),
        }
    finally:
        inputs.remove()


if __name__ == "__main__":
    Inputs(Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])).prepare()

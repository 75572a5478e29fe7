"""Shared pieces of the benchmark: failure tally, statistics, child processes.

Everything here times the program from outside: in-process calls are timed
around public functions, child interpreters from spawn to exit.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

# Limits each child interpreter, so a hung child cannot hang the run.
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Modules whose cumulative import time the traced run reports.
IMPORTED = ("benford_chains", "scipy.special", "scipy.integrate")
# Problems kept for the report; the counts cover every failure.
KEPT_PROBLEMS = 20


class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems) -> bool:
        """Count one operation; returns True when it passed every check."""
        problems = list(problems)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < KEPT_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def crash(self, what: str, exc: BaseException) -> None:
        self.record(what, [f"raised {type(exc).__name__}: {exc}"])


class Digests:
    """sha256 of each named output; a name whose bytes change within a run fails."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def check(self, name: str, digest: str) -> list[str]:
        seen = self.first.setdefault(name, digest)
        if seen != digest:
            return [f"output digest of {name} changed within the run"]
        return []

    def combined(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.first):
            h.update(f"{name}={self.first[name]}\n".encode())
        return h.hexdigest()


class SpeedProbe:
    """How fast this machine runs right now: fixed work timed between operations.

    The reference machine is a VM shared with other tenants, where the same
    code runs up to 30% slower from one minute to the next.  A tick times a
    pure-Python loop plus numpy `log10` and an in-place sort into
    preallocated buffers, about 2.5 ms of work that depends neither on the
    program nor on what it left in the allocator.  Times multiplied by
    `REFERENCE_S` / (probe time) read as times on the reference machine at
    its usual speed, and drift far less from run to run.
    """

    REFERENCE_S = 2.5e-3  # median tick on the reference machine

    def __init__(self):
        import numpy as np

        self._x = np.random.default_rng(0).random(100_000) + 0.5
        self._y = np.empty_like(self._x)
        self.ticks: list[float] = []

    def tick(self) -> None:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        np.log10(self._x, out=self._y)
        self._y.sort()
        self.ticks.append(time.perf_counter() - t0)

    def scale(self, since: int = 0) -> float:
        """Reference over the median of the ticks from index ``since`` on."""
        return self.REFERENCE_S / statistics.median(self.ticks[since:])


# Statistics of operations that passed; NaN (printed as null) when too few
# passed, so a run whose every operation of one kind failed still reports.
def p50(values) -> float:
    return statistics.median(values) if values else math.nan


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else math.nan


def mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def sha256(data) -> str:
    """Digest of bytes or of a contiguous array's buffer, without a copy."""
    return hashlib.sha256(data).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class Child:
    """A finished child interpreter."""

    wall_s: float
    returncode: int
    stdout: bytes
    stderr: bytes
    peak_rss_mib: float

    def problems(self) -> list[str]:
        if self.returncode == 0:
            return []
        return [f"exit code {self.returncode}: {self.stderr.decode(errors='replace')[-300:]}"]


def run_child(args, cwd) -> Child:
    """Run one child interpreter to completion, timed from spawn to exit.

    Children inherit the environment run.py set: PYTHONPATH at the
    checkout's sources and one thread per numeric library.  The child is
    reaped with wait4 to read its own peak RSS; the kernel counts the
    spawning process's peak in it too, so keep the harness small.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, proc.returncode, out, err[0], usage.ru_maxrss / 1024.0)


def setup_seconds(code: str, cwd, tally: Tally) -> float:
    """Median wall time of fresh interpreters that import and warm up once."""
    walls = []
    for _ in range(SETUP_REPEATS):
        child = run_child(["-c", code], cwd)
        if tally.record("setup", child.problems()):
            walls.append(child.wall_s)
    return p50(walls)


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")


def _import_cost_us(lines, module: str) -> int:
    """Cumulative import time of ``module`` and its submodules, in us.

    Lines come in post-order, deeper imports indented further.  Every line
    for the module or one of its submodules that no other such line
    encloses counts: a lazily imported package (scipy's subpackages) gets
    no line of its own, only lines for its submodules.
    """
    total = 0
    stack = []  # (indent, enclosed by a line of the module)
    for indent, cumulative, name in reversed(lines):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        hit = name == module or name.startswith(module + ".")
        if hit and not inside:
            total += cumulative
        stack.append((indent, inside or hit))
    return total


def import_seconds(cwd, tally: Tally) -> dict:
    """Median cumulative import time of each of IMPORTED in `-X importtime` children.

    A module the package does not import reads 0.
    """
    samples = {m: [] for m in IMPORTED}
    for _ in range(IMPORTTIME_REPEATS):
        child = run_child(["-X", "importtime", "-c", "import benford_chains"], cwd)
        if not tally.record("importtime", child.problems()):
            continue
        lines = [
            (len(m.group(2)), int(m.group(1)), m.group(3))
            for m in _IMPORTTIME.finditer(child.stderr.decode(errors="replace"))
        ]
        for mod in IMPORTED:
            samples[mod].append(_import_cost_us(lines, mod) / 1e6)
    return {mod: p50(v) for mod, v in samples.items()}


def peak_rss_mib() -> float:
    """Peak RSS of this process; Linux reports KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }

"""Blocks drawn and counted two at a time, by the caller and one helper thread.

The block map hands out results and errors in block order, so every value,
count and message equals the serial loop's.  A one-block job starts no
thread, a forked child draws with a helper of its own, and a pair that took
longer than its two blocks would in series makes the map serial for a while.
"""

import os
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import benford_chains
from benford_chains import conformance, montecarlo
from benford_chains.chains import ChainLink, ChainSpec
from benford_chains.conformance import audit_dataset, digit_stats
from benford_chains.montecarlo import BLOCK_SIZE, product_batch, sample_batch

SEED = 20260814
# about 10% of the lanes abort, in the chain walk and in the product form
DROPPY = ChainSpec(10, (ChainLink("uniform", 1), ChainLink("uniform", 300)))
COUNTS = (1, BLOCK_SIZE - 7, BLOCK_SIZE, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE, 3 * BLOCK_SIZE + 99)


def serial(monkeypatch):
    """Make the block map the plain serial loop."""
    monkeypatch.setattr(montecarlo, "_in_order", lambda fn, items: map(fn, items))
    monkeypatch.setattr(conformance, "_in_order", lambda fn, items: map(fn, items))


class Clock:
    """Stands in for the time module in montecarlo; every pair pays unless told."""

    def __init__(self):
        self.now = self.cpu = 0.0
        self.pair_wall = 0.0  # added to the wall clock by each helper item

    def perf_counter(self):
        return self.now

    def thread_time(self):
        return self.cpu


@pytest.fixture
def clock(monkeypatch):
    """A fake clock, so the helper takes every second item however busy the host is."""
    fake = Clock()
    monkeypatch.setattr(montecarlo, "time", fake)
    monkeypatch.setattr(montecarlo, "_cost", 0.5)
    monkeypatch.setattr(montecarlo, "_serial_items", 0)
    return fake


@pytest.fixture
def submitted(monkeypatch, clock):
    """How many items went to the helper thread."""
    calls = []
    real = montecarlo._submit

    def spy(fn, item):
        calls.append(item)
        clock.now += clock.pair_wall
        return real(fn, item)

    monkeypatch.setattr(montecarlo, "_submit", spy)
    return calls


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_threaded_and_serial_paths_agree_bit_for_bit(monkeypatch, submitted):
    x = sample_batch(DROPPY, 3 * BLOCK_SIZE + 99, SEED, 41).values
    dirty = x.copy()
    dirty[[5, BLOCK_SIZE + 3, 2 * BLOCK_SIZE + 8, x.size - 1]] = [np.nan, -1.0, 0.0, np.inf]
    jobs = []
    for n in COUNTS:
        jobs += [(sample_batch, DROPPY, n, SEED, 7), (product_batch, DROPPY, n, SEED, 8)]
    for n in (1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE - 5, x.size):
        jobs += [(digit_stats, x[:n], 10), (audit_dataset, x[:n], 10)]
        jobs += [(audit_dataset, dirty[:n], 3)]
    jobs += [(digit_stats, dirty, 10)]
    threaded = [outcome(*job) for job in jobs]
    assert len(submitted) > 20  # the helper did take blocks
    serial(monkeypatch)
    del submitted[:]
    for job, got in zip(jobs, threaded):
        want = outcome(*job)
        if isinstance(want, montecarlo.SampleBatch):
            assert want.failures == got.failures and want.count == got.count
            assert want.values.tobytes() == got.values.tobytes()
        else:
            assert want == got
    assert submitted == []
    dropped = sample_batch(DROPPY, 3 * BLOCK_SIZE + 99, SEED, 7)
    assert dropped.failures > 0 and product_batch(DROPPY, 3 * BLOCK_SIZE + 99, SEED, 8).failures > 0


@pytest.mark.parametrize("blocks, helper_items", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2)])
def test_every_second_block_goes_to_the_helper(submitted, blocks, helper_items):
    x = np.exp(np.random.default_rng(blocks).normal(0.0, 3.0, blocks * BLOCK_SIZE))
    digit_stats(x)
    assert len(submitted) == helper_items
    del submitted[:]
    sample_batch(DROPPY, blocks * BLOCK_SIZE, SEED)
    assert len(submitted) == helper_items


def test_the_map_runs_serially_while_pairs_do_not_pay(clock, submitted):
    clock.pair_wall = 0.01  # each pair takes 10 ms of wall time and no CPU
    sample_batch(DROPPY, 10 * BLOCK_SIZE, SEED)
    assert len(submitted) == 4  # one losing pair does not do it, four do
    assert montecarlo._cost > 1.0 and montecarlo._serial_items == 2
    digit_stats(np.ones(32 * BLOCK_SIZE))
    assert len(submitted) == 5  # 30 items in the caller, then one pair
    assert montecarlo._cost > 1.0 and montecarlo._serial_items == 0
    clock.pair_wall = 0.0  # pairs pay from now on
    digit_stats(np.ones(68 * BLOCK_SIZE))
    assert len(submitted) == 7  # two paying probes, 32 items apart, end it
    assert montecarlo._cost < 1.0
    digit_stats(np.ones(4 * BLOCK_SIZE))
    assert len(submitted) == 9


def test_one_slow_pair_in_a_hundred_keeps_the_pairs(clock, submitted):
    for i in range(200):
        clock.pair_wall = 0.01 if i % 100 == 50 else 0.0
        digit_stats(np.ones(2 * BLOCK_SIZE))
    assert len(submitted) == 200 and montecarlo._cost < 0.25


def test_digit_stats_names_the_first_bad_block_when_two_are_bad(monkeypatch, clock):
    x = np.exp(np.random.default_rng(5).normal(0.0, 3.0, 4 * BLOCK_SIZE))
    x[BLOCK_SIZE + 17] = -2.5  # block 1: the helper's block of the first pair
    x[2 * BLOCK_SIZE + 3] = np.nan  # block 2: the caller's block of the second pair
    with pytest.raises(ValueError, match=rf"^values\[{BLOCK_SIZE + 17}\] = ") as threaded:
        digit_stats(x)
    x[1] = np.inf  # block 0 (the caller's) comes before the helper's block 1
    with pytest.raises(ValueError, match=r"^values\[1\] = "):
        digit_stats(x)
    x[1] = 1.0
    serial(monkeypatch)
    with pytest.raises(ValueError) as plain:
        digit_stats(x)
    assert str(plain.value) == str(threaded.value)


def test_the_map_keeps_item_order_and_error_order(clock):
    def twice_or_fail(i):
        if i in (3, 4):
            raise ValueError(f"item {i}")
        return 2 * i

    assert list(montecarlo._in_order(lambda i: 2 * i, range(7))) == list(range(0, 14, 2))
    assert list(montecarlo._in_order(lambda i: i, [])) == []
    got = []
    with pytest.raises(ValueError, match="^item 3$"):  # the helper's item, before item 4
        for value in montecarlo._in_order(twice_or_fail, range(7)):
            got.append(value)
    assert got == [0, 2, 4]
    with pytest.raises(ValueError, match="^item 4$"):  # the caller's item 4 beats item 5
        list(montecarlo._in_order(lambda i: twice_or_fail(i + 1 if i == 3 else i), range(4, 7)))


def test_a_dirty_audit_filters_each_block_on_its_own():
    x = np.exp(np.random.default_rng(11).normal(0.0, 5.0, 3 * BLOCK_SIZE + 5))
    bad = np.array([0, BLOCK_SIZE - 1, BLOCK_SIZE, 2 * BLOCK_SIZE + 1, x.size - 1])
    dirty = x.copy()
    dirty[bad] = [np.nan, 0.0, -np.inf, -4.0, np.inf]
    clean = audit_dataset(np.delete(x, bad), 10)
    assert audit_dataset(dirty, 10) == replace(clean, skipped=bad.size)
    for nothing in ([], [0.0] * (BLOCK_SIZE + 1), [np.nan, -1.0]):
        with pytest.raises(ValueError, match="^no positive values left after filtering$"):
            audit_dataset(np.array(nothing, dtype=float), 10)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_with_a_helper_of_its_own(clock):
    n = 3 * BLOCK_SIZE + 99
    batch = sample_batch(DROPPY, n, SEED, 31)
    assert montecarlo._helper[0] == os.getpid()  # the helper is up when the process forks
    stats = digit_stats(batch.values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 2
        try:
            signal.alarm(20)  # a child that waits on its parent's helper dies here
            again = sample_batch(DROPPY, n, SEED, 31)
            same = again.values.tobytes() == batch.values.tobytes()
            code = 0 if same and digit_stats(again.values) == stats else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status), f"child killed by signal {os.WTERMSIG(status)}"
    assert os.WEXITSTATUS(status) == 0
    assert sample_batch(DROPPY, n, SEED, 31).values.tobytes() == batch.values.tobytes()


HYGIENE_CHILD = """
import io, sys, threading
import benford_chains as bc
from benford_chains import cli

def state():
    return "concurrent.futures" in sys.modules, threading.active_count()

chain = bc.ChainSpec(10, (bc.ChainLink("exponential", 1), bc.ChainLink("uniform", 2)))
print(state())
bc.audit_dataset(bc.sample_batch(chain, bc.BLOCK_SIZE, 1).values, 10)
print(state())
path = sys.argv[1]
for argv in (["bound", "--chain", path], ["digits", "--chain", path], ["bound-exp", "--n", "3"]):
    assert cli.main(argv, out=io.StringIO()) == 0, argv
print(state())
bc.audit_dataset(bc.sample_batch(chain, 3 * bc.BLOCK_SIZE, 1).values, 10)
print(state())
"""


def test_one_block_jobs_and_short_commands_start_no_thread(tmp_path):
    spec = tmp_path / "chain.json"
    spec.write_text('{"base": 10, "links": [{"family": "exponential", "power": 1}]}')
    src = str(Path(benford_chains.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", HYGIENE_CHILD, str(spec)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["(False, 1)"] * 3 + ["(False, 2)", ""]

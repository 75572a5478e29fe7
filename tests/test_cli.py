"""End-to-end command-line behavior: output formats, determinism, exit codes."""

import argparse
import ast
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benford_chains import _column, _rows, cli, conformance
from benford_chains.chains import SpectrumCheckError, exponential_chain_bound, uniform_chain_density
from benford_chains.families import _TABLE
from benford_chains.montecarlo import BLOCK_SIZE, RNG_ALGORITHM

SEED = 20260814

EXP2 = '{"base": 10, "links": [{"family": "exponential", "power": 1}, {"family": "exponential", "power": 1}]}'
EXP5 = json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1}] * 5})
UNIF1 = '{"base": 10, "links": [{"family": "uniform", "power": 1}]}'
BAD_FAMILY = '{"base": 10, "links": [{"family": "exponential", "power": 1}, {"family": "cauchy", "power": 2}]}'
HUGE_POWER = json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1},
                                               {"family": "uniform", "power": 10**400}]})


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(argv)
    assert code == 0, text
    return json.loads(text)


def subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def csv_config_keys(text):
    return [ln[2:].split("=", 1)[0] for ln in text.splitlines() if ln.startswith("# ")]


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


def test_bound_exp_json():
    doc = run_json(["bound-exp", "--n", "3"])
    assert doc["value"] == exponential_chain_bound(3, 10)
    assert doc["envelope"] == 0.057**3
    assert doc["n"] == 3 and doc["base"] == 10
    assert doc["config"]["command"] == "bound-exp"
    assert doc["config"]["rng"] == RNG_ALGORITHM


def test_bound_exp_rejects_short_chain(capsys):
    code, _ = run(["bound-exp", "--n", "1"])
    assert code == 2
    assert "n >= 2" in capsys.readouterr().err


def test_bound_exp_rejects_n_beyond_two_to_53(capsys):
    # 0.5 * n must be an exact double; 10**400 is not even a double
    for n in (str(2**53 + 1), str(10**400)):
        code, text = run(["bound-exp", "--n", n])
        assert (code, text) == (2, "")
        assert "n <= 2**53" in capsys.readouterr().err
    doc = run_json(["bound-exp", "--n", str(2**53)])
    assert (doc["value"], doc["n"]) == (0.0, 2**53)


def test_bound_command(tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    doc = run_json(["bound", "--chain", str(spec)])
    assert doc["value"] == pytest.approx(2.0 * exponential_chain_bound(2, 10), rel=1e-13)
    assert doc["truncation_L"] == 64
    assert len(doc["per_term"]) == 128
    assert doc["per_term"][0][0] == 1 and doc["per_term"][1][0] == -1

    narrow = run_json(["bound", "--chain", str(spec), "--a", "0.2", "--b", "0.45", "--lmax", "16"])
    assert narrow["truncation_L"] == 16
    assert narrow["value"] == pytest.approx(0.25 * doc["value"], rel=1e-6)


def test_bound_reports_honest_infinity(tmp_path):
    spec = tmp_path / "u1.json"
    spec.write_text(UNIF1)
    doc = run_json(["bound", "--chain", str(spec), "--a", "0", "--b", "0.5"])
    assert doc["value"] == math.inf
    assert doc["tail"] == math.inf


def test_bound_rejects_bad_chain(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(BAD_FAMILY)
    code, _ = run(["bound", "--chain", str(spec)])
    assert code == 2
    assert "links[1]" in capsys.readouterr().err

    code, _ = run(["bound", "--chain", str(tmp_path / "missing.json")])
    assert code == 2
    capsys.readouterr()

    # --lmax is checked before the chain file is read
    for command in ("bound", "fold", "digits"):
        for lmax, message in (("0", "--lmax must be >= 1, got 0"),
                              ("65537", "--lmax must be at most 65536, got 65537")):
            code, text = run([command, "--chain", str(tmp_path / "missing.json"), "--lmax", lmax])
            assert (code, text) == (2, "")
            assert message in capsys.readouterr().err


def test_bound_uniform_json(capsys):
    doc = run_json(["bound-uniform", "--n", "10", "--k", "5", "--s", "2"])
    assert doc["value"] == pytest.approx(0.00051350577808389031, rel=1e-12)
    assert doc["value"] == doc["head_term"] + doc["spectral_term"]
    code, _ = run(["bound-uniform", "--n", "10", "--k", "11", "--s", "2"])
    assert code == 2
    capsys.readouterr()

    # (n-1)! leaves the double range at n = 172; a huge n must not build it
    for n in ("172", "200", str(10**9)):
        code, text = run(["bound-uniform", "--n", n, "--k", "5", "--s", "2"])
        assert (code, text) == (2, "")
        assert "n <= 171" in capsys.readouterr().err


def test_fold_full_interval_is_exact(tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    doc = run_json(["fold", "--chain", str(spec)])
    assert float(doc["probability"]) == 1.0
    assert float(doc["truncation_error"]) == 0.0
    assert doc["config"]["a"] == 0 and doc["config"]["b"] == 1


def test_fold_digit_one(tmp_path):
    spec = tmp_path / "exp3.json"
    spec.write_text(json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1}] * 3}))
    doc = run_json(["fold", "--chain", str(spec), "--a", "0", "--b", str(math.log10(2.0))])
    assert doc["probability"] == pytest.approx(0.30105089548416523, rel=1e-12)


def test_digits_csv(tmp_path):
    spec = tmp_path / "exp3.json"
    spec.write_text(json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1}] * 3}))
    code, text = run(["digits", "--chain", str(spec)])
    assert code == 0
    assert "# command=digits\n" in text
    assert f"# rng={RNG_ALGORITHM}\n" in text
    header, rows = csv_rows(text)
    assert header == "d,probability,benford,delta"
    assert [r[0] for r in rows] == [str(d) for d in range(1, 10)]
    probs = [float(r[1]) for r in rows]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    # 17-digit output round-trips: the printed delta is exactly p - benford
    for r in rows:
        assert float(r[3]) == float(r[1]) - float(r[2])


def test_density_uniform_csv(capsys):
    code, text = run(["density-uniform", "--n", "4", "--k", "5", "--points", "40"])
    assert code == 0
    header, rows = csv_rows(text)
    assert header == "x,f"
    assert len(rows) == 40
    xs = [float(r[0]) for r in rows]
    assert xs[-1] == 5.0
    assert xs[0] == pytest.approx(5e-3, rel=1e-12)
    for x, f in ((float(r[0]), float(r[1])) for r in rows):
        assert f == uniform_chain_density(4, 5.0, x)

    code, _ = run(["density-uniform", "--n", "4", "--k", "5", "--points", "1"])
    assert code == 2
    assert "--points must be >= 2, got 1" in capsys.readouterr().err

    code, text = run(["density-uniform", "--n", "4", "--k", "5", "--points", str(10**6 + 1)])
    assert (code, text) == (2, "")
    assert "--points must be at most 1000000, got 1000001" in capsys.readouterr().err

    for n in ("172", "200"):
        code, _ = run(["density-uniform", "--n", n, "--k", "5", "--points", "2"])
        assert code == 2
        assert "n <= 171" in capsys.readouterr().err

    # --n and --k are checked before the config echo and the header are written
    for n, k, message in (
        ("0", "5", "n >= 1, got 0"),
        ("4", "0.5", "k must be >= 1, got 0.5"),
        ("2", "inf", "k must be finite, got inf"),
        ("2", "nan", "k must be finite, got nan"),
    ):
        code, text = run(["density-uniform", "--n", n, "--k", k, "--points", "2"])
        assert (code, text) == (2, "")
        assert message in capsys.readouterr().err


def test_simulate_writes_csv_and_stats(tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    out_csv = tmp_path / "draws.csv"
    doc = run_json([
        "simulate", "--chain", str(spec), "--samples", "5000",
        "--seed", str(SEED), "--out", str(out_csv),
    ])
    assert doc["requested"] == 5000
    assert doc["count"] + doc["failures"] == 5000
    assert doc["out"] == str(out_csv)

    text = out_csv.read_text()
    header, rows = csv_rows(text)
    assert header == "index,value,mantissa,first_digit"
    assert len(rows) == doc["count"]
    for r in rows[:100]:
        value, mant, digit = float(r[1]), float(r[2]), int(r[3])
        assert 1.0 <= mant < 10.0
        assert digit == int(mant)
        assert value > 0.0


def test_simulate_is_byte_identical(tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    out_csv = tmp_path / "draws.csv"
    argv = ["simulate", "--chain", str(spec), "--samples", "2000",
            "--seed", "123", "--out", str(out_csv)]
    code1, stdout1 = run(argv)
    bytes1 = out_csv.read_bytes()
    code2, stdout2 = run(argv)
    bytes2 = out_csv.read_bytes()
    assert (code1, code2) == (0, 0)
    assert stdout1 == stdout2
    assert bytes1 == bytes2


def test_simulate_validates_flags(tmp_path, capsys):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    code, _ = run(["simulate", "--chain", str(spec), "--samples", "10", "--out", "x.csv"])
    assert code == 2  # --seed is required
    code, _ = run(["simulate", "--chain", str(spec), "--samples", "0",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()
    code, _ = run(["simulate", "--chain", str(spec), "--samples", str(10**8 + 1),
                   "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "--samples must be at most 100000000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    # the chain and the seed are checked before the CSV is opened
    bad = tmp_path / "bad.json"
    bad.write_text(BAD_FAMILY)
    for chain, seed in ((bad, "1"), (spec, "-1")):
        code, _ = run(["simulate", "--chain", str(chain), "--samples", "10",
                       "--seed", seed, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


def test_exponent_beyond_two_to_53_exits_two(tmp_path, capsys):
    spec = tmp_path / "huge.json"
    spec.write_text(HUGE_POWER)
    out_csv = tmp_path / "x.csv"
    for argv in (["bound", "--chain", str(spec)], ["digits", "--chain", str(spec)],
                 ["simulate", "--chain", str(spec), "--samples", "10", "--seed", "1",
                  "--out", str(out_csv)]):
        code, text = run(argv)
        assert (code, text) == (2, ""), argv
        assert "cumulative exponent" in capsys.readouterr().err
    assert not out_csv.exists()


def test_a_base_with_no_double_fails_simulate_before_the_csv(tmp_path, capsys):
    # simulate took the base's mantissas after it opened --out, and exited 1
    # with an OverflowError; bound and fold take only math.log(base)
    for base in (2**1024 - 2**970, 10**400):
        spec = tmp_path / "huge_base.json"
        spec.write_text(json.dumps({"base": base, "links": [{"family": "exponential", "power": 1},
                                                            {"family": "uniform", "power": 2}]}))
        out_csv = tmp_path / "x.csv"
        code, text = run(["simulate", "--chain", str(spec), "--samples", "10", "--seed", "1",
                          "--out", str(out_csv)])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            f"error: base must be below 2**1024 - 2**970 to have a double, got a {base.bit_length()}-bit integer\n"
        )
        assert not out_csv.exists()
        for command in ("bound", "fold"):
            assert run_json([command, "--chain", str(spec), "--a", "0.1", "--b", "0.45"])["config"]


def test_simulate_memory_does_not_grow_with_samples(tmp_path):
    # simulate streams one Philox block at a time: the traced peak at 8
    # blocks matches the peak at 2 blocks (holding the whole batch added
    # about 1.6 MiB per extra block).
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)

    def argv(blocks):
        return ["simulate", "--chain", str(spec), "--samples", str(blocks * BLOCK_SIZE),
                "--seed", "1", "--out", str(tmp_path / "draws.csv")]

    # one untraced run first, so that lazy imports, the helper thread and
    # first-use tables land in neither traced peak
    assert run(argv(2))[0] == 0
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            code, _ = run(argv(blocks))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


# The extremes of the positive doubles, and the points where %.17g switches
# between fixed and exponent notation, each with its two neighbours.
FORMAT_EDGES = sorted(
    y
    for x in (5e-324, sys.float_info.min, 1e-5, 1e-4, 1e16, 1e17, sys.float_info.max)
    for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
    if 0.0 < y < math.inf
)
positive_doubles = st.one_of(
    st.sampled_from(FORMAT_EDGES),
    st.floats(min_value=5e-324, max_value=sys.float_info.max, allow_subnormal=True),
)


@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(0, 10**8),
    rows=st.lists(st.tuples(positive_doubles, positive_doubles, st.integers(1, 10**6 - 1)), min_size=1, max_size=40),
)
@example(first=0, rows=[(x, x, 9) for x in FORMAT_EDGES])
def test_row_template_matches_per_row_fmt(first, rows):
    values, mants, digits = (np.array(column) for column in zip(*rows))
    per_row = "".join(f"{i},{cli._fmt(v)},{cli._fmt(m)},{d}\n" for i, (v, m, d) in enumerate(rows, first))
    assert _rows.format_rows(first, values, mants, digits) == per_row.encode()

def test_simulate_audit_round_trip(tmp_path):
    spec = tmp_path / "exp5.json"
    spec.write_text(EXP5)
    out_csv = tmp_path / "draws.csv"
    sim = run_json(["simulate", "--chain", str(spec), "--samples", "20000",
                    "--seed", str(SEED), "--out", str(out_csv)])

    doc = run_json(["audit", "--input", str(out_csv), "--column", "value"])
    report = doc["report"]
    assert report["count"] == sim["count"]
    assert report["skipped"] == 0
    assert report["conforms"] is True
    assert math.fsum(report["digit_frequencies"]) == pytest.approx(1.0, abs=1e-12)

    # same data addressed by position instead of name
    doc2 = run_json(["audit", "--input", str(out_csv), "--col-index", "1", "--header"])
    assert doc2["report"] == report


def test_config_echo_keeps_a_line_break_in_a_value_on_its_line(tmp_path):
    # an --out path with a line break is echoed as its JSON string, so the
    # file simulate wrote still audits by column name
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    out_csv = tmp_path / "draws\nvalue.csv"
    sim = run_json(["simulate", "--chain", str(spec), "--samples", "100",
                    "--seed", "1", "--out", str(out_csv)])
    lines = out_csv.read_text(encoding="utf-8").split("\n")
    assert f"# out={json.dumps(str(out_csv))}" in lines
    assert f"# chain={spec}" in lines  # a printable value keeps its bytes
    assert lines.index("index,value,mantissa,first_digit") == len(sim["config"])
    report = run_json(["audit", "--input", str(out_csv), "--column", "value"])["report"]
    assert (report["count"], report["skipped"]) == (sim["count"], 0)


def test_audit_counts_unparsable_rows(tmp_path):
    data = tmp_path / "vals.csv"
    data.write_text("reading\noops\n1.5\n2.5\n-4.0\n950\n")
    doc = run_json(["audit", "--input", str(data), "--column", "reading"])
    assert doc["report"]["count"] == 3
    assert doc["report"]["skipped"] == 2  # 'oops' and -4.0
    assert doc["config"]["header"] is True


def test_audit_with_bound_context(tmp_path):
    data = tmp_path / "vals.csv"
    rows = "\n".join(f"{1.5 * 10.0 ** (k % 3)}" for k in range(50))
    data.write_text(rows + "\n")
    doc = run_json(["audit", "--input", str(data), "--col-index", "0", "--bound", "0.9"])
    assert doc["report"]["bound_context"] == 0.9
    assert doc["report"]["bound_consistent"] is True
    assert doc["report"]["conforms"] is False  # a point mass is not Benford


def test_audit_input_errors(tmp_path, capsys):
    data = tmp_path / "vals.csv"
    data.write_text("a,b\n1,2\n")
    nope = tmp_path / "nope.csv"
    # a file that cannot be opened, or lacks the column, is reported ahead
    # of a bad flag, as when the whole column was read before any check
    for flags in ([], ["--bound", "nan"]):
        code, text = run(["audit", "--input", str(nope), *flags])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(nope)!r}\n"
        code, text = run(["audit", "--input", str(data), "--column", "missing", *flags])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {data}: no column named 'missing' in ['a', 'b']\n"

    # an empty body is the reader's error; a body with no positive value is
    # the count's
    empty = tmp_path / "empty.csv"
    for text, flags in (("# only a comment\n", ["--col-index", "0"]), ("v\n\n# a comment\n", ["--column", "v"])):
        empty.write_text(text)
        code, _ = run(["audit", "--input", str(empty), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {empty}: no data rows\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("v\nn/a\n-1.5\n0\nnan\n\n")
    code, _ = run(["audit", "--input", str(bad), "--column", "v"])
    assert code == 2
    assert capsys.readouterr().err == "error: no positive values left after filtering\n"

    # a field over csv's limit exits 2 and names the file
    limit = csv.field_size_limit()
    long = tmp_path / "long.csv"
    long.write_text("v\n1.5\n" + "1" * (limit + 1) + "\n2.5\n")
    for flags in ([], ["--bound", "nan"]):
        code, text = run(["audit", "--input", str(long), "--column", "v", *flags])
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == f"error: {long}: field larger than field limit ({limit})\n"

    # a negative index would silently address the last column
    code, _ = run(["audit", "--input", str(data), "--col-index", "-1", "--header"])
    assert code == 2
    assert "--col-index must be >= 0" in capsys.readouterr().err

    # an index past the cap overflowed the reader's intp arithmetic
    # (OverflowError, exit 1); the cap itself reads like any missing column
    code, text = run(["audit", "--input", str(data), "--col-index", str(10**20)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: --col-index must be at most {2**31 - 1}, got {10**20}\n"
    code, text = run(["audit", "--input", str(data), "--col-index", str(2**31 - 1), "--header"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: no positive values left after filtering\n"

    code, _ = run(["audit", "--input", str(data), "--col-index", "0", "--grid", str(10**6 + 1)])
    assert code == 2
    assert "--grid must be at most 1000000" in capsys.readouterr().err

    # the report lists base - 1 digits: a huge base would exhaust memory
    code, text = run(["audit", "--input", str(data), "--col-index", "0", "--base", str(10**6 + 1)])
    assert (code, text) == (2, "")
    assert "--base must be at most 1000000" in capsys.readouterr().err

    # a bound context is a number >= 0: -1 would read as consistent, NaN
    # would print as non-JSON
    for bound in ("-1", "nan", "-inf"):
        code, text = run(["audit", "--input", str(data), "--col-index", "0", f"--bound={bound}"])
        assert (code, text) == (2, "")
        assert "bound_context must be a number >= 0" in capsys.readouterr().err


def test_config_echo_is_every_parsed_flag_in_parser_order(tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    data = tmp_path / "vals.csv"
    data.write_text("reading\n1.5\n2.5\n950\n")
    draws = tmp_path / "draws.csv"
    argvs = {
        "bound": ["--chain", spec],
        "bound-exp": ["--n", "3"],
        "bound-uniform": ["--n", "10", "--k", "5", "--s", "2"],
        "fold": ["--chain", spec],
        "digits": ["--chain", spec],
        "density-uniform": ["--n", "4", "--k", "5", "--points", "5"],
        "simulate": ["--chain", spec, "--samples", "10", "--seed", "1", "--out", draws],
        "audit": ["--input", data, "--column", "reading"],
    }
    subs = subparsers()
    assert set(argvs) == set(subs)
    for command, flags in argvs.items():
        expected = ["command"] + [a.dest for a in subs[command]._actions if a.dest != "help"] + ["rng"]
        code, text = run([command, *map(str, flags)])
        assert code == 0, command
        if text.startswith("#"):
            assert csv_config_keys(text) == expected, command
        else:
            assert list(json.loads(text)["config"]) == expected, command
        if command == "simulate":
            assert csv_config_keys(draws.read_text()) == expected


def test_every_integer_flag_has_a_range_or_a_library_check():
    library_checked = {"n", "seed"}
    int_dests = set()
    for command, sub in subparsers().items():
        for action in sub._actions:
            if action.type is int:
                int_dests.add(action.dest)
                assert action.dest in cli._LIMITS or action.dest in library_checked, (
                    f"{command} {action.option_strings[0]} has no range"
                )
    assert set(cli._LIMITS) <= int_dests


def test_argparse_failures_return_two():
    code, _ = run(["no-such-command"])
    assert code == 2
    code, _ = run(["bound-exp"])  # missing required --n
    assert code == 2
    code, _ = run([])
    assert code == 2


def test_nonconvergence_maps_to_exit_three(monkeypatch, capsys):
    for exc in (SpectrumCheckError("modulus grows"),):
        def boom(args, out, exc=exc):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "bound-exp", boom)
        code, _ = run(["bound-exp", "--n", "2"])
        assert code == 3
        assert str(exc) in capsys.readouterr().err


def test_bound_exits_three_when_the_spectrum_check_fails(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "u1.json"
    spec.write_text(UNIF1)
    growing = _TABLE["uniform"]._replace(modulus=lambda own, w, base: w)
    monkeypatch.setitem(_TABLE, "uniform", growing)
    code, text = run(["bound", "--chain", str(spec)])
    assert code == 3
    assert text == ""
    assert "spectrum modulus grows" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "benford_chains.cli", "bound-exp", "--n", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == exponential_chain_bound(2, 10)


# --- run(): the process path ends with os._exit after a flush -------------

SRC = Path(cli.__file__).resolve().parents[1]
# The __main__ block as `python -m` runs it, under an atexit hook that only
# the interpreter's teardown would call.
MAIN_BLOCK = ("import atexit, runpy, sys; atexit.register(sys.stderr.write, 'teardown\\n'); "
              "runpy.run_module('benford_chains.cli', run_name='__main__')")
RUN = "from benford_chains.cli import run; run()"
SPECTRUM_FAILURE = (
    "from benford_chains.cli import run; from benford_chains.families import _TABLE; "
    "_TABLE['uniform'] = _TABLE['uniform']._replace(modulus=lambda own, w, base: w); run()"
)
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def child(args, unbuffered, **kwargs):
    """A fresh interpreter on the package sources, PYTHONUNBUFFERED unset or 1."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                          timeout=120, **kwargs)


CHILD_COMMANDS = {
    "bound-exp": ["bound-exp", "--n", "3"],
    "bound": ["bound", "--chain", "{chain}"],
    "fold": ["fold", "--chain", "{chain}", "--a", "0.1", "--b", "0.4"],
    "digits": ["digits", "--chain", "{chain}"],
    "density-uniform": ["density-uniform", "--n", "2", "--k", "1", "--points", "100000"],
    # three blocks, so the helper thread has run when the process ends
    "simulate": ["simulate", "--chain", "{chain}", "--samples", str(2 * BLOCK_SIZE + 5),
                 "--seed", "7", "--out", "{draws}"],
    "audit": ["audit", "--input", "{data}", "--column", "value"],
}


@BUFFERING
@pytest.mark.parametrize("command", list(CHILD_COMMANDS))
def test_a_child_writes_what_main_writes_in_process_and_skips_teardown(command, unbuffered, tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    draws = tmp_path / "draws.csv"
    data = tmp_path / "data.csv"
    run_json(["simulate", "--chain", str(spec), "--samples", "3000", "--seed", "1", "--out", str(data)])
    argv = [a.format(chain=spec, draws=draws, data=data) for a in CHILD_COMMANDS[command]]
    code, text = run(argv)
    csv_bytes = draws.read_bytes() if command == "simulate" else None

    proc = child(["-c", MAIN_BLOCK, *argv], unbuffered)
    assert (proc.returncode, proc.stdout) == (code, text.encode())
    assert proc.stderr == b""  # no error, and no teardown ran
    if command == "simulate":
        assert draws.read_bytes() == csv_bytes


@BUFFERING
@pytest.mark.parametrize("case", ["usage", "bad chain", "spectrum check"])
def test_run_exits_with_mains_error_code(case, unbuffered, tmp_path):
    bad, unif1 = tmp_path / "bad.json", tmp_path / "u1.json"
    bad.write_text(BAD_FAMILY)
    unif1.write_text(UNIF1)
    code, argv, message = {
        "usage": (RUN, ["bound-exp"], b"the following arguments are required: --n"),
        "bad chain": (RUN, ["bound", "--chain", str(bad)], b"error: "),
        "spectrum check": (SPECTRUM_FAILURE, ["bound", "--chain", str(unif1)], b"spectrum modulus grows"),
    }[case]
    proc = child(["-c", code, *argv], unbuffered)
    assert proc.returncode == (3 if case == "spectrum check" else 2)
    assert proc.stdout == b""
    assert message in proc.stderr
    assert proc.stderr.count(b"\n") == (2 if case == "usage" else 1)  # usage line + message, or one error line


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
@pytest.mark.parametrize("argv", [["bound-exp", "--n", "3"], ["digits", "--chain", "{chain}"], ["--help"]],
                         ids=["bound-exp", "digits", "help"])
def test_output_that_cannot_be_written_exits_two_with_one_error_line(argv, unbuffered, tmp_path):
    spec = tmp_path / "exp2.json"
    spec.write_text(EXP2)
    argv = [a.format(chain=spec) for a in argv]
    with open("/dev/full", "wb") as full:
        proc = child(["-m", "benford_chains.cli", *argv], unbuffered, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == b"error: [Errno 28] No space left on device\n"


def test_main_reports_a_failed_flush_of_its_output(capsys):
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    assert cli.main(["bound-exp", "--n", "3"], out=Full()) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def test_the_console_script_is_what_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["benford-chains"].partition(":")
    assert module == cli.__name__
    block = next(node for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body
                 if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]
    assert getattr(cli, name) is cli.run


def test_only_run_ends_the_process():
    exits = [(path.stem, node.lineno)
             for path in sorted(SRC.joinpath("benford_chains").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os._exit", "_exit")]
    lines, first = inspect.getsourcelines(cli.run)
    assert [stem for stem, _ in exits] == ["cli"]
    assert first < exits[0][1] < first + len(lines)


def test_a_fine_grid_packs_the_parts_of_a_long_csv(tmp_path, monkeypatch):
    # a 1 MiB read is one part, about 130000 of these rows; --grid 10**6
    # sets the step, so the parts are packed into blocks of grid + 1 values
    grid_size = 10**6
    step = grid_size + 1
    cells = np.char.mod("%.5g", np.exp(np.random.default_rng(5).normal(0.0, 4.0, 4099))).astype(object)
    cells[::37] = "x"  # a dirty row in every block
    rows = np.resize(cells, 1_400_003)
    data = tmp_path / "long.csv"
    data.write_text("value\n" + "\n".join(rows) + "\n")
    parts = list(_column._parts(str(data), "value", None, True))
    assert len(parts) > 4
    values = np.concatenate(parts)
    expected = conformance.audit_dataset(values, 10, grid_size=grid_size)  # one part, cut in views

    searches = []
    searchsorted = np.searchsorted

    def spy(a, v, side="left", sorter=None):
        if np.ndim(v) and len(v) == step:
            searches.append(len(a))
        return searchsorted(a, v, side=side, sorter=sorter)

    monkeypatch.setattr(np, "searchsorted", spy)
    doc = run_json(["audit", "--input", str(data), "--column", "value", "--grid", str(grid_size)])
    monkeypatch.undo()
    assert doc["report"] == json.loads(cli._to_json(expected.to_json_dict()))
    assert len(searches) <= math.ceil(values.size / step) + 1

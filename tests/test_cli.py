"""End-to-end command-line behavior: output formats, determinism, exit codes."""

import argparse
import io
import json
import math
import subprocess
import sys

import pytest

from benford_chains import cli
from benford_chains.chains import SpectrumCheckError, exponential_chain_bound, uniform_chain_density
from benford_chains.families import NonConvergenceError, Uniform
from benford_chains.montecarlo import RNG_ALGORITHM

SEED = 20260814

EXP2 = '{"base": 10, "links": [{"family": "exponential", "power": 1}, {"family": "exponential", "power": 1}]}'
EXP5 = json.dumps({"base": 10, "links": [{"family": "exponential", "power": 1}] * 5})
UNIF1 = '{"base": 10, "links": [{"family": "uniform", "power": 1}]}'
BAD_FAMILY = '{"base": 10, "links": [{"family": "exponential", "power": 1}, {"family": "cauchy", "power": 2}]}'


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
    for n, k, message in (("0", "5", "n >= 1, got 0"), ("4", "0.5", "k must be >= 1, got 0.5")):
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
    code, _ = run(["audit", "--input", str(tmp_path / "nope.csv")])
    assert code == 2

    data = tmp_path / "vals.csv"
    data.write_text("a,b\n1,2\n")
    code, _ = run(["audit", "--input", str(data), "--column", "missing"])
    assert code == 2
    assert "no column named" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("# only a comment\n")
    code, _ = run(["audit", "--input", str(empty), "--col-index", "0"])
    assert code == 2
    capsys.readouterr()

    # a negative index would silently address the last column
    code, _ = run(["audit", "--input", str(data), "--col-index", "-1", "--header"])
    assert code == 2
    assert "--col-index must be >= 0" in capsys.readouterr().err

    code, _ = run(["audit", "--input", str(data), "--col-index", "0", "--grid", str(10**6 + 1)])
    assert code == 2
    assert "--grid must be at most 1000000" in capsys.readouterr().err


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
    library_checked = {"n", "base", "seed"}
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
    for exc in (NonConvergenceError("quadrature stalled"), SpectrumCheckError("modulus grows")):
        def boom(args, out, exc=exc):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "bound-exp", boom)
        code, _ = run(["bound-exp", "--n", "2"])
        assert code == 3
        assert str(exc) in capsys.readouterr().err


def test_bound_exits_three_when_the_spectrum_check_fails(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "u1.json"
    spec.write_text(UNIF1)
    monkeypatch.setattr(Uniform, "mellin_exact", lambda self, ell, base: complex(abs(ell), 0.0))
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

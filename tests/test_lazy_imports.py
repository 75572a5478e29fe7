"""The package loads what a caller uses and no more.

`import benford_chains` imports no submodule: each public name imports its
home module on first use (PEP 562) and is then bound in the package
namespace.  The CLI's closed-form commands run on the math-only `_closed`
module without numpy, `bound`, `fold` and `digits` leave the sampling
and audit modules unloaded, `audit` loads no analytic module and
`simulate` no CSV reader.  Module loads are checked in child
interpreters, where nothing has been imported yet.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import benford_chains
from benford_chains import _closed, chains, conformance, montecarlo, specfun

SOURCE = Path(benford_chains.__file__).parent

PUBLIC = [
    "__version__", "BLOCK_SIZE", "BoundResult", "ChainLink", "ChainSpec",
    "ChainSpecError", "ConformanceReport", "DigitStats", "FAMILY_NAMES", "Family",
    "FoldInterval", "RNG_ALGORITHM", "RngSeed", "SampleBatch", "SpectrumCheckError",
    "arg_gamma", "audit_dataset", "batch_mantissas", "benford_cdf", "benford_digit_prob",
    "chain_spectrum", "cumulative_powers", "deviation_bound",
    "digit_stats", "exponential_chain_bound", "first_digit", "first_digit_probabilities",
    "fold_probability", "gamma_abs_on_line", "gamma_real", "get_family", "load_chain",
    "make_rng", "mantissa", "mellin_at", "parse_chain", "product_batch", "sample_batch",
    "two_sample_ks", "uniform_chain_cdf_bound",
    "uniform_chain_cdf_terms", "uniform_chain_density", "zeta_minus_one",
]

# (old home, name) for every definition that moved into _closed.
MOVED = [
    (chains, "ChainSpecError"),
    (chains, "SpectrumCheckError"),
    (chains, "_MAX_EXPONENT"),
    (chains, "_check_int"),
    (chains, "exponential_chain_bound"),
    (chains, "uniform_chain_density"),
    (chains, "uniform_chain_cdf_terms"),
    (chains, "uniform_chain_cdf_bound"),
    (specfun, "gamma_real"),
    (specfun, "zeta_minus_one"),
    (montecarlo, "RNG_ALGORITHM"),
    (montecarlo, "_check_base"),
    (conformance, "benford_cdf"),
    (conformance, "benford_digit_prob"),
]

FIXTURE = {"base": 10, "links": [{"family": "exponential", "power": 1}, {"family": "uniform", "power": 2}]}

# Runs `python -m benford_chains.cli` once per argv list, in order, and prints
# the exit code and the loaded numpy and package modules after each.  The
# __main__ block ends the process with os._exit; here it raises SystemExit,
# so that one child runs every argv.
CLI_CHILD = """
import contextlib, io, json, os, runpy, sys

os._exit = sys.exit
report = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["benford-chains", *argv]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("benford_chains.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    report.append([code, sorted(m for m in sys.modules if m == "numpy" or m.startswith("benford_chains"))])
print(json.dumps(report))
"""

IMPORT_CHILD = """
import sys
import benford_chains

print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("benford_chains")))
benford_chains.exponential_chain_bound(3, 10)
print("numpy" in sys.modules)
print(type(benford_chains.chains).__name__, "numpy" in sys.modules)
"""


def child(code: str, *args: str, cwd=None) -> str:
    src = str(SOURCE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_cli(argvs, cwd) -> list:
    return json.loads(child(CLI_CHILD, json.dumps(argvs), cwd=cwd))


def top_level_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    return names


# ------------------------------------------------------------- module loads

def test_importing_the_package_loads_no_submodule_and_no_numpy():
    lines = child(IMPORT_CHILD).split("\n")
    assert lines == ["['benford_chains']", "False", "module True", ""]


def test_closed_form_commands_run_without_numpy(tmp_path):
    argvs = [
        ["bound-exp", "--n", "3"],
        ["bound-uniform", "--n", "3", "--k", "2.5", "--s", "3.5"],
        ["density-uniform", "--n", "3", "--k", "2.5", "--points", "5"],
        ["bound-exp", "--n", "1"],
        ["--help"],
    ]
    report = run_cli(argvs, tmp_path)
    assert [code for code, _ in report] == [0, 0, 0, 2, 0]
    for code, loaded in report:
        assert loaded == ["benford_chains", "benford_chains._closed"]


@pytest.mark.parametrize("command", ["bound", "fold", "digits"])
def test_analytic_commands_leave_sampling_and_audit_unloaded(tmp_path, command):
    (tmp_path / "chain.json").write_text(json.dumps(FIXTURE), encoding="utf-8")
    [(code, loaded)] = run_cli([[command, "--chain", "chain.json"]], tmp_path)
    assert code == 0
    assert "benford_chains.chains" in loaded and "numpy" in loaded
    assert "benford_chains.montecarlo" not in loaded
    assert "benford_chains.conformance" not in loaded


def test_audit_loads_no_analytic_code_and_simulate_no_reader(tmp_path):
    (tmp_path / "chain.json").write_text(json.dumps(FIXTURE), encoding="utf-8")
    (tmp_path / "data.csv").write_text("v\n1.5\n-2e-3\nn/a\n", encoding="utf-8")
    [(code, loaded)] = run_cli([["audit", "--input", "data.csv", "--column", "v"]], tmp_path)
    assert code == 0
    assert "benford_chains._column" in loaded and "benford_chains.conformance" in loaded
    for module in ("chains", "families", "specfun", "_rows"):
        assert f"benford_chains.{module}" not in loaded
    argv = ["simulate", "--chain", "chain.json", "--samples", "10", "--seed", "1", "--out", "draws.csv"]
    [(code, loaded)] = run_cli([argv], tmp_path)
    assert code == 0
    assert "benford_chains._rows" in loaded and "benford_chains.montecarlo" in loaded
    assert "benford_chains._column" not in loaded


def test_the_math_only_module_imports_only_math():
    assert top_level_imports(SOURCE / "_closed.py") == ["__future__", "math"]


def test_the_cli_imports_only_the_standard_library_and_the_math_only_module_at_load():
    assert top_level_imports(SOURCE / "cli.py") == ["__future__", "argparse", "json", "math", "os", "sys", "typing",
                                                  "._closed"]


# --------------------------------------------------------------- public API

def test_all_keeps_its_names_and_order():
    assert benford_chains.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_resolves_and_is_bound_once_resolved(name):
    value = getattr(benford_chains, name)
    assert vars(benford_chains)[name] is value


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from benford_chains import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {name: getattr(benford_chains, name) for name in PUBLIC}


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(benford_chains))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        benford_chains.no_such_name  # noqa: B018
    assert not hasattr(benford_chains, "ScaleFamily")
    # the tails close from the certified moduli: no majorant is left
    assert not hasattr(benford_chains, "spectrum_majorant")
    assert not hasattr(chains, "spectrum_majorant") and not hasattr(benford_chains.Family, "majorant")


@pytest.mark.parametrize("home,name", MOVED, ids=[f"{m.__name__}.{n}" for m, n in MOVED])
def test_moved_definitions_are_one_object_in_every_home(home, name):
    assert getattr(home, name) is getattr(_closed, name)
    if name in PUBLIC:
        assert getattr(benford_chains, name) is getattr(_closed, name)


def test_a_chain_spec_error_is_caught_as_itself_from_any_home():
    with pytest.raises(chains.ChainSpecError):
        chains.ChainSpec(10, ())
    with pytest.raises(benford_chains.ChainSpecError):
        benford_chains.parse_chain({"base": 10, "links": []})

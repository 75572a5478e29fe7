"""The package runs on the standard library and numpy alone.

Every import in `src/benford_chains/*.py` names a standard-library module,
numpy, or the package itself, and `pyproject.toml` declares numpy as the
only runtime dependency.  scipy serves the tests only.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import benford_chains

SOURCE = Path(benford_chains.__file__).parent
PYPROJECT = SOURCE.parents[1] / "pyproject.toml"


def _imported_packages(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []  # a relative import stays inside the package


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for name in _imported_packages(node):
                if name not in sys.stdlib_module_names and name not in ("numpy", "benford_chains"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    names = [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in project["dependencies"]]
    assert names == ["numpy"]

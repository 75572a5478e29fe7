"""Internal checks raise named errors: no `assert` in the package source.

`python -O` strips assert statements, so a check written as one would
silently vanish.
"""

import ast
from pathlib import Path

import benford_chains

SOURCE = Path(benford_chains.__file__).parent


def test_package_source_has_no_assert_statements():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

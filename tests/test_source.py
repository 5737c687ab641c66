"""Static checks of the package source, read with ast and never imported.

An `assert` in the package is a check that `python -O` removes, so
preconditions are raised or reported instead.  A module-level import that
nothing in its module reads is left over from a deletion.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quenchstage"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def assert_lines(tree):
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]


def unused_imports(tree):
    """Names bound by top-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "drivers.py", "grid.py"}


def test_detects_both_faults():
    tree = ast.parse(
        "from dataclasses import dataclass\nimport numpy as np\n"
        "def f(x):\n    assert x > 0\n    return np.sqrt(x)\n"
    )
    assert assert_lines(tree) == [4]
    assert unused_imports(tree) == {"dataclass": 1}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(parse(path))
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(parse(path))
    assert unused == {}, f"{path.name}: unused imports {unused}"

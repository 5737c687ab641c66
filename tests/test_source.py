"""Static checks of the package source, read with ast and never imported.

An `assert` in the package is a check that `python -O` removes, so
preconditions are raised or reported instead.  A module-level import that
nothing in its module reads is left over from a deletion, and so is a
top-level function or class that nothing in the package reads: a helper that
only tests call belongs in the tests.  drivers.py leaves the step sequence
(solver, seeds, Picard step) to stepper.march, and march is the only code
outside grid.Frame that moves states between the solver's frame and the
interior (restrict, expand): it restricts each start, and the stage loop
takes the one expanded event through Frame.field.  Every exception class the
package defines is ConfigError or NumericalError or derives from
NumericalError, so each maps to a documented exit code.
"""

import ast
import builtins
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


def read_names(node):
    """Names that node reads, as a bare name or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unread_definitions(trees):
    """Top-level functions and classes that the package reads nowhere but in
    their own definition; trees maps a module name to its parsed source."""
    defs = {
        stmt.name: (f"{module}:{stmt.lineno}", stmt)
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    }
    read = {
        name
        for tree in trees.values()
        for stmt in tree.body
        for name in read_names(stmt)
        if name in defs and defs[name][1] is not stmt
    }
    return {name: defs[name][0] for name in defs if name not in read}


def frame_readers(trees):
    """Top-level statements, as module:name (or module:line), that read a
    restrict or an expand."""
    return {
        f"{module}:{getattr(stmt, 'name', stmt.lineno)}"
        for module, tree in trees.items()
        for stmt in tree.body
        if {"restrict", "expand"} & set(read_names(stmt))
    }


def unmapped_exceptions(trees):
    """Exception classes that are neither ConfigError nor NumericalError and
    do not derive from NumericalError, with where they are defined."""
    classes = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                bases = [b.id for b in stmt.bases if isinstance(b, ast.Name)]
                classes[stmt.name] = (f"{module}:{stmt.lineno}", bases)

    def ancestors(name):
        for base in classes.get(name, (None, []))[1]:
            yield base
            yield from ancestors(base)

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    return {
        name: where
        for name, (where, _) in classes.items()
        if any(is_exception(a) for a in ancestors(name))
        and name not in ("ConfigError", "NumericalError")
        and "NumericalError" not in set(ancestors(name))
    }


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "drivers.py", "grid.py"}


def test_detects_both_faults():
    tree = ast.parse(
        "from dataclasses import dataclass\nimport numpy as np\n"
        "def f(x):\n    assert x > 0\n    return np.sqrt(x)\n"
    )
    assert assert_lines(tree) == [4]
    assert unused_imports(tree) == {"dataclass": 1}
    # a call from another definition counts as a read, recursion does not
    helpers = ast.parse(
        "def used():\n    return 1\n"
        "def orphan(n):\n    return orphan(n - 1) if n else used()\n"
    )
    assert unread_definitions({"m": helpers}) == {"orphan": "m:3"}
    # an exception class must be one of the two mapped ones or derive from
    # NumericalError, also through another package class
    errors = ast.parse(
        "class NumericalError(RuntimeError): pass\n"
        "class ConfigError(Exception): pass\n"
        "class Runaway(NumericalError): pass\n"
        "class Deeper(Runaway): pass\n"
        "class Stray(RuntimeError): pass\n"
        "class Record: pass\n"
    )
    assert unmapped_exceptions({"m": errors}) == {"Stray": "m:5"}
    # a method call reads the attribute; a definition of that name does not
    frames = ast.parse(
        "class S:\n    def restrict(self, Y):\n        return Y\n"
        "def step(s, Y):\n    return s.expand(Y)\n"
        "Y0 = S().restrict(1)\n"
    )
    assert frame_readers({"m": frames}) == {"m:step", "m:6"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(parse(path))
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(parse(path))
    assert unused == {}, f"{path.name}: unused imports {unused}"


def test_every_definition_is_read():
    trees = {path.name: parse(path) for path in MODULES}
    unread = unread_definitions(trees)
    assert unread == {}, f"definitions nothing in the package reads: {unread}"


def test_every_exception_maps_to_an_exit_code():
    trees = {path.name: parse(path) for path in MODULES}
    unmapped = unmapped_exceptions(trees)
    assert unmapped == {}, f"exception classes without an exit code: {unmapped}"


def test_drivers_leave_the_step_sequence_to_the_stepper():
    # stepper.march owns the solver, the seed history and the Picard step
    tree = parse(PACKAGE / "drivers.py")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    stepper_internals = {
        "DirichletSolver", "SEED_ORDER", "extrapolated_seed", "picard_implicit_step",
    }
    seen = stepper_internals & (imported | set(read_names(tree)))
    assert seen == set(), f"drivers.py reads {sorted(seen)}"


def test_only_march_moves_states_in_and_out_of_the_frame():
    # the solve, the Picard step, the seed and the stage loop's scores see
    # only frame arrays; march restricts the start once per grid
    trees = {path.name: parse(path) for path in MODULES}
    readers = frame_readers(trees) - {"grid.py:Frame"}
    assert readers == {"stepper.py:march"}, f"restrict/expand read by {readers}"

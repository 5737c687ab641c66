"""Static checks of the package source, read with ast and never imported.

An `assert` in the package is a check that `python -O` removes, so
preconditions are raised or reported instead.  A module-level import that
nothing in its module reads is left over from a deletion, and so is a
module-level constant or a top-level function or class that nothing in the
package reads: a helper that only tests call belongs in the tests, and so is
a method or property of a package class that nothing in the package reads,
unless the benchmark harness (perfbench) reads it by name.
drivers.py leaves the step sequence (solver, seeds, Picard step) to
stepper.march.  There is one frame, the quarter of a state symmetric about
both mid-lines: every package Frame(...) call takes one argument, the grid,
and no package code reads an attribute named mirrored.  A state moves
between the interior and its frame in the transfer only, which restricts
the fine values and reads its stencils' window of the coarse frame values;
its Laplace check reads the fine Laplacian's window the same way, and march
builds its solver on the start's frame and does neither.  No package code
reads a whole interior, so nothing builds a full-grid state.  Only a Field
takes a minimum, once, when it is built.  Every
exception class the package defines is ConfigError or NumericalError or
derives from NumericalError, so each maps to a documented exit code.  No
module uses numpy.random: its extensions and the OpenSSL it loads through
secrets would raise every command's peak memory, and verify draws its
fixed-seed data from the standard library's random.Random.  No module uses
numpy.linalg either: a LAPACK call pages its code into every command's
memory, and the one table that needed it, the transfer's 12-point inverse,
is written out exactly.
"""

import ast
import builtins
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quenchstage"
MODULES = sorted(PACKAGE.glob("*.py"))
HARNESS = sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))


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


def definitions(tree):
    """The top-level functions and classes of a module and the methods and
    properties of its classes (dunder methods aside), as (name, node)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                name = getattr(member, "name", "__")
                if isinstance(member, ast.FunctionDef) and not name.startswith("__"):
                    yield f"{stmt.name}.{name}", member


def attribute_reads(node):
    """Attribute names that node reads."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield n.attr


def getattr_names(tree):
    """Attribute names that tree reads through getattr with a constant name."""
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr"
                and len(n.args) >= 2 and isinstance(n.args[1], ast.Constant)):
            yield n.args[1].value


def unread_definitions(trees):
    """Top-level functions and classes, and methods and properties of package
    classes, that the package reads nowhere but in their own definition;
    trees maps a module name to its parsed source.  A member counts as read
    wherever its own name is read as an attribute, of whatever object; a
    bare name of the same spelling is some other binding."""
    defs = {
        name: (f"{module}:{node.lineno}", node)
        for module, tree in trees.items()
        for name, node in definitions(tree)
    }
    reads = {
        kind: Counter(name for tree in trees.values() for name in kind(tree))
        for kind in (read_names, attribute_reads)
    }
    unread = {}
    for name, (where, node) in defs.items():
        own = name.rpartition(".")[2]
        kind = attribute_reads if "." in name else read_names
        if reads[kind][own] == list(kind(node)).count(own):
            unread[name] = where
    return unread


def unread_constants(trees):
    """Module-level names bound by assignment (dunders aside) that the
    package reads nowhere but in their own assignment, with where they are
    bound; a read is the bare name or an attribute of that name."""
    reads = Counter(name for tree in trees.values() for name in read_names(tree))
    unread = {}
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            own = Counter(read_names(stmt))
            for target in targets:
                name = getattr(target, "id", "__")
                if not name.startswith("__") and reads[name] == own[name]:
                    unread[name] = f"{module}:{stmt.lineno}"
    return unread


def readers(trees, name):
    """Top-level statements, as module:name (or module:line), that read name
    as an attribute, or as a bare name unless it is a builtin's."""
    bare = not hasattr(builtins, name)
    return {
        f"{module}:{getattr(stmt, 'name', stmt.lineno)}"
        for module, tree in trees.items()
        for stmt in tree.body
        for n in ast.walk(stmt)
        if (isinstance(n, ast.Attribute) and n.attr == name)
        or (bare and isinstance(n, ast.Name) and n.id == name)
    }


def numpy_submodule_lines(tree, submodule):
    """Lines that import numpy.<submodule> (or a name from it) or read the
    submodule as an attribute of a name bound to numpy (np.random)."""

    def in_submodule(module):
        return module.split(".")[:2] == ["numpy", submodule]

    numpy_names = {
        alias.asname or alias.name
        for n in ast.walk(tree) if isinstance(n, ast.Import)
        for alias in n.names if alias.name == "numpy"
    }
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            hit = any(in_submodule(alias.name) for alias in n.names)
        elif isinstance(n, ast.ImportFrom):
            module = n.module or ""
            hit = in_submodule(module) or (
                module == "numpy" and any(a.name == submodule for a in n.names)
            )
        else:
            hit = (isinstance(n, ast.Attribute) and n.attr == submodule
                   and isinstance(n.value, ast.Name) and n.value.id in numpy_names)
        if hit:
            lines.append(n.lineno)
    return lines


def frame_rule_lines(tree):
    """Lines that call Frame (by name or as an attribute) with other than one
    argument, or read an attribute named mirrored."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            if name == "Frame" and len(n.args) + len(n.keywords) != 1:
                lines.append(n.lineno)
        elif isinstance(n, ast.Attribute) and n.attr == "mirrored":
            lines.append(n.lineno)
    return sorted(lines)


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
    # so does a method or property of a class, by its name on any object
    members = ast.parse(
        "class C:\n"
        "    def __init__(self):\n        self.n = self.used()\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def spare(self):\n        return self.spare\n"
        "spare = 2\nC()\n"
    )
    assert unread_definitions({"m": members}) == {"C.spare": "m:7"}
    # the harness reads a member by getattr with its name as a constant
    harness = ast.parse("n = getattr(r, 'spare', None)\nm = getattr(r, k)\n")
    assert list(getattr_names(harness)) == ["spare"]
    # a module constant is read by another statement, by name or attribute;
    # its own assignment is no read, and a dunder is the import system's
    constants = ast.parse(
        "import m\nWEIGHTS = [1, 2]\nTABLE = WEIGHTS * 2\nLEFT: int = 3\n"
        "__version__ = '1'\ndef f():\n    return m.TABLE\n"
    )
    assert unread_constants({"m": constants}) == {"LEFT": "m:4"}
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
    # a method call reads the attribute; a definition of that name does not,
    # and a call of the builtin of that name is no read of a method
    frames = ast.parse(
        "class S:\n    def restrict(self, Y):\n        return Y\n"
        "def step(s, Y):\n    return s.expand(Y)\n"
        "Y0 = S().restrict(1)\n"
        "def low(Y):\n    return min(Y)\n"
        "def lowest(Y):\n    return Y.min()\n"
    )
    assert readers({"m": frames}, "restrict") == {"m:6"}
    assert readers({"m": frames}, "expand") == {"m:step"}
    assert readers({"m": frames}, "min") == {"m:lowest"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = assert_lines(parse(path))
    assert lines == [], f"{path.name}: assert at line(s) {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(parse(path))
    assert unused == {}, f"{path.name}: unused imports {unused}"


def test_every_definition_is_read():
    # Field.interior is read by perfbench's tracer alone, which sizes a
    # transfer's result by it
    trees = {path.name: parse(path) for path in MODULES}
    harness = {name for path in HARNESS for name in getattr_names(parse(path))}
    unread = {
        name: where for name, where in unread_definitions(trees).items()
        if name.rpartition(".")[2] not in harness
    }
    assert unread == {}, f"definitions nothing in the package reads: {unread}"


def test_every_module_constant_is_read():
    trees = {path.name: parse(path) for path in MODULES}
    unread = unread_constants(trees)
    assert unread == {}, f"module constants nothing in the package reads: {unread}"


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


def test_only_the_state_constructors_move_states_in_and_out_of_the_frame():
    # the solve, the Picard step, the seed and the stage loop's scores see
    # only frame values; the transfer restricts the fine values onto the
    # quarter (the stage-0 profile is evaluated on its frame's nodes) and
    # reads a window of the coarse frame values, and the transfer's Laplace
    # check reads the window of the fine Laplacian that its cells cover;
    # Field.interior, which only perfbench reads, mirrors out the interior
    trees = {path.name: parse(path) for path in MODULES}
    restrict, expand = readers(trees, "restrict"), readers(trees, "expand")
    assert restrict == {"prolongation.py:prolong_stage"}, f"restrict read by {restrict}"
    assert expand == {
        "prolongation.py:_cell_stencils", "prolongation.py:laplace_compat_check",
        "grid.py:Field",
    }, f"expand read by {expand}"


def test_only_the_checks_read_a_whole_interior():
    # a Field holds its frame values alone, and the Laplacian, the oracle's
    # Euler-Lagrange residual and every verify suite work on them, so no
    # package code reads a whole interior, the checks included
    trees = {path.name: parse(path) for path in MODULES}
    found = readers(trees, "interior")
    assert found == set(), f"interior read by {found}"


def test_one_frame():
    # a Frame takes its grid alone, through any name; a call of another
    # callable of two arguments is no Frame, and a mirrored flag is read
    # nowhere
    cases = ast.parse(
        "from grid import Frame\nimport grid\n"
        "a = Frame(g)\nb = Frame(g, True)\nc = grid.Frame(g, mirrored=True)\n"
        "d = a.mirrored\ne = grid.Frame(grid=g)\nf = Field(a, v)\n"
    )
    assert frame_rule_lines(cases) == [4, 5, 6]
    found = {
        path.name: lines for path in MODULES if (lines := frame_rule_lines(parse(path)))
    }
    assert found == {}, f"Frame called with more than its grid, or mirrored read, at {found}"


def test_only_a_field_takes_a_minimum():
    # each state's minimum is taken once, when its Field is built; the
    # trigger, the positivity checks and the energy read that one
    trees = {path.name: parse(path) for path in MODULES}
    found = readers(trees, "min")
    assert found == {"grid.py:Field"}, f"min read by {found}"


def test_no_module_uses_numpy_random():
    # every way in is caught; the standard library's generator, and a
    # random method of any other object, are no use of numpy.random
    uses = ast.parse(
        "import numpy as np\nimport numpy.random\nimport random\n"
        "from numpy import random as npr\nfrom numpy.random import default_rng\n"
        "rng = np.random.default_rng(1)\nx = random.Random(1).random()\n"
    )
    assert numpy_submodule_lines(uses, "random") == [2, 4, 5, 6]
    found = {
        path.name: lines
        for path in MODULES
        if (lines := numpy_submodule_lines(parse(path), "random"))
    }
    assert found == {}, f"numpy.random used at {found}"


def test_no_module_uses_numpy_linalg():
    # every way in is caught, through any name numpy is bound to
    uses = ast.parse(
        "import numpy\nimport numpy.linalg\nfrom numpy import linalg\n"
        "from numpy.linalg import inv\nc = numpy.linalg.cond(1)\n"
        "x = numpy.ones(2).sum()\n"
    )
    assert numpy_submodule_lines(uses, "linalg") == [2, 3, 4, 5]
    found = {
        path.name: lines
        for path in MODULES
        if (lines := numpy_submodule_lines(parse(path), "linalg"))
    }
    assert found == {}, f"numpy.linalg used at {found}"

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
both mid-lines, and its grid alone sets it: every package Grid(...) call
takes A and N alone, and no package code reads an attribute named mirrored
or frame.  A state moves between the interior and its frame in the
transfer only, which restricts the fine values and reads its stencils'
window of the coarse frame values; its Laplace check reads the fine
Laplacian's window the same way, and march builds its solver on the start's
grid and does neither.  No package code
reads a whole interior, so nothing builds a full-grid state.  A minimum,
whether read as min (ndarray.min, np.min), amin or nanmin or taken as
np.minimum.reduce, is taken only where a Field is built and in the Picard
sweep, whose minimum the accepted Field carries.  The package defines
exactly three exception classes, ConfigError (exit 2), NumericalError (exit 3) and
SuiteError, a NumericalError that carries a partial verify report: each is
ConfigError or NumericalError or derives from NumericalError, so each maps
to a documented exit code, and each is caught by name somewhere in the
package, so none is a class that only tests tell apart.  No
module uses numpy.random: its extensions and the OpenSSL it loads through
secrets would raise every command's peak memory, and verify draws its
fixed-seed data from the standard library's random.Random.  No module uses
numpy.linalg either: a LAPACK call pages its code into every command's
memory, and the one table that needed it, the transfer's 12-point inverse,
is written out exactly.  A step's small products go through ndarray.dot,
not the matmul ufunc, whose dispatch costs about twice the BLAS call at a
step's sizes: the seed's ring product, the plain folded solve, one state's
Grid.sum and the transfer's cell_map use neither @ nor matmul.
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


def minimum_readers(trees):
    """Top-level statements, as module:name (or module:line), that take a
    minimum: read min, amin or nanmin as an attribute (ndarray.min, np.min)
    or a bare name that is no builtin's, or call reduce on minimum
    (np.minimum.reduce).  The builtin min of a few numbers and the
    elementwise np.minimum take no minimum of an array."""
    names = ("min", "amin", "nanmin")
    found = set().union(*(readers(trees, name) for name in names))
    return found | {
        f"{module}:{getattr(stmt, 'name', stmt.lineno)}"
        for module, tree in trees.items()
        for stmt in tree.body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Attribute) and n.attr == "reduce"
        and "minimum" in (getattr(n.value, "attr", None),
                          getattr(n.value, "id", None))
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


def matmul_lines(node):
    """Lines of node that use the @ operator or read matmul, as a bare name
    or an attribute."""
    return sorted({
        n.lineno for n in ast.walk(node)
        if isinstance(getattr(n, "op", None), ast.MatMult)
        or "matmul" in (getattr(n, "id", None), getattr(n, "attr", None))
    })


def dot_sites(trees):
    """The code whose products must take ndarray.dot, as name: node:
    extrapolated_seed, DirichletSolver.solve, cell_map and Grid.sum up to
    its last statement, the stack branch."""
    defs = {name: node for tree in trees.values() for name, node in definitions(tree)}
    return {
        "extrapolated_seed": defs["extrapolated_seed"],
        "DirichletSolver.solve": defs["DirichletSolver.solve"],
        "cell_map": defs["cell_map"],
        "Grid.sum": ast.Module(body=defs["Grid.sum"].body[:-1], type_ignores=[]),
    }


def grid_rule_lines(tree):
    """Lines that call Grid (by name or as an attribute) with other than its
    A and N, or read an attribute named mirrored or frame."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", getattr(n.func, "attr", None))
            keys = {k.arg for k in n.keywords}
            if name == "Grid" and (len(n.args) + len(n.keywords) != 2
                                   or not keys <= {"A", "N"}):
                lines.append(n.lineno)
        elif isinstance(n, ast.Attribute) and n.attr in ("mirrored", "frame"):
            lines.append(n.lineno)
    return sorted(lines)


def exception_classes(trees):
    """Exception classes that trees define, as name: (where, ancestors): a
    class whose bases lead, also through other classes of trees, to a
    builtin exception."""
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

    lineages = {name: set(ancestors(name)) for name in classes}
    return {
        name: (where, lineages[name])
        for name, (where, _) in classes.items()
        if any(is_exception(a) for a in lineages[name])
    }


def unmapped_exceptions(trees):
    """Exception classes that are neither ConfigError nor NumericalError and
    do not derive from NumericalError, with where they are defined."""
    return {
        name: where
        for name, (where, lineage) in exception_classes(trees).items()
        if name not in ("ConfigError", "NumericalError")
        and "NumericalError" not in lineage
    }


def caught_names(tree):
    """Names that an except clause of tree names, alone or in a tuple, as a
    bare name or an attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.ExceptHandler) and n.type is not None:
            types = n.type.elts if isinstance(n.type, ast.Tuple) else [n.type]
            for t in types:
                if isinstance(t, ast.Name):
                    yield t.id
                elif isinstance(t, ast.Attribute):
                    yield t.attr


def uncaught_exceptions(trees):
    """Exception classes that no except clause of trees names, with where
    they are defined."""
    caught = {name for tree in trees.values() for name in caught_names(tree)}
    return {
        name: where
        for name, (where, _) in exception_classes(trees).items()
        if name not in caught
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
    # and must be caught by name, alone or in a tuple, bare or as an
    # attribute: a NumericalError subclass that nothing names is flagged,
    # though an except of its base would catch it
    handlers = ast.parse(
        "class NumericalError(RuntimeError): pass\n"
        "class ConfigError(Exception): pass\n"
        "class Runaway(NumericalError): pass\n"
        "try:\n    f()\nexcept (ConfigError, m.NumericalError):\n    pass\n"
    )
    assert uncaught_exceptions({"m": handlers}) == {"Runaway": "m:3"}
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


def test_every_exception_is_caught_by_name():
    # a class that no package code catches is told apart only by tests;
    # its message tells the failure apart instead
    trees = {path.name: parse(path) for path in MODULES}
    uncaught = uncaught_exceptions(trees)
    assert uncaught == {}, f"exception classes nothing catches by name: {uncaught}"
    assert set(exception_classes(trees)) == {"ConfigError", "NumericalError", "SuiteError"}


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
    # a Grid takes its A and N alone, through any name, and sets its frame;
    # a call of another callable of two arguments is no Grid, and neither a
    # mirrored flag nor a frame apart from the grid is read anywhere
    cases = ast.parse(
        "from grid import Grid\nimport grid\n"
        "a = Grid(A, N)\nb = Grid(A, N, True)\nc = grid.Grid(A, N, mirrored=True)\n"
        "d = a.mirrored\ne = grid.Grid(A=A, N=N)\nf = Field(a, v)\n"
        "g = f.frame\nh = Grid(A, mirrored=True)\n"
    )
    assert grid_rule_lines(cases) == [4, 5, 6, 9, 10]
    found = {
        path.name: lines for path in MODULES if (lines := grid_rule_lines(parse(path)))
    }
    assert found == {}, (
        f"Grid called with more than its A and N, or mirrored or frame read, at {found}"
    )


def test_detects_every_minimum():
    # each form of an array's minimum is caught, through any name numpy is
    # bound to; the builtin min, the elementwise minimum and a maximum are not
    forms = ast.parse(
        "import numpy as np\nfrom numpy import minimum\n"
        "def a(Y):\n    return Y.min()\n"
        "def b(Y):\n    return np.minimum.reduce(Y, None)\n"
        "def c(Y):\n    return np.amin(Y)\n"
        "low = minimum.reduce(x)\n"
        "def d(Y):\n    return min(Y[0, 0], 1.0)\n"
        "def e(Y):\n    return np.minimum(Y, 1.0)\n"
        "def f(Y):\n    return np.maximum.reduce(Y, None)\n"
    )
    assert minimum_readers({"m": forms}) == {"m:a", "m:b", "m:c", "m:9"}


def test_only_a_field_takes_a_minimum():
    # each state's minimum is taken once: when its Field is built, or, for
    # a state a Picard step accepts, by the sweep that decides its source
    # on it and hands it to the Field; the trigger, the positivity checks
    # and the energy read that one
    trees = {path.name: parse(path) for path in MODULES}
    found = minimum_readers(trees)
    assert found == {"grid.py:Field", "stepper.py:picard_implicit_step"}, (
        f"a minimum taken by {found}"
    )


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


def test_the_step_products_take_ndarray_dot():
    # At a step's sizes (quarters of at most 36^2 on the reference run) the
    # matmul ufunc's dispatch costs about twice the BLAS call it wraps;
    # ndarray.dot reaches the same kernels and gives the same bits.  The
    # transfer's cell_map takes dot too, so that a run pages in one product
    # path.  Two places keep matmul: the butterfly's _forward and _back
    # write strided rows a[0::2], which dot's out= rejects, and are
    # BLAS-bound from BUTTERFLY_MIN_N on; Grid.sum's stack branch, its last
    # statement, must take the kernels one state's products take.  Each
    # site below is in its matmul form and is caught; _forward is no site.
    products = ast.parse(
        "class Grid:\n    def sum(self, X):\n"
        "        if X.ndim == 2:\n            return float(self.w @ X @ self.w)\n"
        "        return (self.w @ X)[..., None, :] @ self.w[:, None]\n"
        "def extrapolated_seed(ring, count):\n"
        "    np.matmul(weights, ring, out=row)\n"
        "class DirichletSolver:\n    def solve(self, rhs):\n"
        "        work = TT @ rhs\n        X = np.matmul(work, T, out=rhs)\n"
        "        work @= T\n        return X.dot(TT, out=rhs)\n"
        "    def _forward(self, a, b):\n        np.matmul(C, a[0::2], out=b)\n"
        "def cell_map(t, z):\n    return _monomials(t, z) @ REFERENCE_INVERSE\n"
    )
    found = {name: matmul_lines(node) for name, node in dot_sites({"m": products}).items()}
    assert found == {
        "extrapolated_seed": [7], "DirichletSolver.solve": [10, 11, 12],
        "cell_map": [17], "Grid.sum": [4],
    }
    trees = {path.name: parse(path) for path in MODULES}
    found = {
        name: lines
        for name, node in dot_sites(trees).items()
        if (lines := matmul_lines(node))
    }
    assert found == {}, f"matmul ufunc where ndarray.dot belongs, at {found}"

"""Module boundaries: strict layering, no function-level imports, no
imports of another module's private names, no use of the private members
of another module's classes, no unused imports, no function that nothing
in the package names, and no assert statement."""

import ast
from pathlib import Path

import pfaffred
from pfaffred import series
from pfaffred.linalg import SeriesMatrix
from pfaffred.scalars import QQ
from pfaffred.series import Series

PACKAGE = Path(pfaffred.__file__).parent


def private_imports(path):
    """(line, module, name) for each `_name` imported from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pfaffred":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, module, alias.name))
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: private_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_members(tree):
    """Private names a module's classes define: methods, class-level
    assignments and attributes assigned on self."""
    names = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
        names |= {node.attr for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"}
    return {name for name in names if is_private(name)}


def foreign_private_members(paths):
    """(file, line, name) for each X._name read in a module whose own
    classes do not define _name, when a class of another module does."""
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in paths}
    own = {name: private_members(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(v for k, v in own.items() if k != name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and is_private(node.attr)
                    and node.attr in elsewhere - own[name]):
                found.append((name, node.lineno, node.attr))
    return sorted(found)


def test_no_module_reaches_into_another_modules_classes():
    assert foreign_private_members(sorted(PACKAGE.glob("*.py"))) == []


def test_private_member_check_sees_a_planted_reference(tmp_path):
    (tmp_path / "series.py").write_text(
        "class Series:\n"
        "    _cache = None\n\n"
        "    def __init__(self):\n        _local = {}\n"
        "        self._terms = _local\n\n"
        "    @classmethod\n    def _trusted(cls):\n"
        "        return cls._cache or cls()\n")
    (tmp_path / "linalg.py").write_text(
        "from .series import Series\n\n\n"
        "class Matrix:\n    def _rows(self):\n        return []\n\n"
        "    def product(self, s):\n"
        "        return Series._trusted(), s._terms, self._rows(), s._local\n")
    assert foreign_private_members(sorted(tmp_path.glob("*.py"))) == [
        ("linalg.py", 9, "_terms"), ("linalg.py", 9, "_trusted")]


def unused_imports(path):
    """(line, name) for each module-level import the module never uses.

    A name counts as used when it is read anywhere in the module or is
    listed in a literal __all__ (the package root re-exports that way).
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


def test_no_module_has_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = {p.name: unused_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_unused_import_check_sees_a_dead_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from __future__ import annotations\n"
                   "import itertools\nimport math\n"
                   "from fractions import Fraction as F\n"
                   "__all__ = ['F']\n\n\ndef f():\n    return math.pi\n")
    assert unused_imports(src) == [(2, "itertools")]


# lowest first; a module may import only modules before it.  The
# package root (__init__) re-exports everything and sits above them all;
# the one name a module may take from it is __version__.
LAYERS = ("errors", "scalars", "series", "linalg", "system", "reduction",
          "driver", "invariants", "docio", "cli")


def imported_modules(node):
    """pfaffred modules an import statement loads ("" for the root)."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] if "." in a.name else ""
                for a in node.names if a.name.split(".")[0] == "pfaffred"]
    if node.level == 0:
        if (node.module or "").split(".")[0] != "pfaffred":
            return []
        parts = node.module.split(".")
    else:
        parts = [""] + (node.module.split(".") if node.module else [])
    if len(parts) > 1:
        return [parts[1]]
    # `from . import x`: x is a module, or __version__ from the root
    return ["" if a.name == "__version__" else a.name for a in node.names]


def layering_violations(path, name):
    """(line, problem) for each function-level import and each import of
    a module at the same or a later layer than `name`."""
    tree = ast.parse(path.read_text(), str(path))
    top = set(map(id, tree.body))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            found.append((node.lineno, "function-level import"))
        for target in imported_modules(node):
            if target == "" and all(a.name == "__version__"
                                    for a in node.names):
                continue
            if target not in LAYERS or (LAYERS.index(target)
                                        >= LAYERS.index(name)):
                found.append((node.lineno, f"imports {target or 'the root'}"))
    return found


def test_every_module_has_a_layer():
    names = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert names == set(LAYERS)


def test_modules_import_only_lower_layers_at_module_level():
    offenders = {name: layering_violations(PACKAGE / f"{name}.py", name)
                 for name in LAYERS}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_layering_check_sees_violations(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("from . import __version__\n"
                   "from .scalars import QQ\n"
                   "from .driver import fmfs\n"
                   "import pfaffred.docio\n\n\n"
                   "def f():\n    from .linalg import ConstMatrix\n"
                   "    return ConstMatrix\n")
    assert layering_violations(src, "reduction") == [
        (3, "imports driver"), (4, "imports docio"),
        (8, "function-level import")]


# defined but never called by the package, on purpose: fingerprint is the
# identity of a system, a solution and a trace that the tests and the
# benchmark compare; error is the hook argparse calls; true_poincare_rank
# is the oracle the tests hold the reduced ranks to
KEPT = {"fingerprint", "error", "true_poincare_rank"}


def unreferenced_functions(paths):
    """(file, line, name) for each function or method defined in the
    modules whose name is read nowhere outside its own body.

    Names are matched across all the modules, so a method counts as used
    when any attribute or name read anywhere spells it.  An import, an
    alias or an __all__ entry is no use: a function only re-exported is
    reported.  Dunder methods are called by the language and are left
    out.
    """
    defined, used = [], set()

    def visit(node, path, enclosing):
        name = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.append((path.name, node.lineno, node.name))
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            name = node.attr
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, path, enclosing)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path, frozenset())
    return sorted((f, line, name) for f, line, name in defined
                  if name not in used
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_function_is_named_outside_its_body():
    found = unreferenced_functions(sorted(PACKAGE.glob("*.py")))
    assert [name for _, _, name in found if name not in KEPT] == []


def test_unreferenced_function_check_sees_a_dead_def(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dead(k):\n    return dead(k - 1) if k else used()\n\n\n"
        "class C:\n    def __len__(self):\n        return 0\n\n"
        "    def method(self):\n        return 0\n")
    (tmp_path / "b.py").write_text(
        "from .a import C\n\n\ndef f():\n    return C().method()\n")
    assert unreferenced_functions(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", 5, "dead"), ("b.py", 4, "f")]


def test_unreferenced_function_check_sees_a_re_exported_def(tmp_path):
    # an import, an alias and an __all__ entry name a function without
    # using it; a stored attribute is no read either
    (tmp_path / "a.py").write_text(
        "def exported():\n    return 1\n\n\n"
        "def aliased():\n    return 2\n\n\n"
        "def called():\n    return 3\n")
    (tmp_path / "b.py").write_text(
        "from .a import aliased as alias, called, exported\n\n"
        "__all__ = ['exported', 'alias']\n\n\n"
        "class C:\n    def method(self):\n        return called()\n\n"
        "    def __init__(self):\n        self.method = None\n")
    assert unreferenced_functions(sorted(tmp_path.glob("*.py"))) == [
        ("a.py", 1, "exported"), ("a.py", 5, "aliased"),
        ("b.py", 7, "method")]


def assert_statements(path):
    """Line of each assert statement in the module.  `python -O` strips
    them, so an invariant the package relies on is checked by raising."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_module_asserts():
    offenders = {p.name: assert_statements(p)
                 for p in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_assert_check_sees_a_planted_assert(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("# assert in a comment\n"
                   "MESSAGE = 'assert in a string'\n\n\n"
                   "def f(x):\n    assert x > 0, 'positive'\n    return x\n")
    assert assert_statements(src) == [6]


# one grade loop and one elimination: outside linalg, only
# reduction.solve_graded builds a Sylvester solver or an elimination
SOLVER_CALLS = {"SylvesterSolver", "Elimination"}
SOLVER_HOME = ("reduction.py", "solve_graded")


def nodes_by_function(node, top=None):
    """(node, the top-level function or class holding it or None) for
    node and each node below it, in source order; a node in a nested
    function or in a method counts for the function or class it is
    nested in."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        top = top or node.name
    yield node, top
    for child in ast.iter_child_nodes(node):
        yield from nodes_by_function(child, top)


def name_of(node):
    """The name a Name node reads, or the attribute an Attribute reads."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def stray_solver_calls(paths):
    """(file, line, callee) for each call of SylvesterSolver or
    Elimination outside linalg and outside reduction.solve_graded; a
    call in a nested function counts for the function it is nested in."""
    return [(path.name, node.lineno, name_of(node.func))
            for path in paths if path.name != "linalg.py"
            for node, top in nodes_by_function(
                ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and name_of(node.func) in SOLVER_CALLS
            and (path.name, top) != SOLVER_HOME]


def test_only_solve_graded_builds_eliminations():
    assert stray_solver_calls(sorted(PACKAGE.glob("*.py"))) == []


def test_solver_call_check_sees_a_planted_call(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "def solve_vec(A, b):\n    return Elimination(A).solve(b)\n")
    (tmp_path / "reduction.py").write_text(
        "def solve_graded(blocks, tower):\n"
        "    return SylvesterSolver(blocks, tower)\n\n\n"
        "def split(blocks, tower):\n"
        "    def solve():\n"
        "        return linalg.Elimination(blocks)\n"
        "    return solve()\n")
    (tmp_path / "driver.py").write_text(
        "OP = SylvesterSolver([], None)\n")
    assert stray_solver_calls(sorted(tmp_path.glob("*.py"))) == [
        ("driver.py", 1, "SylvesterSolver"),
        ("reduction.py", 7, "Elimination")]


# the coordinate format of the series kernel: only series, linalg and
# reduction.solve_graded read or build coordinates
COORDINATE_PIECES = {"term_coordinates", "add_products", "fold_buckets",
                     "product_window", "coordinate_grid", "grid_product",
                     "fold_coordinates", "fold_scalars"}
ABOVE_THE_KERNEL = ("system", "driver", "invariants", "docio", "cli")


def names_used(path):
    """Every name a module imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_modules_above_the_kernel_use_no_coordinate_piece():
    found = {name: sorted(names_used(PACKAGE / f"{name}.py")
                          & COORDINATE_PIECES) for name in ABOVE_THE_KERNEL}
    assert {k: v for k, v in found.items() if v} == {}


def stray_coordinate_names(path, homes=("solve_graded",),
                           pieces=COORDINATE_PIECES):
    """(line, name) for each of the pieces the module names outside its
    top-level functions homes, per nodes_by_function."""
    return [(node.lineno, name_of(node))
            for node, top in nodes_by_function(
                ast.parse(path.read_text(), str(path)))
            if name_of(node) in pieces and top not in homes]


def test_only_solve_graded_names_a_coordinate_piece_in_reduction():
    # the graded solver is the one place above linalg that works on
    # coordinates; the rest of reduction uses series and matrices
    assert stray_coordinate_names(PACKAGE / "reduction.py") == []


def test_coordinate_name_check_sees_a_planted_name(tmp_path):
    (tmp_path / "reduction.py").write_text(
        "from .series import fold_scalars, grid_product\n\n\n"
        "def solve_graded(A):\n"
        "    return grid_product(None, A, A, (), fold_scalars, None)\n\n\n"
        "def certify(A):\n"
        "    def fold():\n"
        "        return series.fold_scalars\n"
        "    return grid_product\n")
    assert stray_coordinate_names(tmp_path / "reduction.py") == [
        (10, "fold_scalars"), (11, "grid_product")]


# inside series, the pieces of one product belong to the kernel and its
# matrix and fold helpers; Series itself multiplies by calling the kernel
KERNEL_PIECES = {"add_products", "product_window", "term_coordinates",
                 "fold_scalars"}
KERNEL_HOMES = ("sum_of_products", "grid_product", "coordinate_grid",
                "fold_buckets", "fold_coordinates", "fold_scalars")


def test_only_the_kernel_names_a_product_piece_in_series():
    assert stray_coordinate_names(PACKAGE / "series.py", KERNEL_HOMES,
                                  KERNEL_PIECES) == []


def test_product_piece_check_sees_a_planted_name(tmp_path):
    (tmp_path / "series.py").write_text(
        "def sum_of_products(start, pairs):\n"
        "    return add_products(start, pairs, product_window)\n\n\n"
        "def restrict(s):\n    return term_coordinates(s, 1)\n\n\n"
        "class Series:\n"
        "    def sum_of_products(self, other):\n"
        "        return fold_scalars(self, other)\n")
    assert stray_coordinate_names(tmp_path / "series.py", KERNEL_HOMES,
                                  KERNEL_PIECES) == [
        (6, "term_coordinates"), (11, "fold_scalars")]


def test_series_products_and_pivot_steps_are_kernel_calls(monkeypatch):
    # a * b is one kernel call, and pivot_rows makes one per row it
    # eliminates: the 3 x 3 matrix below eliminates row 2 at column 0
    # (row 1 holds an exact zero there) and row 2 again at column 1
    calls, kernel = [], series.sum_of_products
    monkeypatch.setattr(series, "sum_of_products",
                        lambda *a: calls.append(1) or kernel(*a))
    x, y = (Series.monomial(2, e, 1, QQ) for e in ((1, 0), (0, 1)))
    one, zero = Series.constant(2, 1, QQ), Series.zero(2, QQ)
    (1 + x) * (y - 2)
    assert len(calls) == 1
    calls.clear()
    M = SeriesMatrix([[x, one, zero], [zero, x, one], [y, zero, x]], 2, QQ)
    assert M.pivot_rows() == [0, 1, 2]
    assert len(calls) == 2

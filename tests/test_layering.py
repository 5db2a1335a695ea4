"""Module boundaries: no pfaffred module imports another's private names."""

import ast
from pathlib import Path

import pfaffred

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

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

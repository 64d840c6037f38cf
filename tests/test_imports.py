"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import stdinet

PACKAGE = Path(stdinet.__file__).resolve().parent


def unused_imports(source):
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\n"
                          "sys.exit(loads('0'))\n") == ["dumps", "os"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

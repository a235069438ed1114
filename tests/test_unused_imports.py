"""Every imported name in the package modules and the tests is used: a
name bound by an import must appear as a name somewhere else in its file.
The package's __init__ re-exports names, so it is left out."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "noncat").glob("*.py")
               if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names an import binds in `source` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\nprint(e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]

"""Every private function and class in the package is used: its name is
read somewhere in src/noncat other than inside its own definition, so a
helper left behind when its callers go fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.name: p.read_text()
           for p in sorted((ROOT / "src" / "noncat").glob("*.py"))}


def unreferenced_private(sources):
    """(file, line, name) of every private def or class in `sources`, a
    {file name: source} dict, whose name no node outside its own
    definition reads as a name or an attribute."""
    defs, reads = [], []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.endswith("__")):
                defs.append((path, node))
            elif isinstance(node, ast.Name):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
    return sorted(
        (path, node.lineno, node.name) for path, node in defs
        if not any(name == node.name and not (
            where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in reads))


def test_every_private_name_is_referenced():
    assert unreferenced_private(SOURCES) == []


def test_detects_an_unreferenced_private_def():
    sources = {
        "a.py": ("def _used():\n    pass\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                 "class _Left:\n    def _method(self):\n        pass\n"),
        "b.py": "from a import _used\n_used()\n",
    }
    assert unreferenced_private(sources) == [
        ("a.py", 4, "_recursive"), ("a.py", 7, "_Left"),
        ("a.py", 8, "_method")]

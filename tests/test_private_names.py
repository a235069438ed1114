"""Every private function, class and module-level constant in the package
is used: its name is read somewhere in src/noncat other than inside its
own definition, so a helper left behind when its callers go fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.name: p.read_text()
           for p in sorted((ROOT / "src" / "noncat").glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def unreferenced_private(sources):
    """(file, line, name) of every private def or class, and of every
    private name a module-level assignment binds, in `sources`, a {file
    name: source} dict, whose name no node outside its own definition
    reads as a name or an attribute."""
    defs, reads = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs += [(path, node, name.id) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name) and _private(name.id)]
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and _private(node.name)):
                defs.append((path, node, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path, node.lineno, node.attr))
    return sorted(
        (path, node.lineno, defined) for path, node, defined in defs
        if not any(name == defined and not (
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


def test_detects_an_unreferenced_private_constant():
    sources = {
        "a.py": ("_TABLE = {}\n_UNREAD, _PAIR = 1, 2\n_LIMIT: int = 3\n"
                 "__all__ = ['f']\n\n"
                 "def f():\n    _LOCAL = 4\n    return _TABLE, _PAIR\n"),
        "b.py": "import a\n_UNREAD = 5\n",
    }
    assert unreferenced_private(sources) == [
        ("a.py", 2, "_UNREAD"), ("a.py", 3, "_LIMIT"), ("b.py", 2, "_UNREAD")]

"""Every private function, class and module-level constant in the package
is used: its name is read somewhere in src/noncat other than inside its
own definition, so a helper left behind when its callers go fails here.
A public name may also be used from outside the package: by the benchmark
or the demos, or as a documented entry point in the README."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.name: p.read_text()
           for p in sorted((ROOT / "src" / "noncat").glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _public(name):
    return not name.startswith("_")


def unreferenced(sources, wanted):
    """(file, line, name) of every def or class, and of every name a
    module-level assignment binds, in `sources`, a {file name: source}
    dict, for which `wanted(name)` holds and whose name no node outside
    its own definition reads as a name or an attribute."""
    defs, reads = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defs += [(path, node, name.id) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name) and wanted(name.id)]
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and wanted(node.name)):
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


def used_outside(name, scripts, spans):
    """Whether a word of `scripts` (the text of the benchmark's and the
    demos' Python files, strings included) or of a README backtick span
    is `name`."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(text) for text in (*scripts, *spans))


def test_every_private_name_is_referenced():
    assert unreferenced(SOURCES, _private) == []


def test_every_public_name_is_used():
    scripts = [p.read_text() for folder in ("perfbench", "demos")
               for p in sorted((ROOT / folder).glob("*.py"))]
    # a span opens with a run of backticks and closes with an equal run,
    # so a fenced code block is one span
    spans = [span for _, span in re.findall(
        r"(`+)(.+?)\1", (ROOT / "README.md").read_text(), re.S)]
    assert [(path, line, name)
            for path, line, name in unreferenced(SOURCES, _public)
            if not used_outside(name, scripts, spans)] == []


def test_detects_an_unreferenced_private_def():
    sources = {
        "a.py": ("def _used():\n    pass\n\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                 "class _Left:\n    def _method(self):\n        pass\n"),
        "b.py": "from a import _used\n_used()\n",
    }
    assert unreferenced(sources, _private) == [
        ("a.py", 4, "_recursive"), ("a.py", 7, "_Left"),
        ("a.py", 8, "_method")]


def test_detects_an_unreferenced_private_constant():
    sources = {
        "a.py": ("_TABLE = {}\n_UNREAD, _PAIR = 1, 2\n_LIMIT: int = 3\n"
                 "__all__ = ['f']\n\n"
                 "def f():\n    _LOCAL = 4\n    return _TABLE, _PAIR\n"),
        "b.py": "import a\n_UNREAD = 5\n",
    }
    assert unreferenced(sources, _private) == [
        ("a.py", 2, "_UNREAD"), ("a.py", 3, "_LIMIT"), ("b.py", 2, "_UNREAD")]


def test_detects_an_unused_public_name():
    sources = {
        "a.py": ("LIMIT = 3\nTRACED = 4\n\n"
                 "def helper():\n    return LIMIT\n\n"
                 "class Shown:\n    def method(self):\n        pass\n\n"
                 "    def __eq__(self, other):\n        return helper()\n"),
    }
    found = unreferenced(sources, _public)
    assert found == [("a.py", 2, "TRACED"), ("a.py", 7, "Shown"),
                     ("a.py", 8, "method")]
    scripts, spans = ['TARGETS = ["a.TRACED"]'], ["a.Shown.method()"]
    assert [name for _, _, name in found
            if not used_outside(name, scripts, spans)] == []
    assert used_outside("method", [], ["a.methods"]) is False

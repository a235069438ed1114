"""No package module imports `dataclasses`. Each decorated class runs
`exec` for its generated methods (init, eq, hash, repr, the frozen
setattr guard) on every cold import, and every noncat process is a cold
import. Value classes subclass `poly._Value` instead: plain `__slots__`
classes with their own `__init__`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "noncat").glob("*.py"))


def dataclass_imports(source):
    """The lines of `source` that import the dataclasses module or a name
    from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "dataclasses"
                   for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").split(".")[0] == "dataclasses":
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_imports_dataclasses():
    found = {path.name: dataclass_imports(path.read_text()) for path in FILES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_a_dataclasses_import():
    source = ("import os\nfrom dataclasses import dataclass\n"
              "import dataclasses as dc\nfrom .dataclasses import x\n"
              "def f():\n    import dataclasses\n")
    assert dataclass_imports(source) == [2, 3, 6]

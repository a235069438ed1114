"""The README's Library example runs as written, and each bare expression
in it is the value its trailing comment gives."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def library_example():
    """The source of the first python block of the README's Library
    section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example():
    source = library_example()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].strip()
            expected = ast.literal_eval(comment)
            assert (type(value), value) == (type(expected), expected), comment
            checked.append(comment)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    assert checked == ["True", "('y', 'z')", "()"]

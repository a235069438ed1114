"""Golden outputs: every demo script in text, JSON and DOT, run through
main(), must reproduce the stdout, stderr and exit code stored under
tests/golden/ byte for byte.

To rewrite the stored outputs after an intended change of output, run
`PYTHONPATH=src python tests/test_golden.py` from the repository root and
review the diff.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from noncat.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "demos" / "scripts").glob("*.ncat"))
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("text", "json", "dot")
CASES = [(script, fmt) for script in SCRIPTS for fmt in FORMATS]


def run_main(script, fmt):
    """(stdout, stderr, exit code) of main() on one script."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(script), "--format", fmt])
    return out.getvalue(), err.getvalue(), code


def golden_paths(script, fmt):
    stem = f"{script.stem}.{fmt}"
    return GOLDEN / f"{stem}.out", GOLDEN / f"{stem}.err"


def stored_exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_every_demo_script_has_golden_output():
    assert SCRIPTS
    assert set(stored_exit_codes()) == {
        f"{s.stem}.{fmt}" for s, fmt in CASES}


@pytest.mark.parametrize("script,fmt", CASES,
                         ids=[f"{s.stem}-{fmt}" for s, fmt in CASES])
def test_demo_script_matches_golden(script, fmt):
    out, err, code = run_main(script, fmt)
    out_path, err_path = golden_paths(script, fmt)
    assert out == out_path.read_text()
    assert err == err_path.read_text()
    assert code == stored_exit_codes()[f"{script.stem}.{fmt}"]


# a node, or an edge between two nodes, with optional attributes
DOT_LINE = re.compile(r'  ("[^"]*")(?: -> ("[^"]*"))?(?: \[.*\])?;')


def digraphs(text):
    """The line lists of the DOT digraphs printed one after another."""
    graphs = []
    for line in text.splitlines():
        if line.startswith("digraph "):
            graphs.append([])
        assert graphs, f"text outside a digraph: {line!r}"
        graphs[-1].append(line)
    return graphs


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.dot.out")),
                         ids=lambda p: p.name)
def test_golden_dot_is_well_formed(path):
    """Each digraph opens with its name and rankdir, closes with a brace,
    declares each node once and draws edges only between its nodes."""
    for lines in digraphs(path.read_text()):
        assert re.fullmatch(r"digraph \w+ \{", lines[0])
        assert lines[1] == "  rankdir=BT;" and lines[-1] == "}"
        nodes, edges = [], []
        for line in lines[2:-1]:
            match = DOT_LINE.fullmatch(line)
            assert match, line
            if match[2] is None:
                nodes.append(match[1])
            else:
                edges += [match[1], match[2]]
        assert len(set(nodes)) == len(nodes)
        assert set(edges) <= set(nodes)


def write_golden():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for script, fmt in CASES:
        out, err, code = run_main(script, fmt)
        out_path, err_path = golden_paths(script, fmt)
        out_path.write_text(out)
        err_path.write_text(err)
        codes[f"{script.stem}.{fmt}"] = code
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()

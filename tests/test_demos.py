"""The demo programs under demos/ run to completion and print the chain
lengths of the paper's examples."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    """stdout of a demo run in `cwd`; fails on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def chain_lengths(stdout, separator):
    return [line.count(separator) for line in stdout.splitlines()
            if separator in line]


def test_chain_diagrams(tmp_path):
    out = run_demo("chain_diagrams.py", tmp_path)
    # the chains from (x) and (y1..ya) of prop41(m, n) have lengths n, m
    assert chain_lengths(out, " < ") == [3, 2, 5, 3]
    for m, n in ((2, 3), (3, 5)):
        dot = (tmp_path / f"chains_{m}_{n}.dot").read_text()
        assert dot.count("->") == m + n


def test_classify_two_plane_ring(tmp_path):
    out = run_demo("classify_two_plane_ring.py", tmp_path)
    assert chain_lengths(out, "  <  ") == [2]
    assert "noncatenary-domain completion: True" in out
    assert "noncatenary-UFD completion: False" in out


def test_ufd_family_tour(tmp_path):
    out = run_demo("ufd_family_tour.py", tmp_path)
    # longest and shortest chain lengths: profile {a+b, b+1} per (a, b)
    for a, b in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2)):
        assert f"({a},{b})    {a + b}      {{{a + b},{b + 1}}}" in out
    assert "prop41(2,3): noncat_domain = True / noncat_ufd = False" in out


def test_benchmark_scripts_copy_the_demo_scripts():
    """perfbench/scripts holds byte copies of demo scripts for the
    benchmark to time: a demo script edited without its copy would leave
    the benchmark timing a script the golden tests no longer check."""
    copies = sorted((ROOT / "perfbench" / "scripts").glob("*.ncat"))
    assert copies
    for copy in copies:
        demo = ROOT / "demos" / "scripts" / copy.name
        assert copy.read_bytes() == demo.read_bytes(), copy.name

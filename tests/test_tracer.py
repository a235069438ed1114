"""The traced benchmark (`perfbench/run.py --trace 1`) wraps package
callables by module and attribute name, so renaming one of them breaks the
traced run. This check installs the tracer on the current package. It runs
in a subprocess, because installing patches the importing process for good.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import importlib
import pkgutil
import sys

import noncat

for info in pkgutil.iter_modules(noncat.__path__):
    importlib.import_module(f"noncat.{info.name}")
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS, Tracer

Tracer().install()
for module, path in TARGETS.values():
    owner = sys.modules[f"noncat.{module}"]
    *cls_path, attr = path.split(".")
    wrapped = (getattr(owner, cls_path[0]).__dict__[attr] if cls_path
               else getattr(owner, attr))
    assert wrapped.__name__ == "traced", path
"""


def test_tracer_installs_on_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

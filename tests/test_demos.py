"""The demo scripts run end to end against the current API.

Three demos are run as subprocesses (a few seconds in all); the two slow
ones, which build the degree-768 double cover and run the harness, are
only byte-compiled so a renamed or removed import still shows up here.
"""

import os
import py_compile
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = os.path.join(ROOT, "demos")
ALL_DEMOS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))
FAST_DEMOS = ["tour_of_permutations.py", "normal_structure_verdicts.py",
              "elusivity_verdicts.py"]


@pytest.mark.parametrize("name", ALL_DEMOS)
def test_demo_compiles(name, tmp_path):
    py_compile.compile(os.path.join(DEMOS, name),
                       cfile=str(tmp_path / (name + "c")), doraise=True)


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join("demos", name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr

"""The demo scripts run to completion from the source tree.

Each runs as its own process with ``PYTHONPATH=src``, as their docstrings
tell a reader to run them.  Demo 04 trains a sweep of students and takes
several seconds, so it is marked ``slow``; demo 05 needs image files, so
only its ``--help`` is run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["01_synthetic_pipeline.py", "02_dropout_penalties.py",
                                  "03_group_norms.py"])
def test_demo_runs(name):
    assert run_demo(name).strip()


def test_image_recipe_help():
    assert "usage" in run_demo("05_image_recipe.py", "--help")


@pytest.mark.slow
def test_lowdata_demo_runs():
    assert run_demo("04_lowdata_hints.py").strip()

"""The demos run, and the committed demo outputs are what the demos write today."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str, tmp_path: Path) -> str:
    """Run a copy of ``demos/<name>`` in ``tmp_path`` against ``src/``; return its stdout."""
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], check=True, capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, timeout=300).stdout


def test_simulate_and_filter_demo_reproduces_committed_csvs(tmp_path):
    run_demo("01_simulate_and_filter.py", tmp_path)
    for name in ("signal_path.csv", "filter_trajectory.csv"):
        written = (tmp_path / "output" / name).read_bytes()
        assert written == (ROOT / "demos" / "output" / name).read_bytes(), name


# Printed digits are not pinned: demo 03 prints round-off gaps between routes.
@pytest.mark.parametrize("name", ["02_filter_forgetting.py", "03_derivative_routes.py",
                                  "04_model_robustness.py", "05_integrator_study.py"])
def test_demo_runs(tmp_path, name):
    assert run_demo(name, tmp_path).strip()

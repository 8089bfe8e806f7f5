"""The committed demo outputs are what the demos write today."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_simulate_and_filter_demo_reproduces_committed_csvs(tmp_path):
    script = tmp_path / "01_simulate_and_filter.py"
    shutil.copy(ROOT / "demos" / "01_simulate_and_filter.py", script)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(script)], check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": path}, timeout=300)
    for name in ("signal_path.csv", "filter_trajectory.csv"):
        written = (tmp_path / "output" / name).read_bytes()
        assert written == (ROOT / "demos" / "output" / name).read_bytes(), name

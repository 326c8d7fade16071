"""The scripts in tools/ run to completion."""

import runpy
import subprocess
import sys
from pathlib import Path

FRONT_END_SCALE = Path(__file__).parent.parent / "tools" / "front_end_scale.py"


def test_front_end_scale_prints_one_row_per_pass():
    done = subprocess.run([sys.executable, str(FRONT_END_SCALE), "--segments", "2",
                           "--repeats", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split("`")[1] for line in done.stdout.splitlines() if line.startswith("| `")]
    assert rows == list(runpy.run_path(str(FRONT_END_SCALE))["PASSES"])

"""The benchmark harness runs every workload once at a tiny size and passes
all of its output checks, so the harness cannot rot unnoticed."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

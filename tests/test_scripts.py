"""The example scripts run to completion and write their files, so an API
change that breaks them fails a test."""

import os
import subprocess
import sys

from mapproj.conic_design import SCAN_POINTS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_northern_band_map(tmp_path):
    target = tmp_path / "maps" / "northern_band.svg"
    out = _run_script("northern_band_map.py", "--out", str(target))
    assert f"wrote {target}" in out
    svg = target.read_text(encoding="utf-8")
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")
    for station in ("Saint Petersburg", "Moscow", "Tobolsk", "Irkutsk", "Okhotsk"):
        assert station in svg


def test_parallel_selection_study_profile(tmp_path):
    target = tmp_path / "profile.csv"
    out = _run_script(
        "parallel_selection_study.py", "--profile-band", "45:70", "--csv", str(target)
    )
    assert f"wrote {target}" in out
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lat_deg,quarter_error,minimax_error"
    assert len(lines) == 1 + SCAN_POINTS
    assert lines[1].startswith("45.000000,") and lines[-1].startswith("70.000000,")

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


def test_line_coverage_reports_the_function_never_called(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        '"""A module with one function its test calls and one it does not."""\n'
        "\n"
        "\n"
        "def used(x):\n"
        "    return x + 1\n"
        "\n"
        "\n"
        "def unused(x):\n"
        "    y = x * 2\n"
        "    return y\n"
    )
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import used\n\n\ndef test_used():\n    assert used(1) == 2\n"
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "line_coverage.py"),
         "--source", str(package), "--", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "1 passed" in proc.stdout
    never = [line for line in lines if line.startswith(str(package))]
    assert never == [f"{package / 'mod.py'}:9: y = x * 2", f"{package / 'mod.py'}:10: return y"]
    assert lines[-1] == f"2 of 6 executable lines under {package} never ran"

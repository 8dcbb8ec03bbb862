import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from mapproj import (
    EquidistantConic, GeoCoord, PlanePoint, geodesics, parse_projection, sample_great_circle,
)
from mapproj.cli import build_parser, main
from mapproj.conic_design import LatBand
from mapproj.errors import ParameterError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def negative_zeros(text):
    """The table or CSV fields of text that read as zero with a minus sign."""
    return [f for f in re.split(r"[\s,]+", text) if f.startswith("-") and float(f) == 0.0]


class TestProject:
    def test_mercator_example(self, capsys):
        code, out, _ = run(
            capsys, "project", "--proj", "mercator lon0=0", "--lat", "45", "--lon", "10"
        )
        assert code == 0
        assert out.strip() == "x=0.174533 y=0.881374"

    def test_out_of_hemisphere_is_exit_one(self, capsys):
        code, out, err = run(
            capsys, "project", "--proj", "gnomonic center=90,0", "--lat", "-10", "--lon", "0"
        )
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "project", "--proj", "nonsense", "--lat", "0", "--lon", "0")
        assert code == 2
        assert "valid families" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run(capsys)[0] == 2

    def test_prime_meridian_offset(self, capsys):
        # longitude 0 east of Alexandria == 29.92 east of Greenwich
        _, with_offset, _ = run(
            capsys, "--prime-meridian", "29.92",
            "project", "--proj", "mercator lon0=0", "--lat", "0", "--lon", "0",
        )
        _, direct, _ = run(
            capsys, "project", "--proj", "mercator lon0=0", "--lat", "0", "--lon", "29.92"
        )
        assert with_offset == direct

    def test_near_coincident_standard_parallels(self):
        # 1e-12° apart, the difference-of-cosines cone constant rounded to
        # exactly 0 and the command died with a ZeroDivisionError
        argv = ["project", "--proj", "equidistant_conic lat1=0.1 lat2=0.100000000001",
                "--lat", "10", "--lon", "0"]
        proc = subprocess.run(
            [sys.executable, "-m", "mapproj.cli", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        # the same point as for parallels 3.6e-3" apart
        assert proc.stdout == "x=0.000000 y=0.172788\n"


    @pytest.mark.parametrize("proj, lat, lon", [
        ("equirectangular", "0", "-0.0000001"),
        ("equirectangular", "-0.00001", "-0.00001"),
        ("mercator", "-1e-300", "-0.0"),
    ])
    def test_no_negative_zero(self, capsys, proj, lat, lon):
        # a coordinate that rounds to zero prints without its sign, as in the
        # SVG: -1e-5 degrees is -1.7e-7 rad, which %.6f prints as -0.000000
        code, out, _ = run(capsys, "project", "--proj", proj, "--lat", lat, "--lon", lon)
        assert (code, out) == (0, "x=0.000000 y=0.000000\n")


class TestInverse:
    def test_no_negative_zero(self, capsys):
        # 1e-12 south of the gnomonic tangent point: the latitude comes back
        # as a tiny negative, about -5.7e-11 degrees
        spec = "gnomonic center=0,0"
        assert -1e-10 < parse_projection(spec).inverse(PlanePoint(0.0, -1e-12)).lat_deg < 0.0
        code, out, _ = run(capsys, "inverse", "--proj", spec, "--x", "0", "--y", "-1e-12")
        assert (code, out) == (0, "lat=0.000000 lon=0.000000\n")
        code, out, _ = run(capsys, "inverse", "--proj", "mercator", "--x", "-1e-9", "--y", "-0.0")
        assert (code, out) == (0, "lat=0.000000 lon=0.000000\n")
        # the message of a non-finite point names its other coordinate, -0.0, as 0
        code, out, err = run(capsys, "inverse", "--proj", "stereographic",
                             "--x", "nan", "--y", "-0.0")
        assert (code, out, err) == (1, "", "error: no preimage: (nan, 0) is not a finite point\n")

    def test_round_trip_of_project(self, capsys):
        code, out, _ = run(
            capsys, "inverse", "--proj", "mercator lon0=0", "--x", "0.174533", "--y", "0.881374"
        )
        assert code == 0
        assert out.startswith("lat=45.0000")
        assert "lon=10.0000" in out

    def test_no_preimage_is_exit_one(self, capsys):
        code, _, err = run(
            capsys, "inverse", "--proj", "orthographic center=90,0", "--x", "2", "--y", "0"
        )
        assert code == 1
        assert "no preimage" in err

    @pytest.mark.parametrize("spec", ["gnomonic", "stereographic"])
    def test_beyond_the_limits_image_is_exit_one(self, capsys, spec):
        # 1e20 lies beyond the image of the domain, as the horizon point and
        # the projection source, which project rejects, lie beyond the domain
        code, out, err = run(capsys, "inverse", "--proj", spec, "--x", "0", "--y", "1e20")
        assert (code, out) == (1, "")
        assert err == f"error: no preimage: radius 1e+20 beyond the {spec} disc\n"

    @pytest.mark.parametrize("offset, shown", [("nan", "nan"), ("inf", "-inf"), ("-inf", "inf")])
    def test_non_finite_prime_meridian_is_exit_one(self, capsys, offset, shown):
        # the output longitude is lon - offset, which is NaN or an infinity
        code, out, err = run(
            capsys, f"--prime-meridian={offset}",
            "inverse", "--proj", "mercator", "--x", "0.1", "--y", "0.2",
        )
        assert (code, out) == (1, "")
        assert err == f"error: longitude {shown} is not finite\n"


class TestDistance:
    def test_quarter_equator(self, capsys):
        code, out, _ = run(capsys, "distance", "--from", "0,0", "--to", "0,90")
        assert code == 0
        assert out.strip() == "distance_deg=90.000000"

    def test_malformed_coordinate(self, capsys):
        code, _, err = run(capsys, "distance", "--from", "zero", "--to", "0,90")
        assert code == 1
        assert "LAT,LON" in err


class TestDistortion:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "distortion", "--proj", "mercator lon0=0",
            "--region", "0:30,0:30", "--grid", "3x3",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_csv_file(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(
            capsys, "distortion", "--proj", "mercator lon0=0",
            "--region", "0:30,0:30", "--grid", "3x3", "--out", str(target),
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("lat_deg,lon_deg,h,k")
        assert len(lines) == 10

    def test_column_on_the_tear_is_conformal(self, capsys):
        # the -80° column lies on the tear of lon0 = 100°: its stencil takes
        # the side the kernel puts it on, so Mercator's k equals h there too
        code, out, _ = run(
            capsys, "distortion", "--proj", "mercator lon0=100",
            "--region", "-60:60,-80:280", "--grid", "3x5",
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [row[1] for row in rows[:5]] == [
            "-80.0000", "10.0000", "100.0000", "-170.0000", "-80.0000"]
        assert [(h, k, omega) for _, _, h, k, _, omega, _ in rows] == [
            (h, h, "0.000000") for h in ["2.000000"] * 5 + ["1.000000"] * 5 + ["2.000000"] * 5]

    @pytest.mark.parametrize("proj, region, corner, csv_corner", [
        ("mercator", "-10:-0,-10:-0", -1, "0.000000,0.000000,"),
        ("equirectangular", "-0.00001:10,-0.00001:10", 0, "-0.000010,-0.000010,"),
        ("equirectangular", "-0.00000001:10,-0.00000001:10", 0, "0.000000,0.000000,"),
    ], ids=["-0", "-1e-5", "-1e-8"])
    def test_region_ending_at_negative_zero_prints_zero(self, capsys, tmp_path, proj, region,
                                                        corner, csv_corner):
        # the axes end at the region's bound -0.0, or start at a bound that
        # rounds to zero in the table (-1e-5°) or in the table and the CSV
        # (-1e-8°); the corner sample is 0 in the table, in the CSV as shown
        argv = ("distortion", "--proj", proj, f"--region={region}", "--grid", "3x3")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split()[:2] for line in out.splitlines()[1:]]
        assert rows[corner] == ["0.0000", "0.0000"] and negative_zeros(out) == []
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[1:][corner].startswith(csv_corner)
        assert negative_zeros(text) == []

    def test_201x201_table_is_pinned(self, capsys):
        # the benchmark's end-to-end CLI run; digest recorded before the
        # sample loop moved onto the float kernels
        code, out, _ = run(
            capsys, "distortion", "--proj", "equidistant_conic lat1=45 lat2=60",
            "--region", "40:70,-30:150", "--grid", "201x201",
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 201 * 201
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ff9616c29616ee92d6449265ae2aca4321ad6aa2703834e7ce1eb9a3351892bb"
        )

    @pytest.mark.parametrize("command", ["distortion", "properties"])
    def test_grid_above_the_cap_is_refused(self, capsys, command):
        # refused from the two sizes alone, before the axes are built
        code, out, err = run(capsys, command, "--proj", "mercator",
                             "--region", "0:10,0:10", "--grid", "11x909091")
        assert (code, out) == (1, "")
        assert err == ("error: grid of 11x909091 = 10000001 samples exceeds the cap of "
                       "10000000 samples\n")

    @pytest.mark.parametrize("option, value, message", [
        ("--region", "1:2", "expected LATLO:LATHI,LONLO:LONHI in degrees, got '1:2'"),
        ("--grid", "5", "expected NxM, got '5'"),
    ])
    def test_malformed_argument_is_exit_one(self, capsys, option, value, message):
        argv = {"--region": "0:10,0:10", "--grid": "3x3", option: value}
        code, out, err = run(capsys, "distortion", "--proj", "mercator",
                             *(item for pair in argv.items() for item in pair))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestProperties:
    def test_report_lines(self, capsys):
        code, out, _ = run(
            capsys, "properties", "--proj", "equidistant_conic lat1=45 lat2=60",
            "--region", "45:70,-60:60", "--grid", "5x5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("P1")
        assert lines[3].startswith("P4")


class TestOptimize:
    def test_prints_both_choices(self, capsys):
        code, out, _ = run(capsys, "optimize", "--band", "45:70")
        assert code == 0
        assert "quarter" in out and "minimax" in out
        assert "51.25" in out
        assert "63.75" in out

    def test_profile_csv(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "optimize", "--band", "45:70", "--profile", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "lat_deg,quarter_error,minimax_error"
        assert len(lines) > 1000

    def test_bad_band(self, capsys):
        assert run(capsys, "optimize", "--band", "70:45")[0] == 1

    @pytest.mark.parametrize("band, shown", [
        ("-10:-0", "[-10.0000°, 0.0000°]"), ("-0:-5", "[0.0000°, -5.0000°]"),
        ("-0.00001:10", "[0.0000°, 10.0000°]"),
    ], ids=["-10:-0", "-0:-5", "-0.00001:10"])
    def test_bad_band_echoes_no_negative_zero(self, capsys, band, shown):
        code, out, err = run(capsys, "optimize", f"--band={band}")
        assert (code, out) == (1, "")
        assert err == f"error: band must satisfy 0 <= lo < hi < 90°, got {shown}\n"

    def test_thin_band_at_the_pole_prints_the_quarter_rule_twice(self, capsys):
        # minimax_parallels falls back to the quarter rule on this band
        code, out, _ = run(capsys, "optimize", "--band", "89.9999:89.99999")
        quarter, minimax = out.splitlines()[1:3]
        assert code == 0
        assert (quarter.split()[0], minimax.split()[0]) == ("quarter", "minimax")
        assert quarter.split()[1:] == minimax.split()[1:]

    @pytest.mark.parametrize("lo, hi", [(70.0, 45.0), (45.0, 45.00001)])
    def test_band_error_keeps_its_reason(self, capsys, lo, hi):
        # reversed, and narrower than 1e-6 rad
        with pytest.raises(ParameterError) as expected:
            LatBand.from_degrees(lo, hi)
        code, out, err = run(capsys, "optimize", "--band", f"{lo}:{hi}")
        assert code == 1
        assert out == ""
        assert err == f"error: {expected.value}\n"

    @pytest.mark.parametrize("band", ["45-70", "45:x", "45:60:70"])
    def test_malformed_band_is_a_parse_error(self, capsys, band):
        code, _, err = run(capsys, "optimize", "--band", band)
        assert code == 1
        assert err == f"error: expected LO:HI in degrees, got {band!r}\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tol_is_exit_one(self, capsys, tol):
        code, out, err = run(capsys, "optimize", "--band", "45:70", f"--tol={tol}")
        assert code == 1
        assert out == ""
        assert err == "error: tol must be positive and finite\n"


class TestGeodesic:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "geodesic", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
            "--from", "55.75,37.6", "--to", "59.4,143.2",
        )
        assert code == 0
        assert "ratio=0.031011719" in out
        assert "radius=" in out

    @pytest.mark.parametrize("spec, src, dst, n", [
        ("equidistant_conic lat1=45 lat2=60 lon0=90", "55.75,37.6", "59.4,143.2", "101"),
        ("gnomonic center=-90,0", "-60,-30", "-50,40", "21"),
        ("mercator", "10,10", "50,120", "7"),
        # two visible samples: the fit and straightness refuse them alike
        ("orthographic center=0,0", "0,0", "0,150", "4"),
    ])
    def test_first_line_is_the_straightness_report(self, capsys, spec, src, dst, n):
        code, out, err = run(capsys, "geodesic", "--proj", spec, f"--from={src}", f"--to={dst}",
                             "-n", n)
        poly = geodesics.project_geodesic(
            parse_projection(spec), GeoCoord.from_degrees(*map(float, src.split(","))),
            GeoCoord.from_degrees(*map(float, dst.split(","))), int(n))
        try:
            report = geodesics.straightness(poly)
        except ParameterError as exc:
            assert (code, out, err) == (1, "", f"error: {exc}\n")
        else:
            assert code == 0
            assert out.splitlines()[0] == (
                f"chord={report.chord:.6f} sagitta={report.sagitta:.6f} ratio={report.ratio:.9f}")

    def test_csv_samples(self, capsys, tmp_path):
        # negative coordinates need the = form so argparse does not read
        # them as option flags
        target = tmp_path / "geo.csv"
        code, _, _ = run(
            capsys, "geodesic", "--proj", "gnomonic center=-90,0",
            "--from=-60,-30", "--to=-50,40", "-n", "21", "--csv", str(target),
        )
        assert code == 0
        assert len(target.read_text().strip().splitlines()) == 22

    @pytest.mark.parametrize("spec, src", [
        ("mercator", "-0,0"),
        ("equidistant_conic lat1=-45 lat2=-60", "-45,0"),
    ])
    def test_csv_has_no_negative_zero(self, capsys, tmp_path, spec, src):
        # the first sample's image is (0, -0.0): a latitude of -0 on Mercator,
        # the inner standard parallel on lon0 of a southern conic
        target = tmp_path / "geo.csv"
        code, _, _ = run(capsys, "geodesic", "--proj", spec, f"--from={src}", "--to", "10,10",
                         "-n", "3", "--csv", str(target))
        assert code == 0
        assert target.read_text().splitlines()[1] == "0,0"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("index", [0, 20, 40])
    def test_non_finite_image_is_exit_one(self, capsys, monkeypatch, value, index):
        # a kernel that maps one sample of the arc to a non-finite point
        target = sample_great_circle(
            GeoCoord.from_degrees(55.75, 37.6), GeoCoord.from_degrees(59.4, 143.2), 41
        )[index]
        kernel = EquidistantConic._xy

        def broken(self, lat, lon):
            x, y = kernel(self, lat, lon)
            return (value, y) if (lat, lon) == (target.lat, target.lon) else (x, y)

        monkeypatch.setattr(EquidistantConic, "_xy", broken)
        code, out, err = run(
            capsys, "geodesic", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
            "--from", "55.75,37.6", "--to", "59.4,143.2", "-n", "41",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: polyline segment 0 point {index} is not finite: ")

    def test_arc_across_the_tear_is_exit_one(self, capsys):
        # the image splits at the cut, so there is no single chord to report
        code, out, err = run(
            capsys, "geodesic", "--proj", "equidistant_conic lat1=45 lat2=60",
            "--from=60,170", "--to=60,-170",
        )
        assert code == 1
        assert "found 2" in err
        assert "ratio=" not in out

    def test_samples_above_the_cap_exit_one(self, capsys):
        code, out, err = run(
            capsys, "geodesic", "--proj", "mercator", "--from", "10,10", "--to", "20,20",
            "-n", "10000001",
        )
        assert code == 1 and out == ""
        assert err == "error: 10000001 samples exceed the cap of 10000000 samples\n"


class TestRender:
    def test_graticule_above_the_cap_is_exit_one(self, capsys):
        code, out, err = run(
            capsys, "render", "--proj", "mercator", "--region", "0:10,0:10", "--step", "1e-13",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: graticule of ")
        assert err.endswith(" samples exceeds the cap of 10000000 samples\n")

    def test_parallels_do_not_cross_the_map_at_the_tear(self, capsys):
        # lon0 = -128° puts a graticule sample on the tear; each parallel is
        # split there and neither half draws a stroke across the map
        code, out, _ = run(capsys, "render", "--proj", "mercator lon0=-128",
                           "--region", "-80:80,-180:180", "--step", "10")
        assert code == 0
        width = float(re.search(r'viewBox="0 0 (\S+) ', out).group(1))
        paths = re.findall(r'd="([^"]*)"', out.split('<g id="parallels"')[1].split("</g>")[0])
        assert len(paths) == 34
        for d in paths:
            xs = [float(x) for x in re.findall(r"[ML] (\S+) ", d)]
            assert max(abs(b - a) for a, b in zip(xs, xs[1:])) < 0.5 * width, d[:40]

    def test_malformed_geodesic_is_exit_one(self, capsys):
        code, out, err = run(capsys, "render", "--proj", "mercator", "--region", "0:10,0:10",
                             "--geodesic", "1,2")
        assert (code, out, err) == (1, "", "error: expected LAT,LON:LAT,LON, got '1,2'\n")

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "map.svg"
        code, _, _ = run(
            capsys, "render", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
            "--region", "45:70,30:150", "--step", "5,10", "--out", str(target),
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert text.endswith("</svg>\n")

    def test_gazetteer_and_geodesic_layers(self, capsys, tmp_path):
        gaz = tmp_path / "places.csv"
        gaz.write_text("name,lat,lon\nMoscow,55.75,37.6\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "render", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
            "--region", "45:70,30:150", "--step", "10",
            "--gazetteer", str(gaz), "--geodesic", "55.75,37.6:59.4,143.2",
        )
        assert code == 0
        assert ">Moscow</text>" in out
        assert 'id="geodesics"' in out

    def test_gazetteer_with_byte_order_mark(self, capsys, tmp_path):
        # spreadsheet programs write UTF-8 CSV with a leading BOM
        text = "name,lat,lon\nMoscow,55.75,37.6\n"
        svgs = []
        for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
            (tmp_path / f"{name}.csv").write_bytes(data)
            code, _, err = run(
                capsys, "render", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
                "--region", "45:70,30:150", "--step", "10",
                "--gazetteer", str(tmp_path / f"{name}.csv"),
                "--out", str(tmp_path / f"{name}.svg"),
            )
            assert (code, err) == (0, "")
            svgs.append((tmp_path / f"{name}.svg").read_bytes())
        assert b">Moscow</text>" in svgs[0]
        assert svgs[1] == svgs[0]

    def test_identical_invocations_identical_output(self, capsys):
        args = (
            "render", "--proj", "werner lon0=90", "--region", "10:60,30:150", "--step", "10"
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("row, column", [("A,nan,10", "lat"), ("A,10,NaN", "lon")])
    def test_nan_gazetteer_cell_names_its_line(self, capsys, tmp_path, row, column):
        gaz = tmp_path / "places.csv"
        gaz.write_text(f"name,lat,lon\n{row}\n", encoding="utf-8")
        code, out, err = run(
            capsys, "render", "--proj", "werner", "--region", "10:60,30:150",
            "--gazetteer", str(gaz),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: {column} out of range, line 2\n"

    def test_gazetteer_not_utf8_is_exit_one(self, capsys, tmp_path):
        gaz = tmp_path / "places.csv"
        gaz.write_bytes("name,lat,lon\nMéxico,19.4,-99.1\n".encode("latin-1"))
        code, out, err = run(
            capsys, "render", "--proj", "werner", "--region", "10:60,30:150",
            "--gazetteer", str(gaz),
        )
        assert (code, out) == (1, "")
        # "\xe9" is the 15th byte
        assert err == f"error: {gaz}: not UTF-8 at byte offset 14\n"

    def test_missing_gazetteer_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "render", "--proj", "werner", "--region", "10:60,30:150",
            "--gazetteer", str(tmp_path / "absent.csv"),
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("step", ["10,20,30", "10,20,", ",10,20"])
    def test_step_takes_at_most_two_values(self, capsys, step):
        code, out, err = run(
            capsys, "render", "--proj", "werner", "--region", "10:60,30:150", "--step", step
        )
        assert code == 1
        assert out == ""
        assert err == f"error: expected DPHI[,DLAM] in degrees, got {step!r}\n"

    @pytest.mark.parametrize("region, option, value, shown", [
        ("0:10,0:10", "--margin", "1e308", "scale 200.0 and margin 1e+308 give a map of inf by inf"),
        ("0:10,0:180", "--scale", "1e308",
         "scale 1e+308 and margin 20.0 give a map of inf by 1.754258296518183e+307"),
    ], ids=["margin", "scale"])
    def test_non_finite_map_size_is_exit_one(self, capsys, region, option, value, shown):
        assert run(
            capsys, "render", "--proj", "mercator", "--region", region, option, value
        ) == (1, "", f"error: {shown} pixels, which is not finite\n")

    @pytest.mark.parametrize("option, value", [
        ("--step", "nan"),
        ("--step", "10,"),
        ("--samples-per-degree", "nan"),
        ("--samples-per-degree", "inf"),
        ("--scale", "nan"),
        ("--scale", "0"),
        ("--scale", "-5"),
        ("--margin", "-30"),
        ("--margin", "inf"),
    ])
    def test_bad_number_is_exit_one(self, capsys, option, value):
        code, out, err = run(
            capsys, "render", "--proj", "werner", "--region", "10:60,30:150", option, value
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestNegativeValues:
    """A value that starts with "-" and a digit is a value, not an option,
    in every spelling: it parses as `--opt VALUE` exactly as `--opt=VALUE`."""

    @pytest.mark.parametrize("prefix, option, value, rest", [
        (("project", "--proj", "mercator"), "--lat", "-1e-3", ("--lon", "0")),
        (("project", "--proj", "mercator", "--lat", "10"), "--lon", "-.5", ()),
        (("inverse", "--proj", "mercator"), "--x", "-2.5E-1", ("--y", "-1e0")),
        (("properties", "--proj", "mercator"), "--region", "-30:40,-10:20", ()),
        (("distortion", "--proj", "werner", "--grid", "3x3"), "--region", "-30:-10,-60:-20", ()),
        (("distance", "--to", "-50,40"), "--from", "-60,-30", ()),
        (("distance", "--from", "10,20"), "--to", "-50,40", ()),
        (("geodesic", "--proj", "mercator", "--to", "-20,40", "-n", "11"), "--from", "-10,-30", ()),
        (("optimize", "--band", "45:70"), "--tol", "-1e-9", ()),
        (("optimize",), "--band", "-70:-45", ()),
        (("render", "--proj", "mercator", "--region", "0:10,0:20"),
         "--geodesic", "-5,-10:5,10", ()),
    ])
    def test_spaced_value_parses_like_the_equals_form(self, capsys, prefix, option, value, rest):
        spaced = run(capsys, *prefix, option, value, *rest)
        joined = run(capsys, *prefix, f"{option}={value}", *rest)
        assert spaced[0] != 2, spaced[2]
        assert spaced == joined

    def test_exponent_latitude(self, capsys):
        code, out, _ = run(capsys, "project", "--proj", "mercator", "--lat", "-1e-3", "--lon", "0")
        assert code == 0
        assert out == "x=0.000000 y=-0.000017\n"

    def test_negative_tol_reaches_its_check(self, capsys):
        code, out, err = run(capsys, "optimize", "--band", "45:70", "--tol", "-1e-9")
        assert code == 1
        assert out == ""
        assert err == "error: tol must be positive and finite\n"

    def test_global_option_takes_a_negative_value(self, capsys):
        shifted = run(capsys, "--prime-meridian", "-2.5e0",
                      "project", "--proj", "mercator", "--lat", "0", "--lon", "10")
        direct = run(capsys, "project", "--proj", "mercator", "--lat", "0", "--lon", "7.5")
        assert shifted == direct
        assert shifted[0] == 0

    @pytest.mark.parametrize("argv, shown", [
        (("--prime-meridian", "-inf", "project", "--proj", "mercator", "--lat", "1", "--lon", "2"),
         "coordinates must be finite"),
        (("project", "--proj", "mercator", "--lat", "-inf", "--lon", "2"),
         "coordinates must be finite"),
        (("project", "--proj", "mercator", "--lat", "-Infinity", "--lon", "2"),
         "coordinates must be finite"),
        (("inverse", "--proj", "mercator", "--x", "-nan", "--y", "0"),
         "no preimage: x = nan beyond the map width"),
        (("inverse", "--proj", "mercator", "--x", "0", "--y", "-NaN"),
         "no preimage: y = nan beyond the latitude cutoff"),
    ])
    def test_negative_non_finite_reaches_its_check(self, capsys, argv, shown):
        # float reads -inf, -infinity and -nan, so the spaced form is a value
        # as the joined one is, and the command rejects it: exit 1, not 2
        assert run(capsys, *argv) == (1, "", f"error: {shown}\n")

    def test_option_names_still_parse(self, capsys):
        # a value that is missing altogether is still a usage error
        code, _, err = run(capsys, "project", "--proj", "mercator", "--lat", "-1e-3", "--lon")
        assert code == 2
        assert "argument --lon: expected one argument" in err
        # a word that starts like a non-finite number is read as a value,
        # which float then refuses: a usage error that names the word
        code, _, err = run(capsys, "project", "--proj", "mercator", "--lat", "-infx", "--lon", "2")
        assert code == 2
        assert "argument --lat: invalid float value: '-infx'" in err

    @pytest.mark.parametrize("bounds, shown", [
        ("-inf:10,0:10", "latitude bounds must satisfy -90 <= lo < hi <= 90"),
        ("-Infinity:10,0:10", "latitude bounds must satisfy -90 <= lo < hi <= 90"),
        ("0:10,-inf:10", "longitude span exceeds 360°"),
        ("-nan:10,0:10", "region bound lat_lo is not a number"),
        ("0:10,-NaN:10", "region bound lon_lo is not a number"),
        ("0:10,0:nan", "region bound lon_hi is not a number"),
    ])
    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
    def test_non_finite_region_reaches_its_check(self, capsys, bounds, shown, joined):
        # a region that starts with -inf or -nan is a value in both
        # spellings; GeoRegion names a NaN bound before any ordering check
        region = (f"--region={bounds}",) if joined else ("--region", bounds)
        assert run(capsys, "render", "--proj", "mercator", *region) == (1, "", f"error: {shown}\n")


def _readme_cli_examples():
    """[argv, shown output or None] for each command of the sh block under
    README's "## CLI", with backslash continuations joined; a "#" line right
    after a command shows that command's output."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("#"):
            examples[-1][1] = line.lstrip("#").strip()
        elif line.strip():
            examples.append([shlex.split(line), None])
    return examples


class TestReadmeExamples:
    @pytest.mark.parametrize("argv, shown", [
        pytest.param(argv, shown, id=argv[1]) for argv, shown in _readme_cli_examples()
    ])
    def test_example_runs(self, capsys, tmp_path, monkeypatch, argv, shown):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "places.csv").write_text(
            "name,lat,lon\nMoscow,55.75,37.6\nTobolsk,58.2,68.25\n", encoding="utf-8"
        )
        assert argv[0] == "mapproj"
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, "")
        if shown is not None:
            assert out.strip() == shown

    def test_every_subcommand_has_an_example(self):
        examples = _readme_cli_examples()
        subcommands = build_parser()._subparsers._group_actions[0].choices
        assert sorted(argv[1] for argv, _ in examples) == sorted(subcommands)
        assert [shown for _, shown in examples if shown] == ["x=0.174533 y=0.881374"]


# runs commands in one fresh interpreter and reports, after the import and
# after each command, its exit code and whether numpy has been loaded
_NUMPY_PROBE = """
import contextlib, importlib, io, json, pkgutil, sys
import mapproj
for module in pkgutil.iter_modules(mapproj.__path__):
    importlib.import_module("mapproj." + module.name)
import mapproj.cli
report = [["import", 0, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mapproj.cli.main(argv)
    report.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(report))
"""


# one run of each command
_EVERY_COMMAND = [
    ["project", "--proj", "mercator", "--lat", "45", "--lon", "10"],
    ["inverse", "--proj", "mercator", "--x", "0.1", "--y", "0.2"],
    ["distance", "--from", "10,20", "--to", "30,40"],
    ["optimize", "--band", "45:70"],
    ["render", "--proj", "werner", "--region", "10:60,30:150", "--step", "10"],
    ["distortion", "--proj", "werner", "--region", "10:60,30:150", "--grid", "3x3"],
    ["properties", "--proj", "werner", "--region", "10:60,30:150", "--grid", "5x5"],
    ["geodesic", "--proj", "equidistant_conic lat1=45 lat2=60 lon0=90",
     "--from", "55.75,37.6", "--to", "59.4,143.2"],
]


def test_light_commands_start_without_numpy():
    # every module imports without numpy, and every command runs without it
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(_EVERY_COMMAND)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == [[name, 0, False] for name in (
        "import", "project", "inverse", "distance", "optimize", "render", "distortion",
        "properties", "geodesic")]
    assert sorted(name for name, *_ in report[1:]) == sorted(
        build_parser()._subparsers._group_actions[0].choices)


# every command again, in an interpreter where numpy cannot be imported, after
# the public unit vector, Jacobian, Tissot and arc-fit functions
_NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from mapproj import GeoCoord, parse_projection, to_unit_vector
from mapproj.cli import main
from mapproj.distortion import local_jacobian, tissot
from mapproj.geodesics import fit_circular_arc, project_geodesic
proj = parse_projection("equidistant_conic lat1=45 lat2=60 lon0=90")
a, b = GeoCoord.from_degrees(55.75, 37.6), GeoCoord.from_degrees(59.4, 143.2)
to_unit_vector(a), local_jacobian(proj, a), tissot(proj, a)
fit_circular_arc(project_geodesic(proj, a, b, 33))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_library_and_commands_run_where_numpy_cannot_be_imported():
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED, json.dumps(_EVERY_COMMAND)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == [0] * len(_EVERY_COMMAND)


def test_atlas_import_loads_no_network_or_mail_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client and email, about
    # 40 ms of render's start-up, for one escape; html.escape needs none
    heavy = ["xml.sax", "urllib.request", "http.client", "email"]
    probe = f"import sys, mapproj.atlas; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_point_commands_do_not_load_the_heavy_modules():
    # project and inverse format through geo's %.6f helper, not atlas's
    probe = (
        "import contextlib, io, sys, mapproj.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    mapproj.cli.main(['project', '--proj', 'mercator', '--lat', '1', '--lon', '2'])\n"
        "    mapproj.cli.main(['inverse', '--proj', 'mercator', '--x', '0.1', '--y', '0.2'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[-1] in "
        "('atlas', 'distortion', 'geodesics')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

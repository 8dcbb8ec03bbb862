import math

import numpy as np
import pytest

from mapproj import (
    EquidistantConic,
    GeoCoord,
    Gnomonic,
    Mercator,
    Orthographic,
    PlanePoint,
    sample_great_circle,
)
from mapproj.geodesics import (
    PlanePolyline,
    _circle_through,
    fit_circular_arc,
    project_geodesic,
    project_polyline,
    straightness,
)
from mapproj.errors import DomainError, ParameterError

MOSCOW = GeoCoord.from_degrees(55.75, 37.6)
OKHOTSK = GeoCoord.from_degrees(59.4, 143.2)
DELISLE = EquidistantConic(math.radians(45), math.radians(60), lon0=math.radians(90))


def _circle_points(cx, cy, r, ang0, ang1, n):
    return tuple(
        PlanePoint(cx + r * math.cos(t), cy + r * math.sin(t))
        for t in np.linspace(ang0, ang1, n)
    )


class TestPlanePolyline:
    def test_short_segment_rejected(self):
        with pytest.raises(ParameterError):
            PlanePolyline(((PlanePoint(0, 0),),))

    def test_single_segment_accessor(self):
        seg = (PlanePoint(0, 0), PlanePoint(1, 0))
        assert PlanePolyline((seg,)).single_segment == seg
        with pytest.raises(ParameterError):
            PlanePolyline((seg, seg)).single_segment


class TestNonFinitePoints:
    """A NaN sample once made the sagitta depend on where it sat (a middle
    NaN gave a straight line); non-finite points are now rejected."""

    @pytest.mark.parametrize("measure", [straightness, fit_circular_arc])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_rejected_naming_segment_and_index(self, measure, value, index):
        bow = [PlanePoint(float(i), 0.1 * i * (4 - i)) for i in range(5)]
        for bad in (PlanePoint(value, bow[index].y), PlanePoint(bow[index].x, value)):
            points = bow[:index] + [bad] + bow[index + 1:]
            with pytest.raises(ParameterError, match=f"^polyline segment 0 point {index} "):
                measure(PlanePolyline((tuple(points),)))
            with pytest.raises(ParameterError, match=f"^polyline segment 1 point {index} "):
                PlanePolyline((tuple(bow), tuple(points)))


class TestProjectGeodesic:
    def test_gnomonic_images_are_collinear(self):
        proj = Gnomonic(center=GeoCoord.from_degrees(-50, 10))
        poly = project_geodesic(
            proj, GeoCoord.from_degrees(-70, -20), GeoCoord.from_degrees(-35, 55), 33
        )
        assert straightness(poly).ratio < 1e-9

    def test_meridian_under_conic_is_straight(self):
        poly = project_geodesic(
            DELISLE, GeoCoord.from_degrees(46, 50), GeoCoord.from_degrees(69, 50), 41
        )
        assert straightness(poly).ratio < 1e-12

    def test_moscow_okhotsk_bow(self):
        poly = project_geodesic(DELISLE, MOSCOW, OKHOTSK, 101)
        assert len(poly.segments) == 1
        report = straightness(poly)
        assert report.ratio == pytest.approx(0.03101171871228205, abs=1e-12)

    def test_domain_breaks(self):
        # a geodesic arcing above the Mercator cutoff splits in two
        proj = Mercator(cutoff=math.radians(70))
        a = GeoCoord.from_degrees(65, -60)
        b = GeoCoord.from_degrees(65, 60)
        top = max(p.lat_deg for p in sample_great_circle(a, b, 201))
        assert top > 70
        poly = project_geodesic(proj, a, b, 201)
        assert len(poly.segments) == 2

    def test_splits_at_the_tear(self):
        # 60N 170E -> 60N 170W crosses the conic's cut at 180 degrees
        proj = EquidistantConic(math.radians(45), math.radians(60))
        poly = project_geodesic(
            proj, GeoCoord.from_degrees(60, 170), GeoCoord.from_degrees(60, -170), 41
        )
        assert len(poly.segments) == 2

    def test_both_endpoints_outside_rejected(self):
        proj = Mercator(cutoff=math.radians(70))
        with pytest.raises(DomainError):
            project_geodesic(
                proj, GeoCoord.from_degrees(80, 0), GeoCoord.from_degrees(82, 40), 11
            )

    @pytest.mark.parametrize("a, b", [((0, 120), (10, 150)), ((0, -100), (0, 100))])
    def test_both_endpoints_outside_message(self, a, b):
        # the second arc crosses the visible hemisphere, and is refused all the same
        a, b = GeoCoord.from_degrees(*a), GeoCoord.from_degrees(*b)
        with pytest.raises(DomainError) as err:
            project_geodesic(Orthographic(center=GeoCoord(0.0, 0.0)), a, b, 21)
        assert str(err.value) == (
            f"both endpoints {a.describe()} and {b.describe()} lie outside the domain")

    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_endpoint_outside_keeps_the_visible_run(self, reverse):
        # samples every 12.5 degrees; the 8 nearest lon 0 lie on the visible hemisphere
        proj = Orthographic(center=GeoCoord(0.0, 0.0))
        a, b = GeoCoord.from_degrees(0, 0), GeoCoord.from_degrees(0, 150)
        if reverse:
            a, b = b, a
        arc = sample_great_circle(a, b, 13)
        visible = arc[5:] if reverse else arc[:8]
        poly = project_geodesic(proj, a, b, 13)
        assert poly.segments == (tuple(proj.forward(c) for c in visible),)
        assert poly.note is None

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            project_geodesic(DELISLE, MOSCOW, OKHOTSK, 2)


class TestProjectPolyline:
    def test_note_projects_one_sample_after_the_curve(self, monkeypatch):
        # visible and hidden samples alternate, so no run of 2 is left; the
        # note is the message of the first hidden sample, taken from one
        # projection of it rather than of every sample up to it
        curve_kernel, xy_kernel = Orthographic._curve, Orthographic._xy
        calls = []

        def curve(self, lats, lons):
            result = curve_kernel(self, lats, lons)
            calls.append("curve")
            return result

        def xy(self, lat, lon):
            calls.append("xy")
            return xy_kernel(self, lat, lon)

        monkeypatch.setattr(Orthographic, "_curve", curve)
        monkeypatch.setattr(Orthographic, "_xy", xy)
        curve = [GeoCoord.from_degrees(0, lon) for lon in (0, 120, 10, 130, 20)]
        poly = project_polyline(Orthographic(center=GeoCoord(0.0, 0.0)), curve)
        assert poly.segments == ()
        assert poly.note == (
            "(lat 0.000000°, lon 120.000000°) outside orthographic domain: "
            "on the hidden hemisphere")
        assert calls[calls.index("curve") + 1:] == ["xy"]


class TestStraightness:
    def test_collinear(self):
        poly = PlanePolyline(((PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2)),))
        assert straightness(poly).ratio == 0.0

    def test_semicircle_ratio_half(self):
        # 101 samples include the apex exactly: sagitta = r, chord = 2r
        poly = PlanePolyline((_circle_points(0, 0, 3.0, 0.0, math.pi, 101),))
        report = straightness(poly)
        assert report.chord == pytest.approx(6.0, abs=1e-12)
        assert report.sagitta == pytest.approx(3.0, abs=1e-12)
        assert report.ratio == pytest.approx(0.5, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ParameterError):
            straightness(PlanePolyline(((PlanePoint(0, 0), PlanePoint(1, 0)),)))


class TestFitCircularArc:
    def test_exact_circle_recovered(self):
        poly = PlanePolyline((_circle_points(2.0, -1.0, 5.0, 0.3, 1.9, 60),))
        fit = fit_circular_arc(poly)
        assert not fit.collinear
        assert fit.radius == pytest.approx(5.0, abs=1e-9)
        assert fit.center.x == pytest.approx(2.0, abs=1e-9)
        assert fit.center.y == pytest.approx(-1.0, abs=1e-9)
        assert fit.max_residual < 1e-12

    def test_collinear_points_have_no_circumcircle(self):
        with pytest.raises(ParameterError, match="^collinear points have no circumcircle$"):
            _circle_through(0.0, 0.0, 1.0, 2.0, 2.0, 4.0)

    def test_collinear_flag(self):
        poly = PlanePolyline(
            ((PlanePoint(0, 0), PlanePoint(1, 2), PlanePoint(2, 4), PlanePoint(3, 6)),)
        )
        fit = fit_circular_arc(poly)
        assert fit.collinear
        assert math.isinf(fit.radius)

    def test_moscow_okhotsk_arc(self):
        # the bow hugs a circle whose radius dwarfs the chord; frozen values
        poly = project_geodesic(DELISLE, MOSCOW, OKHOTSK, 101)
        report = straightness(poly)
        fit = fit_circular_arc(poly)
        assert fit.radius == pytest.approx(3.6394674264483577, abs=1e-9)
        assert fit.radius / fit.chord == pytest.approx(4.045239312149812, abs=1e-9)
        assert fit.max_residual < 0.1 * report.sagitta
        assert fit.radius > fit.chord

    def test_rigid_motion_invariance(self):
        base = _circle_points(0.0, 0.0, 4.0, -0.4, 1.1, 40)
        theta = 0.77
        moved = tuple(
            PlanePoint(
                math.cos(theta) * p.x - math.sin(theta) * p.y + 13.0,
                math.sin(theta) * p.x + math.cos(theta) * p.y - 7.0,
            )
            for p in base
        )
        f0 = fit_circular_arc(PlanePolyline((base,)))
        f1 = fit_circular_arc(PlanePolyline((moved,)))
        assert f1.max_residual == pytest.approx(f0.max_residual, abs=1e-12)
        assert f1.radius == pytest.approx(f0.radius, abs=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(ParameterError):
            fit_circular_arc(PlanePolyline(((PlanePoint(0, 0), PlanePoint(1, 0)),)))


class TestSamplingConvergence:
    def test_doubling_samples_barely_moves_sagitta(self):
        coarse = straightness(project_geodesic(DELISLE, MOSCOW, OKHOTSK, 101)).sagitta
        fine = straightness(project_geodesic(DELISLE, MOSCOW, OKHOTSK, 201)).sagitta
        assert abs(fine - coarse) / coarse < 0.01

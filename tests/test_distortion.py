import dataclasses
import hashlib
import math
import pickle
import random
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapproj import (
    EquidistantConic,
    Equirectangular,
    GeoCoord,
    GeoRegion,
    LambertAzimuthalEqualArea,
    LambertConformalConic,
    LambertCylindricalEqualArea,
    Mercator,
    Stereographic,
    conic_constants,
    parse_projection,
)
from mapproj.conic_design import parallel_scale
from mapproj import distortion
from mapproj.distortion import (
    STEP,
    _SCAN_FIELDS,
    DistortionSample,
    FieldRange,
    PropertyReport,
    distortion_grid,
    euler_property_report,
    grid_to_csv,
    local_jacobian,
    max_distortion_scan,
    tissot,
)
from mapproj.errors import DomainError, MapError, ParameterError
from mapproj.geo import HALF_PI, MAX_SAMPLES, linspace, wrap_longitude
from mapproj.projections import PlanePoint, Projection, _Conic, _Cylindrical
from conftest import TEAR_FAMILIES, TEAR_LON0S, all_family_instances


@dataclass(frozen=True)
class _Affine(Projection):
    """x = p*lat + q*lon, y = r*lat + s*lon: a constant Jacobian."""

    p: float
    q: float
    r: float
    s: float
    family: ClassVar[str] = "affine"

    def forward(self, c: GeoCoord) -> PlanePoint:
        return PlanePoint(self.p * c.lat + self.q * c.lon, self.r * c.lat + self.s * c.lon)


def _svd_reference(proj, c):
    """Tissot axes and omega from an SVD of the metric-scaled Jacobian."""
    jac = np.array(local_jacobian(proj, c))
    jac[:, 1] /= math.cos(c.lat)
    a, b = np.linalg.svd(jac, compute_uv=False)
    return a, b, 2.0 * math.asin((a - b) / (a + b))


class TestLocalJacobian:
    def test_equirectangular_is_exactly_linear(self):
        proj = Equirectangular(phi0=math.radians(36))
        jac = np.array(local_jacobian(proj, GeoCoord.from_degrees(20, 30)))
        assert jac[0, 0] == pytest.approx(0.0, abs=1e-10)
        assert jac[0, 1] == pytest.approx(math.cos(math.radians(36)), abs=1e-10)
        assert jac[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert jac[1, 1] == pytest.approx(0.0, abs=1e-10)

    def test_mercator_matches_analytic_derivative(self):
        proj = Mercator()
        for lat_deg in (0.0, 31.0, 62.0):
            jac = np.array(local_jacobian(proj, GeoCoord.from_degrees(lat_deg, 5)))
            sec = 1.0 / math.cos(math.radians(lat_deg))
            assert jac[1, 0] == pytest.approx(sec, rel=1e-5)

    def test_stereographic_matches_analytic_derivative(self):
        # polar aspect along lon 0: x = 2 cos(lat)/(1 - sin(lat)),
        # symbolic derivative dx/dlat = 2/(1 - sin(lat))
        proj = Stereographic()
        lat = math.radians(-45)
        jac = np.array(local_jacobian(proj, GeoCoord(lat, 0.0)))
        assert jac[0, 0] == pytest.approx(2.0 / (1.0 - math.sin(lat)), rel=1e-5)

    def test_step_shrinks_once_at_domain_edge(self):
        proj = Mercator()  # cutoff at 85 deg
        edge = GeoCoord(proj.cutoff - 5e-7, 0.0)
        jac = np.array(local_jacobian(proj, edge))
        assert np.isfinite(jac).all()

    def test_raises_after_single_shrink(self):
        proj = Mercator()
        with pytest.raises(DomainError):
            local_jacobian(proj, GeoCoord(proj.cutoff - 1e-9, 0.0))

    @pytest.mark.parametrize("lon_deg", [180.0, -180.0, 180.0 - 1e-5, -180.0 + 1e-5])
    def test_conic_at_the_tear_matches_closed_form(self, lon_deg):
        # central differences here would straddle the cut and difference
        # the two map edges against each other
        pa, pb = math.radians(45), math.radians(60)
        lat = math.radians(50)
        closed = parallel_scale(conic_constants(pa, pb), pa, lat)
        sample = tissot(EquidistantConic(pa, pb), GeoCoord(lat, math.radians(lon_deg)))
        assert sample.k == pytest.approx(closed, abs=1e-8)


@pytest.mark.parametrize("lon0", TEAR_LON0S)
@pytest.mark.parametrize("family", TEAR_FAMILIES)
def test_scale_on_the_tear_matches_the_central_meridian(family, lon0):
    # k depends on the latitude alone on these maps, so the one-sided
    # stencil on the cut and an ulp either side must find the value of the
    # central meridian; the stencil's side follows the kernel's wrap
    proj = parse_projection(f"{family} lon0={lon0}")
    lat = math.radians(50)
    centre = GeoCoord(lat, proj.lon0)
    k = tissot(proj, centre).k
    k_column = np.hypot(*np.array(local_jacobian(proj, centre))[:, 1])
    cut = proj.cut_longitude
    for lon in (math.nextafter(cut, -math.inf), cut, math.nextafter(cut, math.inf)):
        c = GeoCoord(lat, lon)
        assert tissot(proj, c).k == pytest.approx(k, rel=1e-6), lon
        assert np.hypot(*np.array(local_jacobian(proj, c))[:, 1]) == pytest.approx(
            k_column, rel=1e-6), lon


class TestTissot:
    def test_mercator_equator_is_undistorted(self):
        s = tissot(Mercator(), GeoCoord(0, 0))
        assert s.h == pytest.approx(1.0, abs=1e-9)
        assert s.k == pytest.approx(1.0, abs=1e-9)
        assert s.a == pytest.approx(1.0, abs=1e-9)
        assert s.b == pytest.approx(1.0, abs=1e-9)
        assert s.omega == pytest.approx(0.0, abs=1e-9)

    def test_mercator_at_60(self):
        s = tissot(Mercator(), GeoCoord.from_degrees(60, 10))
        assert s.h == pytest.approx(2.0, rel=1e-9)
        assert s.k == pytest.approx(2.0, rel=1e-9)
        assert s.omega == pytest.approx(0.0, abs=1e-9)
        assert s.s == pytest.approx(4.0, rel=1e-9)

    def test_delisle_conic_at_70(self):
        s = tissot(
            EquidistantConic(math.radians(45), math.radians(60)),
            GeoCoord.from_degrees(70, 20),
        )
        assert s.h == pytest.approx(1.0, abs=1e-9)
        assert s.k == pytest.approx(1.0582090546569827, abs=1e-8)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            tissot(Equirectangular(), GeoCoord.from_degrees(90, 0))

    @pytest.mark.parametrize("proj", all_family_instances(), ids=lambda p: p.family)
    def test_sample_invariants(self, proj, rng):
        from conftest import sample_in_domain

        for c in sample_in_domain(proj, rng, 40):
            if abs(c.lat) > math.radians(89):
                continue
            try:
                s = tissot(proj, c)
            except DomainError:
                continue
            assert s.h > 0 and s.k > 0 and s.a > 0 and s.b > 0
            assert s.b <= min(s.h, s.k) + 1e-9
            assert max(s.h, s.k) <= s.a + 1e-9
            assert s.s == pytest.approx(s.a * s.b, abs=1e-9)


class TestTissotAxesClosedForm:
    """tissot's closed-form singular values against numpy's SVD of the same
    finite-difference Jacobian; b is compared relative to a, the norm of the
    matrix, as an SVD's accuracy is."""

    @staticmethod
    def _check(proj, c):
        a, b, omega = _svd_reference(proj, c)
        sample = tissot(proj, c)
        assert sample.a == pytest.approx(a, rel=1e-12)
        assert sample.b == pytest.approx(b, rel=1e-12, abs=1e-12 * a)
        assert sample.omega == pytest.approx(omega, rel=1e-12, abs=1e-12)
        return sample

    def test_random_affine_maps(self, rng):
        for _ in range(200):
            proj = _Affine(*(rng.uniform(-2.0, 2.0) for _ in range(4)))
            c = GeoCoord(rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0))
            self._check(proj, c)

    def test_mirror_image(self):
        # det < 0: the map reverses orientation
        proj = _Affine(1.3, 0.4, 0.2, -0.9)
        sample = self._check(proj, GeoCoord.from_degrees(35, 20))
        assert sample.a * sample.b == pytest.approx(
            abs(1.3 * -0.9 - 0.4 * 0.2) / math.cos(math.radians(35)), rel=1e-9
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["conformal", "mirror-conformal"])
    def test_conformal(self, sign):
        # a scaled rotation (or reflection) at the origin, where cos(lat) = 1
        # and every finite difference is exact to a few ulp
        alpha, beta = 1.7, 0.6
        proj = _Affine(
            alpha * math.cos(beta), -sign * alpha * math.sin(beta),
            alpha * math.sin(beta), sign * alpha * math.cos(beta),
        )
        sample = self._check(proj, GeoCoord(0.0, 0.0))
        assert sample.omega == pytest.approx(0.0, abs=1e-12)
        assert sample.a == pytest.approx(alpha, rel=1e-12)
        assert sample.b == pytest.approx(alpha, rel=1e-12)

    def test_near_conformal(self):
        # b / a = 1 - 1e-6: omega is about 1e-6 and keeps its digits
        alpha, beta = 1.7, 0.6
        stretch = 1.0 - 1e-6
        proj = _Affine(
            alpha * math.cos(beta), -alpha * stretch * math.sin(beta),
            alpha * math.sin(beta), alpha * stretch * math.cos(beta),
        )
        sample = self._check(proj, GeoCoord(0.0, 0.0))
        assert sample.omega == pytest.approx(2.0 * math.asin(1e-6 / (2.0 - 1e-6)), rel=1e-9)


class TestPropertyReport:
    def test_delisle_conic(self):
        # straight isometric meridians, orthogonal crossings; only the degree
        # ratio is off, peaking at the top band edge
        rep = euler_property_report(
            EquidistantConic(math.radians(45), math.radians(60)),
            GeoRegion.from_degrees(45, 70, -60, 60),
            11, 13,
        )
        assert rep.p1 < 1e-12
        assert rep.p2 < 1e-9  # finite-difference roundoff floor
        assert rep.p3 < 1e-9
        assert rep.p4 == pytest.approx(0.058209054657, abs=1e-8)

    def test_mercator(self):
        rep = euler_property_report(
            Mercator(), GeoRegion.from_degrees(20, 50, -30, 30), 9, 9
        )
        assert rep.p1 < 1e-12
        assert rep.p3 < 1e-12
        assert rep.p2 == pytest.approx(1.0 / math.cos(math.radians(50)) - 1.0, rel=1e-6)
        assert rep.p4 < 1e-9  # conformality preserves the degree ratio

    def test_mercator_full_width_across_the_tear(self):
        rep = euler_property_report(
            Mercator(), GeoRegion.from_degrees(-60, 60, -180, 180), 41, 41
        )
        assert rep.p3 < 1e-6
        assert rep.p4 < 1e-6

    def test_equirectangular_at_45(self):
        rep = euler_property_report(
            Equirectangular(phi0=math.radians(45)),
            GeoRegion.from_degrees(30, 60, -40, 40),
            9, 9,
        )
        assert rep.p1 < 1e-12
        assert rep.p2 < 1e-9
        assert rep.p3 < 1e-12
        want = max(
            abs(math.cos(math.radians(45)) / math.cos(math.radians(lat)) - 1.0)
            for lat in (30.0, 60.0)
        )
        assert rep.p4 == pytest.approx(want, rel=1e-6)

    def test_equality_and_hash(self):
        # the four maxima are the whole value
        args = (Mercator(), GeoRegion.from_degrees(20, 50, -30, 30), 9, 9)
        a, b = euler_property_report(*args), euler_property_report(*args)
        assert [f.name for f in dataclasses.fields(a)] == ["p1", "p2", "p3", "p4"]
        assert a == b and hash(a) == hash(b)
        assert a == PropertyReport(a.p1, a.p2, a.p3, a.p4)
        c = euler_property_report(Mercator(), GeoRegion.from_degrees(20, 60, -30, 30), 9, 9)
        assert a != c

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ParameterError):
            euler_property_report(
                Mercator(), GeoRegion.from_degrees(0, 10, 0, 10), 2, 5
            )

    def test_cylindrical_families_have_straight_vertical_meridians(self):
        # the axis-aligned class: meridian images perpendicular to the x axis
        region = GeoRegion.from_degrees(10, 55, -50, 50)
        for proj in (
            Equirectangular(phi0=math.radians(20)),
            Mercator(),
            LambertCylindricalEqualArea(phi0=math.radians(10)),
        ):
            rep = euler_property_report(proj, region, 9, 9)
            assert rep.p1 < 1e-12
            lons = np.linspace(region.lon_lo, region.lon_hi, 9)
            lats = np.linspace(region.lat_lo, region.lat_hi, 9)
            for lon in lons:
                xs = [proj.forward(GeoCoord(lat, lon)).x for lat in lats]
                assert max(xs) - min(xs) < 1e-12


class TestConformalAndEqualArea:
    @pytest.mark.parametrize(
        "proj,region",
        [
            (Stereographic(), GeoRegion.from_degrees(-70, -15, -60, 60)),
            (Mercator(), GeoRegion.from_degrees(-60, 60, -90, 90)),
            (
                LambertConformalConic(math.radians(45), math.radians(60)),
                GeoRegion.from_degrees(25, 80, -60, 60),
            ),
        ],
        ids=("stereographic", "mercator", "lcc"),
    )
    def test_conformal_axes_equal(self, proj, region):
        rows = distortion_grid(proj, region, 9, 9)
        worst = max(abs(s.a / s.b - 1.0) for _, s in rows)
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "proj,region",
        [
            (LambertAzimuthalEqualArea(), GeoRegion.from_degrees(-40, 80, -120, 120)),
            (
                LambertCylindricalEqualArea(phi0=math.radians(30)),
                GeoRegion.from_degrees(-70, 70, -120, 120),
            ),
        ],
        ids=("azimuthal", "cylindrical"),
    )
    def test_equal_area_unit_area_scale(self, proj, region):
        rows = distortion_grid(proj, region, 9, 9)
        worst = max(abs(s.s - 1.0) for _, s in rows)
        assert worst < 1e-6


class TestScan:
    def test_conic_band_edge_argmax(self):
        scan = max_distortion_scan(
            EquidistantConic(math.radians(45), math.radians(60)),
            GeoRegion.from_degrees(45, 70, -60, 60),
            11, 11,
        )
        assert scan["k"].max_value == pytest.approx(1.0582090546569827, abs=1e-8)
        assert scan["k"].argmax.lat_deg == pytest.approx(70.0)
        assert scan["h"].max_value == pytest.approx(1.0, abs=1e-9)

    def test_conformal_family_zero_omega(self):
        scan = max_distortion_scan(
            Mercator(), GeoRegion.from_degrees(-50, 50, -60, 60), 7, 7
        )
        assert scan["omega"].max_value < 1e-6

    def test_equal_area_family_unit_s(self):
        scan = max_distortion_scan(
            LambertAzimuthalEqualArea(), GeoRegion.from_degrees(0, 70, -90, 90), 7, 7
        )
        assert abs(scan["s"].max_value - 1.0) < 1e-6
        assert abs(scan["s"].min_value - 1.0) < 1e-6

    def test_deterministic(self):
        region = GeoRegion.from_degrees(45, 70, -60, 60)
        proj = EquidistantConic(math.radians(45), math.radians(60))
        one = max_distortion_scan(proj, region, 7, 7)
        two = max_distortion_scan(proj, region, 7, 7)
        assert one == two

    def test_ties_keep_the_first_grid_point(self):
        # the grid is far finer than an ulp of the step, so every stencil
        # reads the same floats and every sample of every field ties
        proj, region = _Affine(1.3, 0.4, 0.2, -0.9), GeoRegion(0.0, 1e-30, 0.0, 1e-30)
        rows = distortion_grid(proj, region, 3, 4)
        assert len({sample for _, sample in rows}) == 1
        assert len({c for c, _ in rows}) == 12
        scan = max_distortion_scan(proj, region, 3, 4)
        for field in _SCAN_FIELDS:
            assert scan[field].argmin == scan[field].argmax == rows[0][0] == GeoCoord(0.0, 0.0)

    @pytest.mark.parametrize("proj, region, shape", [
        (EquidistantConic(math.radians(45), math.radians(60)),
         GeoRegion.from_degrees(45, 70, -60, 60), (11, 13)),
        # symmetric about the equator: every field has tied extremes
        (Mercator(), GeoRegion.from_degrees(-60, 60, -180, 180), (9, 9)),
    ], ids=["conic", "mercator-world"])
    def test_matches_the_explicit_loop(self, proj, region, shape):
        rows = distortion_grid(proj, region, *shape)
        want = {}
        for field in _SCAN_FIELDS:
            lo_c, lo_v = rows[0][0], getattr(rows[0][1], field)
            hi_c, hi_v = rows[0][0], getattr(rows[0][1], field)
            for c, sample in rows[1:]:
                v = getattr(sample, field)
                if v < lo_v:
                    lo_c, lo_v = c, v
                if v > hi_v:
                    hi_c, hi_v = c, v
            want[field] = FieldRange(min_value=lo_v, max_value=hi_v, argmin=lo_c, argmax=hi_c)
        assert max_distortion_scan(proj, region, *shape) == want


class TestCsvExport:
    def test_header_and_shape(self):
        rows = distortion_grid(Mercator(), GeoRegion.from_degrees(0, 10, 0, 10), 3, 4)
        text = grid_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "lat_deg,lon_deg,h,k,theta_prime_deg,a,b,omega_deg,s"
        assert len(lines) == 1 + 12
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.0)
        assert float(first[4]) == pytest.approx(90.0, abs=1e-6)


# The analysis benchmark's six families on its unjittered regions, plus one
# region east of the antimeridian (longitudes past 180° wrap): SHA-256 of the
# distortion grid's CSV and of the property report's floats, recorded before
# the sample loops moved onto the per-family float kernels. The azimuthal two
# were recorded again when the azimuthal forward stopped forming the tangent
# vector: against the same stencils evaluated at 40 digits, the median error
# of the Jacobians, Tissot fields and column images fell in all four.
BAND, WIDE = (45.0, 70.0, 30.0, 150.0), (10.0, 80.0, 120.0, 260.0)
ANALYSIS_CASES = {
    "equidistant_conic": ("equidistant_conic lat1=45 lat2=60 lon0=90", BAND),
    "stereographic": ("stereographic center=57.5,90", BAND),
    "lambert_conformal_conic": ("lambert_conformal_conic lat1=45 lat2=60 lon0=90", BAND),
    "lambert_azimuthal_equal_area": ("lambert_azimuthal_equal_area center=57.5,90", BAND),
    "werner": ("werner", (20.0, 50.0, -40.0, 40.0)),
    "mercator": ("mercator", (-60.0, 60.0, -180.0, 180.0)),
}
ANALYSIS_DIGESTS = {
    ('equidistant_conic', False): "13b147080cf49440184a1ca4b8f28db5c1da6f3c90a18d155e7633d689877868",
    ('equidistant_conic', True): "9dd6434ad4458bf6597687367098b26e1767916cc6520041c15441ef09e146dd",
    ('lambert_azimuthal_equal_area', False): "b5ce1ffd6e5c45f2b8b4c8a78d524460a1b2f278dd3bf0bc12a6ed9e4b0476ca",
    ('lambert_azimuthal_equal_area', True): "0e10dc47ce13b92ee6a68bea852c1ce244c58f64a8a666e9ae059c7b5b2596a6",
    ('lambert_conformal_conic', False): "13a7a85b3dc5d8756f23aecada0e875336eaaa71a2ccb380c4f300d1e9418197",
    ('lambert_conformal_conic', True): "2d2f8c26627a5a910e4f617cf9cf9aafa53eb52fa0b33a820a00d0af9ad2aa75",
    ('mercator', False): "6fceb841072a652b249bafe04337015fc787e5620de2608049293d1c23c65994",
    ('mercator', True): "efde233f3658922a709771bba56189b038508d8d8dfa2e481ecfaebdc83a349b",
    ('stereographic', False): "c837f3565b6d554aa9ed92f02a7b0ea9c7753d34c9bf54c09086a8114bce7abf",
    ('stereographic', True): "6f32931ad37b9a73f9011f763f13cb35976261908c79a1a4aeb8cbdbf8dac566",
    ('werner', False): "27fa776ee000dcb167dbfaa3ceb5eb92cec57b7297a00a41d96bbde4ac735093",
    ('werner', True): "dd534cf81b49e123a5dd8e49bd7cb06d49a89c1ee0497c1b028ac9490e0eb0f7",
}


def _analysis_digest(spec, region, n=13):
    proj = parse_projection(spec)
    region = GeoRegion.from_degrees(*region)
    text = grid_to_csv(distortion_grid(proj, region, n, n))
    rep = euler_property_report(proj, region, n, n)
    text += " ".join(v.hex() for v in (rep.p1, rep.p2, rep.p3, rep.p4))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(ANALYSIS_CASES))
@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
def test_analysis_outputs_are_pinned(family, wide):
    spec, region = ANALYSIS_CASES[family]
    assert _analysis_digest(spec, WIDE if wide else region) == ANALYSIS_DIGESTS[family, wide]


@dataclass(frozen=True)
class _AffineKernel(Projection):
    """_Affine written as a float kernel instead of a forward."""

    p: float
    q: float
    r: float
    s: float
    family: ClassVar[str] = "affine"

    def _xy(self, lat, lon):
        return self.p * lat + self.q * lon, self.r * lat + self.s * lon


class TestKernelContract:
    def test_forward_only_and_kernel_only_subclasses_agree(self, rng):
        for _ in range(50):
            coeffs = [rng.uniform(-2.0, 2.0) for _ in range(4)]
            c = GeoCoord(rng.uniform(-1.4, 1.4), rng.uniform(-3.0, 3.0))
            assert tissot(_Affine(*coeffs), c) == tissot(_AffineKernel(*coeffs), c)
            assert _Affine(*coeffs).forward(c) == _AffineKernel(*coeffs).forward(c)
            assert _Affine(*coeffs)._xy(c.lat, c.lon) == _AffineKernel(*coeffs)._xy(c.lat, c.lon)

    def test_projection_without_either_is_abstract(self):
        with pytest.raises(NotImplementedError):
            tissot(Projection(), GeoCoord(0.5, 0.5))

    def test_report_loop_builds_no_point_objects(self, monkeypatch):
        # the Tissot loop and P1's meridian images run on floats; the grid
        # builds one GeoCoord per returned row
        counts = {"GeoCoord": 0, "PlanePoint": 0}
        for cls in (GeoCoord, PlanePoint):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
                counts[_name] += 1
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        # regions inside each family's domain: the polar azimuthal aspects
        # see one hemisphere
        south, north = (-70, -40, -30, 30), (40, 70, -30, 30)
        regions = {"stereographic": south, "gnomonic": south, "central": north,
                   "orthographic": north}
        for proj in all_family_instances():
            region = GeoRegion.from_degrees(*regions.get(proj.family, (10, 40, -30, 30)))
            counts.update(GeoCoord=0, PlanePoint=0)
            euler_property_report(proj, region, 7, 9)
            assert counts == {"GeoCoord": 0, "PlanePoint": 0}, proj.family
            assert len(distortion_grid(proj, region, 7, 9)) == 63
            assert counts == {"GeoCoord": 63, "PlanePoint": 0}, proj.family


def _counting_affine():
    calls = []

    @dataclass(frozen=True)
    class Counting(_Affine):
        def forward(self, c):
            calls.append(c)
            return super().forward(c)

    return Counting(1.0, 0.2, 0.1, 1.0), calls


SMALL = GeoRegion.from_degrees(0, 10, 0, 10)
ENTRIES = {
    "local_jacobian": lambda proj, *extra, **kw: local_jacobian(
        proj, GeoCoord(0.5, 0.5), *extra, **kw),
    "tissot": lambda proj, *extra, **kw: tissot(proj, GeoCoord(0.5, 0.5), *extra, **kw),
    "distortion_grid": lambda proj, *extra, **kw: distortion_grid(
        proj, SMALL, 3, 3, *extra, **kw),
    "euler_property_report": lambda proj, *extra, **kw: euler_property_report(
        proj, SMALL, 3, 3, *extra, **kw),
    "max_distortion_scan": lambda proj, *extra, **kw: max_distortion_scan(
        proj, SMALL, 3, 3, *extra, **kw),
}
ENTRY_NODES = {
    "local_jacobian": [(0.5, 0.5)],
    "tissot": [(0.5, 0.5)],
}
# regions inside each family's domain that cross 180°: the polar azimuthal
# aspects see one hemisphere
SEAM_REGIONS = {"stereographic": (-70, -40, 150, 210), "gnomonic": (-70, -40, 150, 210),
                "central": (40, 70, 150, 210), "orthographic": (40, 70, 150, 210)}
FAMILIES = {proj.family: proj for proj in all_family_instances()}


def _seam_region(family):
    return GeoRegion.from_degrees(*SEAM_REGIONS.get(family, (10, 40, 150, 210)))


class TestFixedStep:
    """The Jacobian step is the constant STEP, and the grid entries all read
    one canonical grid."""

    @pytest.mark.parametrize("form", ["keyword", "positional"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_entry_takes_no_step(self, entry, form):
        proj, calls = _counting_affine()
        args, kwargs = ((), {"step": 1e-6}) if form == "keyword" else ((1e-6,), {})
        with pytest.raises(TypeError):
            ENTRIES[entry](proj, *args, **kwargs)
        assert calls == []

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_samples_one_step_from_a_node(self, entry):
        proj, calls = _counting_affine()
        ENTRIES[entry](proj)
        axes = linspace(SMALL.lat_lo, SMALL.lat_hi, 3), linspace(SMALL.lon_lo, SMALL.lon_hi, 3)
        nodes = ENTRY_NODES.get(entry, [(lat, lon) for lat in axes[0] for lon in axes[1]])
        offsets = set()
        for c in calls:
            lat, lon = min(nodes, key=lambda n: (c.lat - n[0]) ** 2 + (c.lon - n[1]) ** 2)
            offset = (round((c.lat - lat) / STEP), round((c.lon - lon) / STEP))
            assert c.lat - lat == pytest.approx(offset[0] * STEP, abs=1e-12)
            assert c.lon - lon == pytest.approx(offset[1] * STEP, abs=1e-12)
            offsets.add(offset)
        assert {(1, 0), (-1, 0), (0, 1), (0, -1)} <= offsets <= {
            (0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_grid_samples_equal_tissot_on_wrapped_longitudes(self, family):
        proj, region = FAMILIES[family], _seam_region(family)
        rows = distortion_grid(proj, region, 5, 7)
        lons = [c.lon for c, _ in rows[:7]]
        assert lons == [wrap_longitude(lon) for lon in linspace(region.lon_lo, region.lon_hi, 7)]
        assert all(-math.pi < lon <= math.pi for lon in lons)
        for c, sample in rows:
            assert sample == tissot(proj, c), c

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_report_maxima_read_the_grid_samples(self, family):
        proj, region = FAMILIES[family], _seam_region(family)
        samples = [sample for _, sample in distortion_grid(proj, region, 5, 7)]
        report = euler_property_report(proj, region, 5, 7)
        assert report.p2 == max(abs(d.h - 1.0) for d in samples)
        assert report.p3 == max(abs(d.theta_prime - math.pi / 2) for d in samples)
        assert report.p4 == max(abs(d.k / d.h - 1.0) for d in samples)


# The grid routine against per-sample tissot on every family, with southern
# conics, both cutoffs, a conic whose apex lies 5e-8 degrees beyond the pole,
# oblique and polar orthographic limbs and a forward-only map (angles in
# degrees).
SWEEP_SPECS = (
    "equirectangular lat0=30 lon0=10", "mercator lon0=-20", "mercator lon0=-179.9 cutoff=60",
    "lambert_cylindrical_equal_area lat0=-30 lon0=180",
    "equidistant_conic lat1=45 lat2=60 lon0=90",
    "equidistant_conic lat1=-20 lat2=-50 lon0=180 cutoff=-70",
    "equidistant_conic lat1=60 lat2=89.999999 lon0=-100",
    "lambert_conformal_conic lat1=30 lat2=60 lon0=-100",
    "lambert_conformal_conic lat1=-10 lat2=-40 lon0=180",
    "orthographic", "orthographic center=35,60", "stereographic center=10,-170",
    "gnomonic center=50,20", "central center=-45,100",
    "lambert_azimuthal_equal_area center=0,180", "werner lon0=-179", "affine",
)


def _sweep_projection(spec):
    return _Affine(1.0, 0.2, 0.1, 1.0) if spec == "affine" else parse_projection(spec)


def _sweep_regions(proj, rng):
    """(lat_lo, lat_hi, lon_lo, lon_hi) in radians: a first or last column
    on the cut and on the seam and 1 and 2 steps to either side, first or
    last rows 0 to 2 steps from each pole, on the cutoffs and on the equator
    (the polar orthographic limb) and a step to either side, and seeded
    regions, near the tangent point too."""
    s = STEP
    regions = []
    for edge in {proj.cut_longitude, math.pi} - {None}:
        for k in (-2, -1, 0, 1, 2):
            lon = edge + k * s
            regions += [(0.2, 0.9, lon, lon + 1.0), (-0.9, 0.3, lon - 1.0, lon)]
    for k in (0.0, 0.5, 1.0, 1.5, 2.0):
        regions += [(0.5, HALF_PI - k * s, -1.0, 1.0), (-HALF_PI + k * s, -0.5, 2.0, 3.5)]
    cutoff = getattr(proj, "cutoff", None)
    for edge in (0.0,) + ((abs(cutoff), -abs(cutoff)) if cutoff else ()):
        for k in (-1, 0, 1):
            lat = edge + k * s
            regions += [(lat, min(lat + 0.3, HALF_PI), -0.5, 0.5),
                        (max(lat - 0.3, -HALF_PI), lat, 2.5, 3.5)]
    center = getattr(proj, "center", None)
    for _ in range(6):
        if center is not None:
            # near the tangent point, where an aspect's domain lies
            lat = max(-HALF_PI, min(center.lat + rng.uniform(-0.5, 0.2), 1.2))
            lon = center.lon + rng.uniform(-0.5, 0.2)
            regions.append((lat, lat + 0.3, lon, lon + 0.3))
        lat_lo = rng.uniform(-HALF_PI, 1.2)
        lon_lo = rng.uniform(-4.0, 3.0)
        regions.append((lat_lo, rng.uniform(lat_lo + 0.05, HALF_PI),
                        lon_lo, lon_lo + rng.uniform(0.1, 2.0 * math.pi)))
    return [GeoRegion(*region) for region in regions]


def _tissot_grid(proj, region, nlat, nlon):
    """The grid's samples one tissot call each, or the first error."""
    lats = linspace(region.lat_lo, region.lat_hi, nlat)
    lons = [wrap_longitude(lon) for lon in linspace(region.lon_lo, region.lon_hi, nlon)]
    rows = []
    for c in (GeoCoord(lat, lon) for lat in lats for lon in lons):
        try:
            rows.append((c, tissot(proj, c)))
        except MapError as exc:
            return type(exc), str(exc)
    return rows


def _hex_rows(rows):
    return [(c.lat.hex(), c.lon.hex(), *(getattr(d, f).hex() for f in _SCAN_FIELDS))
            for c, d in rows]


class TestGridRoutine:
    """distortion_grid and euler_property_report take most samples from
    their axes or a direct stencil; each must equal tissot to the bit."""

    @pytest.mark.parametrize("spec", SWEEP_SPECS)
    def test_grid_and_report_equal_per_sample_tissot(self, spec):
        proj = _sweep_projection(spec)
        rng = random.Random(f"grid sweep {spec}")
        checked = 0
        for region in _sweep_regions(proj, rng):
            for nlat, nlon in ((3, 3), (4, 6)):
                want = _tissot_grid(proj, region, nlat, nlon)
                if isinstance(want, tuple):
                    for entry in (distortion_grid, euler_property_report):
                        with pytest.raises(want[0]) as info:
                            entry(proj, region, nlat, nlon)
                        assert str(info.value) == want[1], (region, entry)
                    continue
                assert _hex_rows(distortion_grid(proj, region, nlat, nlon)) == _hex_rows(want)
                p2 = p3 = p4 = 0.0
                for _, d in want:
                    p2 = max(p2, abs(d.h - 1.0))
                    p3 = max(p3, abs(d.theta_prime - HALF_PI))
                    p4 = max(p4, abs(d.k / d.h - 1.0))
                report = euler_property_report(proj, region, nlat, nlon)
                assert [report.p2.hex(), report.p3.hex(), report.p4.hex()] == [
                    p2.hex(), p3.hex(), p4.hex()], region
                checked += 1
        assert checked >= 10, checked

    @pytest.mark.parametrize("proj, region", [
        (EquidistantConic(math.radians(45), math.radians(60)),
         GeoRegion.from_degrees(40, 70, -30, 150)),
        (Mercator(), GeoRegion.from_degrees(-60, 60, -170, 170)),
    ])
    def test_separable_grid_reads_each_axis_once(self, proj, region, monkeypatch):
        # away from every edge the profile runs 3 times a row, once more for
        # P1's meridian images, and the kernel never
        counts = {"profile": 0, "xy": 0}

        def counting(cls, name, key):
            def wrapper(*args, _fn=getattr(cls, name)):
                counts[key] += 1
                return _fn(*args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(EquidistantConic, "_radius", "profile")
        counting(Mercator, "_level", "profile")
        counting(_Conic, "_xy", "xy")
        counting(_Cylindrical, "_xy", "xy")
        rows = distortion_grid(proj, region, 11, 13)
        assert 0 < counts["profile"] <= 3 * 11 and counts["xy"] == 0
        counts.update(profile=0, xy=0)
        euler_property_report(proj, region, 11, 13)
        assert counts["xy"] == 0 and 0 < counts["profile"] <= 4 * 11
        monkeypatch.undo()
        assert _hex_rows(rows) == _hex_rows(_tissot_grid(proj, region, 11, 13))


class TestAntipode:
    """The stereographic and Lambert azimuthal kernels exclude their centre's
    antipode alone, a point no stencil about it samples: tissot,
    local_jacobian and the grids raise the kernel's own error there, as
    forward does, since every stencil includes the sample's own image."""

    @pytest.mark.parametrize("spec", [
        "stereographic center=0,180", "lambert_azimuthal_equal_area center=0,180",
        "stereographic center=30,-60", "lambert_azimuthal_equal_area center=-45,100",
    ])
    def test_entries_raise_the_kernels_error(self, spec):
        proj = parse_projection(spec)
        c = proj.center
        antipode = GeoCoord(-c.lat, c.lon + math.pi)
        region = GeoRegion(antipode.lat - 0.1, antipode.lat + 0.1,
                           antipode.lon - 0.2, antipode.lon + 0.2)
        # the 3x5 grid's middle node is the antipode, to rounding
        node = GeoCoord(linspace(region.lat_lo, region.lat_hi, 3)[1],
                        linspace(region.lon_lo, region.lon_hi, 5)[2])
        for entry, at in ((lambda: tissot(proj, antipode), antipode),
                          (lambda: local_jacobian(proj, antipode), antipode),
                          (lambda: distortion_grid(proj, region, 3, 5), node),
                          (lambda: max_distortion_scan(proj, region, 3, 5), node)):
            with pytest.raises(DomainError) as want:
                proj.forward(at)
            assert str(want.value).endswith(f"domain: {proj._excluded}")
            with pytest.raises(DomainError) as info:
                entry()
            assert type(info.value) is type(want.value)
            assert str(info.value) == str(want.value)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []

        def counting(self, lat, lon, _xy=Stereographic._xy):
            calls.append(lat)
            return _xy(self, lat, lon)

        monkeypatch.setattr(Stereographic, "_xy", counting)
        return calls

    def test_the_grid_over_the_antipodes_row_makes_no_kernel_call(self, kernel_calls):
        # rows at -40°, -30° (the antipode's latitude) and -20°, off its
        # meridian: the grid kernel projects every stencil and node
        distortion_grid(parse_projection("stereographic center=30,0"),
                        GeoRegion.from_degrees(-40, -20, 0, 20), 3, 3)
        assert kernel_calls == []

    def test_tissot_makes_five_kernel_calls_everywhere(self, kernel_calls):
        # the four neighbours and the sample itself, on the antipode's
        # latitude and off it
        proj = parse_projection("stereographic center=30,0")
        for lat in (-30.0, -30.0 + 1e-9, -29.0, 0.0, 60.0):
            kernel_calls.clear()
            tissot(proj, GeoCoord.from_degrees(lat, 10.0))
            assert len(kernel_calls) == 5, lat


class TestGridCap:
    """A grid above MAX_SAMPLES is refused before any axis is built."""

    @pytest.mark.parametrize("entry", [distortion_grid, euler_property_report,
                                       max_distortion_scan])
    def test_above_the_cap_is_refused_unbuilt(self, entry, monkeypatch):
        def refuse(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(distortion, "linspace", refuse)
        nlon = MAX_SAMPLES // 11 + 1
        message = (f"grid of 11x{nlon} = {11 * nlon} samples exceeds the cap of "
                   f"{MAX_SAMPLES} samples")
        with pytest.raises(ParameterError, match=f"^{message}$"):
            entry(Mercator(), SMALL, 11, nlon)

    def test_the_cap_itself_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(distortion, "linspace", built)
        with pytest.raises(Built):
            distortion_grid(Mercator(), SMALL, 1000, MAX_SAMPLES // 1000)


class TestDistortionSampleMatchesGeneratedDataclass:
    """DistortionSample sets its slots itself; it still behaves like the
    frozen slotted dataclass it was generated as."""

    FIELDS = ("h", "k", "theta_prime", "a", "b", "omega", "s")

    def test_stores_its_arguments_unchanged(self):
        values = (np.float64(1.25), 2, -0.0, 1.5, 0.5, math.nan, 3.0)
        sample = DistortionSample(*values)
        assert all(getattr(sample, f) is v for f, v in zip(self.FIELDS, values))
        assert DistortionSample(**dict(zip(self.FIELDS, values))) == DistortionSample(*values)

    def test_dataclass_behaviour(self):
        values = (1.0, 2.0, 1.5, 2.5, 0.75, 0.25, 2.0)
        sample = DistortionSample(*values)
        assert repr(sample) == ("DistortionSample(h=1.0, k=2.0, theta_prime=1.5, a=2.5, "
                                "b=0.75, omega=0.25, s=2.0)")
        assert sample == DistortionSample(*values) and sample != DistortionSample(*values[:-1], 3.0)
        assert hash(sample) == hash(DistortionSample(*values)) == hash(values)
        assert tuple(f.name for f in dataclasses.fields(DistortionSample)) == self.FIELDS
        assert DistortionSample.__slots__ == self.FIELDS and not hasattr(sample, "__dict__")
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sample, name, 0.0)
        assert dataclasses.replace(sample, omega=0.0) == DistortionSample(*values[:5], 0.0, 2.0)
        assert pickle.loads(pickle.dumps(sample)) == sample
        assert dataclasses.astuple(sample) == values
        with pytest.raises(TypeError):
            DistortionSample(*values[:-1])


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError, MapError) as exc:
        return type(exc)


def _same_outcome(a, b) -> bool:
    """Both the same error type, or floats equal to the bit (any NaN equal)."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return len(a) == len(b) and all(
        math.isnan(x) and math.isnan(y) or float.hex(x) == float.hex(y) for x, y in zip(a, b))


def _fields_by_builtins(lat, lon, xp, xl, yp, yl):
    """distortion._fields as it was written with min and max."""
    cos_lat = math.cos(lat)
    xl, yl = xl / cos_lat, yl / cos_lat
    h = math.hypot(xp, yp)
    k = math.hypot(xl, yl)
    if h <= 0.0 or k <= 0.0:
        raise DomainError("degenerate Jacobian")
    cos_theta = (xp * xl + yp * yl) / (h * k)
    theta_prime = math.acos(max(-1.0, min(1.0, cos_theta)))
    q = math.hypot(xp + yl, yp - xl)
    r = math.hypot(xp - yl, yp + xl)
    omega = 2.0 * math.asin(min(q, r) / max(q, r))
    return h, k, theta_prime, 0.5 * (q + r), 0.5 * abs(q - r), omega, h * k * math.sin(theta_prime)


def _report_by_builtins(samples, columns):
    """euler_property_report's maxima as they were written with max."""
    p2 = p3 = p4 = 0.0
    for h, k, theta_prime in samples:
        p2 = max(p2, abs(h - 1.0))
        p3 = max(p3, abs(theta_prime - HALF_PI))
        p4 = max(p4, abs(k / h - 1.0))
    p1 = 0.0
    for chord, dev in columns:
        p1 = max(p1, max(dev) / chord)
    return p1, p2, p3, p4


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
# each the Jacobian of a conformal, mirrored, collapsed or non-finite map
_JACOBIANS = [
    (1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, -1.0), (1.0, 1.0, 1.0, 1.0), (1.0, -1.0, -1.0, 1.0),
    (2.0, 0.0, 0.0, 2.0), (0.0, 1.0, 1.0, 0.0), (-0.0, -1.0, 1.0, -0.0), (1e-300, 0.0, 0.0, 1e-300),
    (math.inf, 0.0, 0.0, 1.0), (1.0, math.inf, math.inf, 1.0), (math.nan, 1.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, math.nan), (1e300, 1e300, 1e300, -1e300), (0.0, 0.0, 0.0, 1.0),
]


class TestHotLoopsMatchBuiltins:
    """_fields and euler_property_report compare instead of calling min and
    max; their results are the builtins', to the bit, NaN included."""

    @pytest.mark.parametrize("lat", [0.0, 0.7, -1.5])
    @pytest.mark.parametrize("jacobian", _JACOBIANS)
    def test_fields_at_edges(self, lat, jacobian):
        assert _same_outcome(_outcome(distortion._fields, lat, 0.0, *jacobian),
                             _outcome(_fields_by_builtins, lat, 0.0, *jacobian))

    @given(st.sampled_from([0.0, 0.7, -1.5]), st.tuples(*[_ANY_FLOAT] * 4))
    def test_fields_at_any_jacobian(self, lat, jacobian):
        assert _same_outcome(_outcome(distortion._fields, lat, 0.0, *jacobian),
                             _outcome(_fields_by_builtins, lat, 0.0, *jacobian))

    @given(st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT), max_size=6)
           | st.just([(1.0, 1.0, HALF_PI), (math.nan, 1.0, 0.0), (-0.0, 0.0, -0.0)]),
           st.lists(st.tuples(_ANY_FLOAT, st.lists(_ANY_FLOAT, min_size=1, max_size=3)),
                    min_size=3, max_size=5))
    def test_report_maxima(self, samples, columns):
        # the report folds the samples _grid yields and the deviations of
        # each meridian's column, both stood in for here
        reported = iter(columns)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distortion, "_grid", lambda proj, lats, lons: iter(samples))
            mp.setattr(distortion, "_deviations", lambda xs, ys: next(reported))
            got = _outcome(lambda: dataclasses.astuple(euler_property_report(
                Equirectangular(), GeoRegion.from_degrees(10, 20, 30, 40), 3, len(columns))))
        assert _same_outcome(got, _outcome(_report_by_builtins, samples, columns))

import dataclasses
import hashlib
import math
import pickle
import re
from pathlib import Path
from types import SimpleNamespace
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapproj import (
    CentralOnTangentPlane,
    EquidistantConic,
    Equirectangular,
    GeoCoord,
    GeoRegion,
    Gnomonic,
    LambertAzimuthalEqualArea,
    LambertConformalConic,
    LambertCylindricalEqualArea,
    Mercator,
    Orthographic,
    PlanePoint,
    Stereographic,
    UnknownFamilyError,
    Werner,
    conic_constants,
    great_circle_distance,
    parse_projection,
    sample_great_circle,
    to_unit_vector,
)
from mapproj.atlas import MapScene, build_graticule, render_svg
from mapproj.cli import main
from mapproj.distortion import local_jacobian, tissot
from mapproj.errors import DomainError, MapError, ParameterError
from mapproj.geo import NORTH_POLE, SOUTH_POLE, wrap_longitude
from mapproj.geodesics import project_polyline
from mapproj import projections
from mapproj.projections import FAMILIES, RHO_MIN, Projection, _Azimuthal
from conftest import all_family_instances, sample_in_domain


class TestEquirectangular:
    def test_origin(self):
        proj = Equirectangular()
        p = proj.forward(GeoCoord(0, 0))
        assert (p.x, p.y) == (0.0, 0.0)

    def test_identity_scaling_on_equatorial_parallel(self):
        proj = Equirectangular()
        p = proj.forward(GeoCoord.from_degrees(30, 45))
        assert p.x == pytest.approx(0.7853981633974483, abs=1e-15)
        assert p.y == pytest.approx(0.5235987755982988, abs=1e-15)

    def test_compression_at_36(self):
        proj = Equirectangular(phi0=math.radians(36))
        p = proj.forward(GeoCoord.from_degrees(10, 50))
        assert p.x == pytest.approx(math.radians(50) * 0.8090169943749475, abs=1e-14)

    def test_polar_standard_parallel_rejected(self):
        with pytest.raises(ParameterError):
            Equirectangular(phi0=math.pi / 2)


class TestStereographic:
    def test_tangent_point_maps_to_origin(self):
        p = Stereographic().forward(GeoCoord.from_degrees(-90, 0))
        assert (p.x, p.y) == (0.0, 0.0)

    def test_equator_radius_two(self):
        # line-plane intersection from (0,0,1) through (1,0,0) to z=-1 hits x=2
        p = Stereographic().forward(GeoCoord(0, 0))
        assert p.x == pytest.approx(2.0, abs=1e-12)
        assert p.y == pytest.approx(0.0, abs=1e-12)

    def test_radius_at_minus_45(self):
        # 2(sqrt(2)-1); cross-checked offline by explicit 3D ray intersection
        p = Stereographic().forward(GeoCoord.from_degrees(-45, 0))
        assert math.hypot(p.x, p.y) == pytest.approx(0.8284271247461902, abs=1e-12)

    def test_projection_source_excluded(self):
        with pytest.raises(DomainError):
            Stereographic().forward(GeoCoord.from_degrees(90, 0))

    def test_inverse_of_radius_two_is_equator(self):
        c = Stereographic().inverse(PlanePoint(2.0, 0.0))
        assert c.lat == pytest.approx(0.0, abs=1e-12)

    def test_circles_map_to_circles(self, rng):
        # sampled small circle away from the projection source fits a plane
        # circle with residual < 1e-9
        proj = Stereographic(center=GeoCoord.from_degrees(10, 30))
        for _ in range(10):
            axis = np.array(to_unit_vector(
                GeoCoord(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
            ))
            alpha = rng.uniform(0.1, 1.2)
            u = np.cross(axis, [0.0, 0.0, 1.0])
            if np.linalg.norm(u) < 1e-6:
                u = np.cross(axis, [1.0, 0.0, 0.0])
            u /= np.linalg.norm(u)
            w = np.cross(axis, u)
            pts = []
            ok = True
            for t in np.linspace(0.0, 2 * math.pi, 60, endpoint=False):
                v = math.cos(alpha) * axis + math.sin(alpha) * (
                    math.cos(t) * u + math.sin(t) * w
                )
                c = GeoCoord(math.asin(max(-1, min(1, v[2]))), math.atan2(v[1], v[0]))
                if great_circle_distance(c, proj.center) > math.pi - 0.2:
                    ok = False
                    break
                pts.append(proj.forward(c))
            if not ok:
                continue
            xy = np.array([(p.x, p.y) for p in pts])
            design = np.column_stack([2 * xy[:, 0], 2 * xy[:, 1], np.ones(len(xy))])
            (cx, cy, cc), *_ = np.linalg.lstsq(design, (xy**2).sum(axis=1), rcond=None)
            r = math.sqrt(cx * cx + cy * cy + cc)
            residual = np.abs(np.hypot(xy[:, 0] - cx, xy[:, 1] - cy) - r).max()
            assert residual < 1e-9


class TestGnomonic:
    def test_tangent_point(self):
        assert Gnomonic().forward(GeoCoord.from_degrees(-90, 17)) == PlanePoint(0.0, 0.0)

    def test_cot_radius(self):
        p = Gnomonic().forward(GeoCoord.from_degrees(-45, 0))
        assert math.hypot(p.x, p.y) == pytest.approx(1.0, abs=1e-12)

    def test_near_equator_blowup_finite(self):
        p = Gnomonic().forward(GeoCoord.from_degrees(-1, 0))
        assert math.hypot(p.x, p.y) == pytest.approx(57.28996163075943, rel=1e-12)
        assert math.isfinite(p.x)

    def test_equator_and_beyond_rejected(self):
        with pytest.raises(DomainError):
            Gnomonic().forward(GeoCoord(0, 0))
        with pytest.raises(DomainError):
            Gnomonic().forward(GeoCoord.from_degrees(10, 0))

    def test_great_circles_to_straight_lines(self, rng):
        proj = Gnomonic(center=GeoCoord.from_degrees(35, -40))
        for _ in range(25):
            pair = []
            while len(pair) < 2:
                c = GeoCoord(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
                if great_circle_distance(c, proj.center) < math.radians(80):
                    pair.append(c)
            if great_circle_distance(*pair) < 1e-3:
                continue
            pts = [proj.forward(c) for c in sample_great_circle(pair[0], pair[1], 25)]
            xy = np.array([(p.x, p.y) for p in pts])
            axis = xy[-1] - xy[0]
            chord = float(np.hypot(*axis))
            dev = np.abs((xy[:, 0] - xy[0, 0]) * axis[1] - (xy[:, 1] - xy[0, 1]) * axis[0])
            assert dev.max() / chord / chord < 1e-9  # sagitta/chord, relative


class TestCentral:
    # identical mathematics to the gnomonic, north tangent point by default
    def test_matches_gnomonic_at_same_center(self):
        center = GeoCoord.from_degrees(35, -40)
        a = CentralOnTangentPlane(center=center)
        b = Gnomonic(center=center)
        c = GeoCoord.from_degrees(20, -10)
        assert a.forward(c) == b.forward(c)

    def test_north_polar_triple(self):
        proj = CentralOnTangentPlane()
        assert proj.forward(GeoCoord.from_degrees(90, 17)) == PlanePoint(0.0, 0.0)
        assert math.hypot(*proj.forward(GeoCoord.from_degrees(45, 0))) == pytest.approx(
            1.0, abs=1e-12
        )
        assert math.hypot(*proj.forward(GeoCoord.from_degrees(1, 0))) == pytest.approx(
            57.28996163075943, rel=1e-12
        )

    def test_equator_and_beyond_rejected(self):
        with pytest.raises(DomainError):
            CentralOnTangentPlane().forward(GeoCoord(0, 0))
        with pytest.raises(DomainError):
            CentralOnTangentPlane().forward(GeoCoord.from_degrees(-10, 0))

    def test_own_family_tag(self):
        assert CentralOnTangentPlane.family == "central"
        assert Gnomonic.family == "gnomonic"


class TestOrthographic:
    def test_center(self):
        assert Orthographic().forward(GeoCoord.from_degrees(90, 5)) == PlanePoint(0.0, 0.0)

    def test_limb(self):
        p = Orthographic().forward(GeoCoord.from_degrees(0, 25))
        assert math.hypot(p.x, p.y) == pytest.approx(1.0, abs=1e-12)

    def test_cos_radius(self):
        p = Orthographic().forward(GeoCoord.from_degrees(60, 0))
        assert math.hypot(p.x, p.y) == pytest.approx(0.5, abs=1e-12)

    def test_hidden_hemisphere(self):
        with pytest.raises(DomainError):
            Orthographic().forward(GeoCoord.from_degrees(-5, 0))


class TestMercator:
    def test_origin(self):
        assert Mercator().forward(GeoCoord(0, 0)) == PlanePoint(0.0, 0.0)

    def test_y_at_45(self):
        # ln tan 67.5 deg; cross-checked offline by quadrature of sec
        p = Mercator().forward(GeoCoord.from_degrees(45, 0))
        assert p.y == pytest.approx(0.8813735870195429, abs=1e-13)

    @given(st.floats(1.0, 84.0))
    @settings(max_examples=80)
    def test_odd_symmetry(self, lat_deg):
        proj = Mercator()
        up = proj.forward(GeoCoord.from_degrees(lat_deg, 7))
        dn = proj.forward(GeoCoord.from_degrees(-lat_deg, 7))
        assert up.y == pytest.approx(-dn.y, abs=1e-15)

    def test_inverse_of_y(self):
        c = Mercator().inverse(PlanePoint(0.0, 0.8813735870195429))
        assert c.lat_deg == pytest.approx(45.0, abs=1e-10)

    def test_cutoff_enforced(self):
        with pytest.raises(DomainError):
            Mercator().forward(GeoCoord.from_degrees(86, 0))

    def test_cutoff_at_90_rejected(self):
        with pytest.raises(ParameterError):
            Mercator(cutoff=math.radians(90))

    def test_loxodrome_maps_to_straight_line(self):
        # oracle: RK4 integration of the constant-bearing ODE
        # dlat/ds = cos(beta), dlon/ds = sin(beta)/cos(lat)
        proj = Mercator()
        bearing = math.radians(65)
        lat, lon = math.radians(-20), math.radians(5)
        h = 1e-3
        pts = []
        for i in range(2000):
            if i % 40 == 0:
                pts.append(proj.forward(GeoCoord(lat, lon)))
            k1 = (math.cos(bearing), math.sin(bearing) / math.cos(lat))
            k2 = (math.cos(bearing), math.sin(bearing) / math.cos(lat + 0.5 * h * k1[0]))
            k3 = (math.cos(bearing), math.sin(bearing) / math.cos(lat + 0.5 * h * k2[0]))
            k4 = (math.cos(bearing), math.sin(bearing) / math.cos(lat + h * k3[0]))
            lat += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            lon += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        xy = np.array([(p.x, p.y) for p in pts])
        axis = xy[-1] - xy[0]
        chord = float(np.hypot(*axis))
        dev = np.abs((xy[:, 0] - xy[0, 0]) * axis[1] - (xy[:, 1] - xy[0, 1]) * axis[0]) / chord
        assert dev.max() / chord < 1e-6


class TestConicConstants:
    def test_values_for_45_60(self):
        k = conic_constants(math.radians(45), math.radians(60))
        assert k.n == pytest.approx(0.7910896313685742, abs=1e-14)
        assert k.rho_ref == pytest.approx(0.8938390204448294, abs=1e-14)
        assert k.apex_overshoot == pytest.approx(0.10844085704738116, abs=1e-14)

    def test_unit_parallel_scale_at_both_parallels(self):
        # n is pinned by requiring parallel scale 1 at both parallels
        pa, pb = math.radians(45), math.radians(60)
        k = conic_constants(pa, pb)
        for phi in (pa, pb):
            rho = k.rho_ref + pa - phi
            assert k.n * rho / math.cos(phi) == pytest.approx(1.0, abs=1e-14)

    def test_tangent_cone_limit(self):
        pa = math.radians(45)
        k = conic_constants(pa, pa + 1e-6)
        assert k.n == pytest.approx(math.sin(pa), abs=1e-4)

    def test_ordering_enforced(self):
        with pytest.raises(ParameterError):
            conic_constants(math.radians(60), math.radians(45))
        with pytest.raises(ParameterError):
            conic_constants(0.0, math.radians(45))
        with pytest.raises(ParameterError, match=r"\(got 0\.0000°, 45\.0000°\)$"):
            conic_constants(-1e-9, math.radians(45))


class TestEquidistantConic:
    proj = EquidistantConic(math.radians(45), math.radians(60))

    def test_reference_point(self):
        assert self.proj.forward(GeoCoord.from_degrees(45, 0)) == PlanePoint(0.0, 0.0)

    def test_forward_at_90_east(self):
        # polar-coordinate oracle: rho*sin(n*dlam), rho_ref - rho*cos(n*dlam)
        p = self.proj.forward(GeoCoord.from_degrees(45, 90))
        assert p.x == pytest.approx(0.8461423278681302, abs=1e-13)
        assert p.y == pytest.approx(0.6057568178364872, abs=1e-13)

    def test_meridian_degrees_equal(self):
        a = self.proj.forward(GeoCoord.from_degrees(50, 30))
        b = self.proj.forward(GeoCoord.from_degrees(60, 30))
        assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(
            math.radians(10), abs=1e-15
        )

    def test_meridians_are_rays_through_apex(self):
        k = self.proj.constants
        apex = np.array([0.0, k.rho_ref])
        for lon in (-120.0, -30.0, 60.0, 150.0):
            pts = np.array(
                [
                    tuple(self.proj.forward(GeoCoord.from_degrees(lat, lon)))
                    for lat in np.linspace(20, 80, 13)
                ]
            )
            rel = pts - apex
            cross = rel[:, 0] * rel[0, 1] - rel[:, 1] * rel[0, 0]
            assert np.abs(cross).max() / np.linalg.norm(rel[0]) < 1e-12

    def test_parallels_concentric_about_apex(self):
        k = self.proj.constants
        for lat in (48.0, 55.0, 63.0, 70.0):
            radii = [
                math.hypot(p.x, k.rho_ref - p.y)
                for p in (
                    self.proj.forward(GeoCoord.from_degrees(lat, lon))
                    for lon in np.linspace(-150, 150, 41)
                )
            ]
            assert np.std(radii) < 1e-12

    def test_beyond_apex_rejected(self):
        apex_lat = self.proj.constants.rho_ref + math.radians(45)
        assert math.degrees(apex_lat) > 90  # apex lies beyond the pole
        with pytest.raises(DomainError):
            # no representable latitude reaches it; a cutoff conic rejects sooner
            EquidistantConic(
                math.radians(45), math.radians(60), cutoff=math.radians(70)
            ).forward(GeoCoord.from_degrees(75, 0))

    @pytest.mark.parametrize("cutoff, below_apex, message", [
        (None, 1e-10, "no preimage: point at or beyond the cone apex"),
        (None, 5.0, "no preimage: radius beyond the far pole"),
        (70.0, 0.3, "no preimage: beyond the latitude cutoff"),
    ])
    def test_inverse_rejections(self, cutoff, below_apex, message):
        # points on the central meridian, this far below the apex
        proj = EquidistantConic(math.radians(45), math.radians(60),
                                cutoff=None if cutoff is None else math.radians(cutoff))
        with pytest.raises(DomainError) as info:
            proj.inverse(PlanePoint(0.0, proj.constants.rho_ref - below_apex))
        assert type(info.value) is DomainError
        assert str(info.value) == message

    def test_parallel_ordering_enforced(self):
        with pytest.raises(ParameterError):
            EquidistantConic(math.radians(60), math.radians(45))
        with pytest.raises(ParameterError):
            EquidistantConic(math.radians(-45), math.radians(60))

    def test_rotation_equivariance_scaled_by_cone_constant(self):
        k = self.proj.constants
        delta = math.radians(25)
        p = self.proj.forward(GeoCoord.from_degrees(52, 10))
        q = self.proj.forward(GeoCoord(math.radians(52), math.radians(10) + delta))
        apex_angle_p = math.atan2(p.x, k.rho_ref - p.y)
        apex_angle_q = math.atan2(q.x, k.rho_ref - q.y)
        assert apex_angle_q - apex_angle_p == pytest.approx(k.n * delta, abs=1e-12)


class TestLambertConformalConic:
    proj = LambertConformalConic(math.radians(45), math.radians(60))

    def test_unit_scale_on_standard_parallels(self):
        n, _, _ = self.proj._nF
        for deg in (45.0, 60.0):
            phi = math.radians(deg)
            rho = self.proj._radius(phi, phi, 0.0)
            assert n * rho / math.cos(phi) == pytest.approx(1.0, abs=1e-12)

    def test_central_meridian_is_x_zero(self):
        for lat in (20.0, 47.0, 80.0):
            assert self.proj.forward(GeoCoord.from_degrees(lat, 0)).x == 0.0

    def test_poles_rejected(self):
        with pytest.raises(DomainError):
            self.proj.forward(GeoCoord.from_degrees(90, 0))
        with pytest.raises(DomainError):
            self.proj.forward(GeoCoord.from_degrees(-90, 0))

    @pytest.mark.parametrize("spec, x, y", [
        ("lambert_conformal_conic lat1=45 lat2=60", 0.0, -1e15),
        ("lambert_conformal_conic lat1=0.01 lat2=0.02", 0.0, 60.0),
        ("lambert_conformal_conic lat1=-45 lat2=-60", 0.0, 1e15),
        ("lambert_conformal_conic lat1=-0.01 lat2=-0.02", 0.0, -60.0),
    ])
    def test_inverse_rejects_the_exact_poles(self, spec, x, y):
        # the radius's latitude rounds to the pole itself, without overflow
        with pytest.raises(DomainError, match=r"^no preimage: radius \S+ at the excluded pole$"):
            parse_projection(spec).inverse(PlanePoint(x, y))

    def test_inverse_keeps_a_latitude_next_to_the_pole(self):
        # -90° + 1.12e-12 rad lies outside forward's 1e-12 pole band: a
        # preimage, though it prints as -90°
        lat = self.proj.inverse(PlanePoint(0.0, -1e10)).lat
        assert 1e-12 < lat + math.pi / 2 < 2e-12
        assert self.proj.forward(GeoCoord(lat, 0.0)).y == pytest.approx(-1e10, rel=1e-5)

    @pytest.mark.parametrize("spec", [
        "lambert_conformal_conic lat1=45 lat2=60",
        "lambert_conformal_conic lat1=10 lat2=80",
        "lambert_conformal_conic lat1=-30 lat2=-70 lon0=170",
    ])
    def test_images_next_to_either_pole_invert(self, rng, spec):
        # forward accepts latitudes down to 1e-12 rad from a pole, whose radii
        # on the near side fall below RHO_MIN: they are no apex to this cone
        proj = parse_projection(spec)
        for k in range(2000):
            gap = 10 ** rng.uniform(-11.99, -11)
            c = GeoCoord(math.pi / 2 - gap if k % 2 else gap - math.pi / 2,
                         rng.uniform(-math.pi, math.pi))
            back = proj.inverse(proj.forward(c))
            proj.forward(back)
            assert great_circle_distance(c, back) < 1e-15

    @pytest.mark.parametrize("spec", [
        "lambert_conformal_conic lat1=45 lat2=60",
        "lambert_conformal_conic lat1=10 lat2=80",
        "lambert_conformal_conic lat1=-30 lat2=-70 lon0=170",
    ])
    def test_points_next_to_the_apex_have_no_preimage_in_the_pole_band(self, rng, spec):
        # the inverse rejects the band forward rejects, so a plane point next
        # to the apex either raises or comes back as a point forward accepts
        proj = parse_projection(spec)
        # the signed cone's apex: at y = rho_ref in either aspect
        _, apex_y = proj._cone
        for _ in range(20000):
            gap, angle = 10 ** rng.uniform(-20, -9), rng.uniform(-math.pi, math.pi)
            try:
                c = proj.inverse(PlanePoint(gap * math.cos(angle), apex_y + gap * math.sin(angle)))
            except DomainError:
                continue
            proj.forward(c)

    @pytest.mark.parametrize("spec", [
        "lambert_conformal_conic lat1=45 lat2=60",
        "lambert_conformal_conic lat1=10 lat2=80",
        "lambert_conformal_conic lat1=-30 lat2=-70 lon0=170",
    ])
    def test_the_latitude_one_ulp_inside_the_pole_band_edge_does_not_invert(self, spec):
        # the documented cost of rejecting the band: forward accepts the
        # latitude one ulp short of it on the apex side, whose image rounds
        # back into the band; the next latitude inverts
        proj = parse_projection(spec)
        sign = proj._sign
        edge = math.nextafter(math.pi / 2 - 1e-12, 0.0)
        with pytest.raises(DomainError, match=r"^no preimage: radius \S+ at the excluded pole$"):
            proj.inverse(proj.forward(GeoCoord(sign * edge, 0.3)))
        lat = sign * math.nextafter(edge, 0.0)
        assert proj.inverse(proj.forward(GeoCoord(lat, 0.3))).lat == lat


class TestLambertEqualArea:
    def test_azimuthal_center(self):
        assert LambertAzimuthalEqualArea().forward(
            GeoCoord.from_degrees(90, 9)
        ) == PlanePoint(0.0, 0.0)

    def test_azimuthal_equator_radius(self):
        # r = sqrt(2); disc of radius r then has the hemisphere's area 2*pi
        p = LambertAzimuthalEqualArea().forward(GeoCoord(0, 0))
        r = math.hypot(p.x, p.y)
        assert r == pytest.approx(1.4142135623730951, abs=1e-12)
        assert math.pi * r * r == pytest.approx(2 * math.pi, rel=1e-12)

    def test_azimuthal_antipode_excluded(self):
        with pytest.raises(DomainError):
            LambertAzimuthalEqualArea().forward(GeoCoord.from_degrees(-90, 0))

    @pytest.mark.parametrize("gap", [3e-12, 1e-10, 1e-8])
    def test_radius_next_to_the_antipode(self, rng, gap):
        # 2 sin(c/2) is 2 to the last bit this close to the antipode; an image
        # radius that also carries the rounding of the direction misses it
        for _ in range(400):
            center = GeoCoord(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
            proj = LambertAzimuthalEqualArea(center=center)
            az = rng.uniform(-math.pi, math.pi)
            x, y, z = [math.sin(gap) * (math.cos(az) * ei + math.sin(az) * ni) - math.cos(gap) * ci
                       for ci, ei, ni in zip(*proj._frame)]
            c = GeoCoord(math.atan2(z, math.hypot(x, y)), math.atan2(y, x))
            p = proj.forward(c)
            assert abs(math.hypot(p.x, p.y) - 2.0) <= 2 * math.ulp(2.0), (center, az)
            assert great_circle_distance(proj.inverse(p), c) <= 1e-7, (center, az)

    def test_cylindrical_total_area(self):
        # width 2*pi times height 2 equals the sphere area 4*pi
        proj = LambertCylindricalEqualArea()
        top = proj.forward(GeoCoord.from_degrees(90, 0))
        bottom = proj.forward(GeoCoord.from_degrees(-90, 0))
        assert (top.y - bottom.y) * 2 * math.pi == pytest.approx(4 * math.pi, abs=1e-12)


class TestWerner:
    def test_pole_is_single_point(self):
        proj = Werner()
        assert proj.forward(GeoCoord(math.pi / 2, 0.0)) == PlanePoint(0.0, 0.0)

    def test_forward_example(self):
        # r = pi/2, theta = 1 rad; direct formula evaluation
        p = Werner().forward(GeoCoord.from_degrees(0, 90))
        assert p.x == pytest.approx(1.321779532040728, abs=1e-13)
        assert p.y == pytest.approx(-0.8487048774164866, abs=1e-13)

    def test_parallel_arc_length_identity(self):
        # r*theta == cos(lat)*dlam exactly, parallels are true to scale
        proj = Werner()
        for lat_deg, lon_deg in ((20.0, 140.0), (55.0, 80.0), (-30.0, 60.0)):
            lat, lon = math.radians(lat_deg), math.radians(lon_deg)
            r = math.pi / 2 - lat
            p = proj.forward(GeoCoord(lat, lon))
            theta = math.atan2(p.x, -p.y)
            assert r * theta == pytest.approx(math.cos(lat) * lon, abs=1e-12)

    def test_central_meridian_isometric(self):
        proj = Werner()
        a = proj.forward(GeoCoord.from_degrees(10, 0))
        b = proj.forward(GeoCoord.from_degrees(70, 0))
        assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(
            math.radians(60), abs=1e-15
        )

    @pytest.mark.parametrize("x, y", [(0.0, math.pi), (math.pi, 0.0)])
    def test_far_from_the_tip_is_not_the_south_pole(self, capsys, x, y):
        # both lie on the south pole's radius pi, but its image is the tip (0, -pi)
        text = "no preimage: outside the cordiform outline"
        with pytest.raises(DomainError, match=f"^{text}$"):
            Werner().inverse(PlanePoint(x, y))
        assert main(["inverse", "--proj", "werner", f"--x={x!r}", f"--y={y!r}"]) == 1
        assert capsys.readouterr() == ("", f"error: {text}\n")

    def test_beyond_the_south_pole_arc_has_no_preimage(self):
        # the south pole's image lies at radius pi from the north pole
        with pytest.raises(DomainError) as err:
            Werner().inverse(PlanePoint(0.0, -4.0))
        assert str(err.value) == "no preimage: radius 4 beyond the south pole arc"

    @pytest.mark.parametrize("lon0", [0.0, 2.5, -math.pi + 0.01])
    def test_images_next_to_the_south_pole_invert(self, rng, lon0):
        proj = Werner(lon0=lon0)
        assert proj.inverse(PlanePoint(0.0, -math.pi)) == SOUTH_POLE
        for k in range(1000):
            gap = 10 ** rng.uniform(-17, -8) if k % 2 else rng.uniform(0, 1e-8)
            c = GeoCoord(-math.pi / 2 + gap, lon0 + rng.uniform(-math.pi + 1e-3, math.pi - 1e-3))
            assert great_circle_distance(c, proj.inverse(proj.forward(c))) < 1e-11

    @pytest.mark.parametrize("lon0", [0.0, 2.5, -math.pi + 0.01])
    def test_images_next_to_a_pole_and_the_cut_invert(self, rng, lon0):
        # cos(lat) there is of the size of the gap to the pole and carries the
        # rounding of lat; dividing by it first pushed |dlam| past the bound
        proj = Werner(lon0=lon0)
        for k in range(2000):
            gap = 10 ** rng.uniform(-14, -4) if k % 4 else rng.uniform(0, 1e-8)
            lat = -math.pi / 2 + gap if k % 2 else math.pi / 2 - gap
            off = 10 ** rng.uniform(-16, -6) if k % 5 else 0.0
            c = GeoCoord(lat, lon0 + rng.choice((-1.0, 1.0)) * (math.pi - off))
            assert great_circle_distance(c, proj.inverse(proj.forward(c))) < 1e-11


class TestRoundTrips:
    @pytest.mark.parametrize("proj", all_family_instances(), ids=lambda p: p.family)
    def test_inverse_of_forward(self, proj, rng):
        for c in sample_in_domain(proj, rng, 300):
            back = proj.inverse(proj.forward(c))
            assert great_circle_distance(c, back) < 1e-9


class TestAzimuthalEquivariance:
    @pytest.mark.parametrize(
        "proj",
        [
            Stereographic(),
            Gnomonic(),
            Orthographic(),
            CentralOnTangentPlane(),
            LambertAzimuthalEqualArea(),
        ],
        ids=lambda p: p.family,
    )
    def test_longitude_shift_rotates_image(self, proj):
        delta = math.radians(40)
        lat = -50.0 if proj.center.lat < 0 else 50.0
        p = proj.forward(GeoCoord.from_degrees(lat, 20))
        q = proj.forward(GeoCoord(math.radians(lat), math.radians(20) + delta))
        rx = math.cos(delta) * p.x - math.sin(delta) * p.y
        ry = math.sin(delta) * p.x + math.cos(delta) * p.y
        assert q.x == pytest.approx(rx, abs=1e-12)
        assert q.y == pytest.approx(ry, abs=1e-12)


# radial profile r(c) of each azimuthal family (Snyder 1987, sections 20-24)
_RADIAL = {
    "stereographic": lambda c: 2.0 * math.tan(0.5 * c),
    "gnomonic": math.tan,
    "central": math.tan,
    "orthographic": math.sin,
    "lambert_azimuthal_equal_area": lambda c: 2.0 * math.sin(0.5 * c),
}
# arc distance of the limb from the center, and whether the limb itself is in
# the domain
_LIMB = {
    "stereographic": (math.pi, False),
    "gnomonic": (0.5 * math.pi, False),
    "central": (0.5 * math.pi, False),
    "orthographic": (0.5 * math.pi, True),
    "lambert_azimuthal_equal_area": (math.pi, False),
}
_LIMB_REASON = {
    "stereographic": "the projection source maps to infinity",
    "gnomonic": "on or beyond the horizon of the tangent point",
    "central": "on or beyond the horizon of the tangent point",
    "orthographic": "on the hidden hemisphere",
    "lambert_azimuthal_equal_area": "antipode of the center is excluded",
}
_OBLIQUE_CENTERS = [(45.0, 30.0), (-30.0, -120.0), (12.5, -77.0), (60.0, 170.0), (-75.0, 5.0)]


def _snyder_oblique(family, center, c):
    """Oblique azimuthal image in Snyder's closed form (1987, sections 20-24):
    cos c = sin phi1 sin phi + cos phi1 cos phi cos(lam - lam0),
    x = k' cos phi sin(lam - lam0),
    y = k' (cos phi1 sin phi - sin phi1 cos phi cos(lam - lam0)),
    with k' = r(c) / sin c; sin c is the length of (x, y) / k'."""
    phi1, lam0 = center.lat, center.lon
    dlam = c.lon - lam0
    cos_c = math.sin(phi1) * math.sin(c.lat) + math.cos(phi1) * math.cos(c.lat) * math.cos(dlam)
    ex = math.cos(c.lat) * math.sin(dlam)
    ny = math.cos(phi1) * math.sin(c.lat) - math.sin(phi1) * math.cos(c.lat) * math.cos(dlam)
    sin_c = math.hypot(ex, ny)
    k_prime = _RADIAL[family](math.atan2(sin_c, cos_c)) / sin_c
    return k_prime * ex, k_prime * ny


class TestObliqueAzimuthalClosedForms:
    @pytest.mark.parametrize("family", sorted(_RADIAL))
    @pytest.mark.parametrize("center", _OBLIQUE_CENTERS, ids=str)
    def test_forward_and_round_trip(self, family, center, rng):
        proj = parse_projection(f"{family} center={center[0]},{center[1]}")
        limb, _ = _LIMB[family]
        points = [_at_distance(proj.center, rng.uniform(0.0, limb - 1e-3),
                               rng.uniform(-math.pi, math.pi)) for _ in range(150)]
        # near the limb, 1e-6 to 1e-3 rad inside it
        points += [_at_distance(proj.center, limb - 10.0 ** rng.uniform(-6.0, -3.0),
                                rng.uniform(-math.pi, math.pi)) for _ in range(50)]
        for i, c in enumerate(points):
            p = proj.forward(c)
            x, y = _snyder_oblique(family, proj.center, c)
            size = max(1.0, math.hypot(x, y))
            assert abs(p.x - x) <= 1e-9 * size and abs(p.y - y) <= 1e-9 * size, (c, p, x, y)
            if i < 150:
                assert great_circle_distance(c, proj.inverse(p)) < 1e-9

    @pytest.mark.parametrize("family", sorted(_RADIAL))
    def test_limb_and_antipode_messages(self, family):
        proj = parse_projection(f"{family} center=45,30")
        limb, limb_in_domain = _LIMB[family]
        outside = [_at_distance(proj.center, math.pi, 0.0)]  # the antipode
        if limb < math.pi:
            outside.append(_at_distance(proj.center, limb + 1e-6, 1.0))
        if not limb_in_domain and limb < math.pi:
            outside.append(_at_distance(proj.center, limb, 2.0))
        for c in outside:
            with pytest.raises(DomainError) as exc:
                proj.forward(c)
            assert str(exc.value) == (
                f"{c.describe()} outside {family} domain: {_LIMB_REASON[family]}"
            )

    # one rule for every family: no preimage beyond the image of _limit
    @pytest.mark.parametrize("spec, radius, message", [
        ("orthographic center=45,30", 1.5, "no preimage: radius 1.5 beyond the orthographic limb"),
        ("orthographic", 1.5, "no preimage: radius 1.5 beyond the orthographic limb"),
        ("lambert_azimuthal_equal_area center=45,30", 2.5,
         "no preimage: radius 2.5 beyond the equal-area disc"),
        ("stereographic center=45,30", 1e20,
         "no preimage: radius 1e+20 beyond the stereographic disc"),
        ("gnomonic center=45,30", 1e20, "no preimage: radius 1e+20 beyond the gnomonic disc"),
        ("central center=45,30", 1e20, "no preimage: radius 1e+20 beyond the gnomonic disc"),
    ])
    def test_inverse_beyond_the_disc(self, spec, radius, message):
        proj = parse_projection(spec)
        with pytest.raises(DomainError) as exc:
            proj.inverse(PlanePoint(0.6 * radius, -0.8 * radius))
        assert str(exc.value) == message


def _no_cone_message(deg_a: str, deg_b: str) -> str:
    return (f"standard parallels {deg_a}° and {deg_b}° from the equator give no cone "
            "constant in floats")


# a spec value in degrees: any float, one in the range of the keys, or one
# within 1e-8 rad of the equator (subnormals and zeros included)
_SPEC_DEGREES = st.one_of(
    st.floats(), st.floats(-100.0, 100.0), st.floats(-5.8e-7, 5.8e-7),
)


@st.composite
def _specs(draw) -> str:
    """A spec over one family's keys: every required key and some optional
    ones, with the second parallel often one ulp beyond the first."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    values = {}
    for f in dataclasses.fields(FAMILIES[name]):
        key = projections._SPEC_KEYS.get(f.name, f.name)
        if f.default is not dataclasses.MISSING and draw(st.booleans()):
            continue
        if key == "center":
            values[key] = f"{draw(_SPEC_DEGREES)!r},{draw(_SPEC_DEGREES)!r}"
        else:
            values[key] = repr(draw(_SPEC_DEGREES))
    if "lat1" in values and draw(st.booleans()):
        lat1 = float(values["lat1"])
        values["lat2"] = repr(math.nextafter(lat1, math.copysign(math.inf, lat1)))
    return " ".join([name, *(f"{key}={value}" for key, value in values.items())])


_DEGREE_POINTS = st.tuples(st.floats(-90.0, 90.0), st.floats(-360.0, 360.0))


class TestParseProjection:
    @given(_specs(), _DEGREE_POINTS, st.tuples(st.floats(), st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_every_spec_raises_only_map_errors(self, spec, degrees, xy):
        # a spec is refused when parsed, or its projection refuses what it
        # cannot map with a MapError; conics whose cone constant rounded to 0
        # once parsed and then raised ZeroDivisionError in forward
        try:
            proj = parse_projection(spec)
        except MapError:
            return
        coord = GeoCoord.from_degrees(*degrees)
        for call in (lambda: proj.forward(coord), lambda: proj.inverse(PlanePoint(*xy)),
                     lambda: tissot(proj, coord)):
            try:
                call()
            except MapError:
                pass

    def test_mercator_spec(self):
        proj = parse_projection("mercator lon0=10 cutoff=80")
        assert isinstance(proj, Mercator)
        assert proj.lon0 == pytest.approx(math.radians(10))
        assert proj.cutoff == pytest.approx(math.radians(80))

    def test_conic_spec(self):
        proj = parse_projection("equidistant_conic lat1=45 lat2=60 lon0=90")
        assert isinstance(proj, EquidistantConic)
        assert proj.phi_a == pytest.approx(math.radians(45))

    def test_azimuthal_center(self):
        proj = parse_projection("gnomonic center=90,0")
        assert proj.center.lat == pytest.approx(math.pi / 2)

    def test_unknown_family_lists_names(self):
        with pytest.raises(UnknownFamilyError, match="werner"):
            parse_projection("bogus")

    def test_missing_conic_parallels(self):
        with pytest.raises(ParameterError):
            parse_projection("equidistant_conic lon0=0")

    def test_unknown_key(self):
        with pytest.raises(ParameterError):
            parse_projection("werner cutoff=10")

    def test_bad_value(self):
        with pytest.raises(ParameterError):
            parse_projection("mercator lon0=abc")

    @pytest.mark.parametrize("spec, error, message", [
        ("", UnknownFamilyError,
         "empty projection spec; valid families: " + ", ".join(sorted(FAMILIES))),
        ("mercator lon0", ParameterError, "malformed parameter 'lon0'; expected key=value"),
        # the coordinate's own error passes through unchanged
        ("stereographic center=95,0", DomainError, "latitude 95.000000° outside [-90°, 90°]"),
        ("equidistant_conic lat1=0 lat2=60", ParameterError,
         "standard parallels must lie strictly between equator and pole"),
        # a NaN parallel fails the range test, not a later one
        ("equidistant_conic lat1=nan lat2=60", ParameterError,
         "standard parallels must lie strictly between equator and pole"),
        ("equidistant_conic lat1=30 lat2=nan", ParameterError,
         "standard parallels must lie strictly between equator and pole"),
        ("lambert_conformal_conic lat1=nan lat2=nan", ParameterError,
         "standard parallels must lie strictly between equator and pole"),
        ("equidistant_conic lat1=45 lat2=60 cutoff=90.001", ParameterError,
         "cutoff outside the conic's valid domain"),
        ("mercator cutoff=-0.0000001", ParameterError, "cutoff 0.0000° must lie in (0°, 90°)"),
        # center=LAT,LON takes exactly two numbers
        ("stereographic center=40", ParameterError, "could not parse value in 'center=40'"),
        ("stereographic center=40,", ParameterError, "could not parse value in 'center=40,'"),
        ("gnomonic center=,40", ParameterError, "could not parse value in 'center=,40'"),
        ("orthographic center=40,10,5", ParameterError,
         "could not parse value in 'center=40,10,5'"),
        # cone constants that do not exist in floats: tan(pi/4 + phi/2) of
        # the two parallels rounds equal, cos(pa) / cos(pb) rounds to 1 near
        # the equator, or the equidistant product underflows
        ("lambert_conformal_conic lat1=45 lat2=45.00000000000001", ParameterError,
         _no_cone_message("45.0", "45.00000000000001")),
        ("lambert_conformal_conic lat1=1e-9 lat2=2e-9", ParameterError,
         _no_cone_message("1e-09", "2e-09")),
        ("lambert_conformal_conic lat1=-1e-9 lat2=-2e-9", ParameterError,
         _no_cone_message("1e-09", "2e-09")),
        ("lambert_conformal_conic lat1=1e-298 lat2=2e-298", ParameterError,
         _no_cone_message("1e-298", "2e-298")),
        ("equidistant_conic lat1=1e-298 lat2=2e-298", ParameterError,
         _no_cone_message("1e-298", "2e-298")),
        ("equidistant_conic lat1=-1e-298 lat2=-2e-298 cutoff=-80", ParameterError,
         _no_cone_message("1e-298", "2e-298")),
    ])
    def test_rejection_messages(self, spec, error, message):
        with pytest.raises(error) as info:
            parse_projection(spec)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("spec", [
        "lambert_conformal_conic lat1=45 lat2=45.00000000000001",
        "lambert_conformal_conic lat1=-1e-9 lat2=-2e-9",
        "equidistant_conic lat1=1e-298 lat2=2e-298",
        "stereographic center=40",
    ])
    def test_cli_refuses_the_spec(self, spec, capsys):
        assert main(["project", "--proj", spec, "--lat", "30", "--lon", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("spec, key", [
        ("equidistant_conic lat1=45 lat2=60 lat1=50", "lat1"),
        ("gnomonic center=10,20 center=30,40", "center"),
        ("mercator LON0=10 lon0=10", "lon0"),
    ])
    def test_repeated_key(self, spec, key, capsys):
        with pytest.raises(ParameterError) as info:
            parse_projection(spec)
        assert str(info.value) == f"parameter {key!r} given twice"
        assert main(["project", "--proj", spec, "--lat", "55", "--lon", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter {key!r} given twice\n"

    @pytest.mark.parametrize("spec", [
        "mercator lon0=inf",
        "werner lon0=nan",
        "equirectangular lat0=nan",
        "lambert_cylindrical_equal_area lat0=nan",
        "equidistant_conic lat1=45 lat2=60 lon0=-inf",
        "lambert_conformal_conic lat1=45 lat2=60 lon0=nan",
    ])
    def test_non_finite_parameter(self, spec, capsys):
        with pytest.raises(ParameterError):
            parse_projection(spec)
        assert main(["project", "--proj", spec, "--lat", "10", "--lon", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


# families laid out about a central meridian, which tear along its antimeridian
TEAR_SPECS = {
    "equirectangular": "equirectangular lat0=30",
    "mercator": "mercator",
    "lambert_cylindrical_equal_area": "lambert_cylindrical_equal_area lat0=15",
    "equidistant_conic": "equidistant_conic lat1=45 lat2=60",
    "lambert_conformal_conic": "lambert_conformal_conic lat1=-30 lat2=-60",
    "werner": "werner",
}


class TestCutLongitude:
    def test_every_family(self):
        for proj in all_family_instances():
            if proj.family in TEAR_SPECS:
                assert proj.cut_longitude == wrap_longitude(proj.lon0 + math.pi)
            else:
                assert proj.cut_longitude is None

    @pytest.mark.parametrize("family", sorted(TEAR_SPECS))
    def test_lon0_540_is_180(self, family):
        proj = parse_projection(f"{TEAR_SPECS[family]} lon0=540")
        assert math.degrees(proj.lon0) == pytest.approx(180.0, abs=1e-12)
        assert proj.cut_longitude == wrap_longitude(proj.lon0 + math.pi)
        assert proj.cut_longitude == pytest.approx(0.0, abs=1e-12)


README = Path(__file__).resolve().parent.parent / "README.md"
SPEC_VALUES = {"lat0": "30", "lat1": "45", "lat2": "60", "lon0": "20", "cutoff": "80",
               "center": "10,20"}


def _readme_spec_table():
    """family -> (keys, required keys, {key: default}) from README's
    spec-string table."""
    section = README.read_text(encoding="utf-8").split("### Projection spec strings")[1]
    table = {}
    for line in section.split("\n### ")[0].splitlines():
        if not line.startswith("| `"):
            continue
        _, families, keys, _ = line.split("|")
        head, marker, _ = keys.partition("(required)")
        required = re.findall(r"`([^`]+)`", head) if marker else []
        defaults = dict(re.findall(r"`(\w+)` \(default ([-\d.]+)\)", keys))
        keys = [k.split("=")[0] for k in re.findall(r"`([^`]+)`", keys)]
        for family in re.findall(r"`([^`]+)`", families):
            table[family] = (keys, required, defaults)
    return table


class TestReadmeSpecTable:
    def test_lists_every_family(self):
        assert set(_readme_spec_table()) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_keys_match_parser(self, family):
        keys, required, defaults = _readme_spec_table()[family]
        spec = family + "".join(f" {k}={SPEC_VALUES[k]}" for k in keys)
        assert parse_projection(spec).family == family
        with pytest.raises(ParameterError) as info:
            parse_projection(f"{family} bogus=1")
        head, _, allowed = str(info.value).partition("; allowed: ")
        assert head == f"parameter 'bogus' not valid for {family}"
        assert allowed.split(", ") == sorted(keys)
        if required:
            optional = "".join(f" {k}={SPEC_VALUES[k]}" for k in keys if k not in required)
            with pytest.raises(ParameterError, match=f"{family} requires "
                               + " and ".join(required)):
                parse_projection(family + optional)
        bare = parse_projection(family + "".join(f" {k}={SPEC_VALUES[k]}" for k in required))
        for key, degrees in defaults.items():
            field = {"lat0": "phi0", "lat1": "phi_a", "lat2": "phi_b"}.get(key, key)
            assert getattr(bare, field) == math.radians(float(degrees))

    def test_documents_a_default(self):
        assert _readme_spec_table()["mercator"][2] == {"cutoff": "85"}


# Every out-of-domain forward, with the exact text its error prints: the
# message is built when read, so these pin that it still reads the same.
REJECTIONS = [
    ("stereographic center=30,40", -30, -140,
     "(lat -30.000000°, lon -140.000000°) outside stereographic domain: "
     "the projection source maps to infinity"),
    ("gnomonic center=-20,100", 20, -80,
     "(lat 20.000000°, lon -80.000000°) outside gnomonic domain: "
     "on or beyond the horizon of the tangent point"),
    ("central", -10, 0,
     "(lat -10.000000°, lon 0.000000°) outside central domain: "
     "on or beyond the horizon of the tangent point"),
    ("orthographic center=10,-170", -20, 10,
     "(lat -20.000000°, lon 10.000000°) outside orthographic domain: on the hidden hemisphere"),
    ("lambert_azimuthal_equal_area center=45,0", -45, 180,
     "(lat -45.000000°, lon 180.000000°) outside lambert_azimuthal_equal_area domain: "
     "antipode of the center is excluded"),
    ("mercator cutoff=80", 80.5, 12,
     "(lat 80.500000°, lon 12.000000°) outside mercator domain: beyond the ±80.0000° cutoff"),
    ("equidistant_conic lat1=20 lat2=60 cutoff=70", 75, -10,
     "(lat 75.000000°, lon -10.000000°) outside equidistant_conic domain: "
     "beyond the 70.0000° cutoff"),
    ("equidistant_conic lat1=-20 lat2=-60 cutoff=-70", -75, 30,
     "(lat -75.000000°, lon 30.000000°) outside equidistant_conic domain: "
     "beyond the -70.0000° cutoff"),
    # a longitude and a cutoff of -1e-7° round to zero, named without a sign
    ("mercator", 86, -1e-7,
     "(lat 86.000000°, lon 0.000000°) outside mercator domain: beyond the ±85.0000° cutoff"),
    ("equidistant_conic lat1=30 lat2=60 cutoff=-0.0000001", 1, 1,
     "(lat 1.000000°, lon 1.000000°) outside equidistant_conic domain: "
     "beyond the 0.0000° cutoff"),
    # parallels this close to the pole put the apex within 1e-10 rad of it
    ("equidistant_conic lat1=89.9 lat2=89.99", 90, 0,
     "(lat 90.000000°, lon 0.000000°) outside equidistant_conic domain: "
     "at or beyond the cone apex"),
    ("lambert_conformal_conic lat1=30 lat2=60", 90, 0,
     "(lat 90.000000°, lon 0.000000°) outside lambert_conformal_conic domain: poles are excluded"),
    ("lambert_conformal_conic lat1=-30 lat2=-60", -90, 0,
     "(lat -90.000000°, lon 0.000000°) outside lambert_conformal_conic domain: "
     "poles are excluded"),
]


class TestRejectionMessages:
    @pytest.mark.parametrize("spec, lat, lon, text", REJECTIONS)
    def test_forward_rejection_reads_as_before(self, spec, lat, lon, text):
        with pytest.raises(DomainError) as err:
            parse_projection(spec).forward(GeoCoord.from_degrees(lat, lon))
        assert str(err.value) == text

    @pytest.mark.parametrize("spec, lat, lon, text", REJECTIONS)
    def test_cli_prints_the_same_line(self, capsys, spec, lat, lon, text):
        code = main(["project", "--proj", spec, "--lat", str(lat), "--lon", str(lon)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {text}\n"

    def test_polyline_note_of_an_all_hidden_curve(self):
        hidden = [GeoCoord.from_degrees(10, lon) for lon in (120, 130, 140)]
        poly = project_polyline(parse_projection("orthographic center=0,0"), hidden)
        assert poly.segments == ()
        assert poly.note == (
            "(lat 10.000000°, lon 120.000000°) outside orthographic domain: "
            "on the hidden hemisphere"
        )


# Every family, a southern aspect of both conics and oblique azimuthal centres
NON_FINITE_SPECS = [
    "equirectangular lat0=30 lon0=10",
    "stereographic",
    "gnomonic",
    "central",
    "orthographic",
    "mercator lon0=-20",
    "equidistant_conic lat1=45 lat2=60 lon0=90",
    "lambert_conformal_conic lat1=45 lat2=60",
    "lambert_azimuthal_equal_area center=20,-60",
    "lambert_cylindrical_equal_area lat0=15",
    "werner lon0=40",
    "equidistant_conic lat1=-45 lat2=-60 lon0=-100",
    "lambert_conformal_conic lat1=-30 lat2=-60 lon0=170",
    "orthographic center=35,60",
    "stereographic center=-20,170",
]
NON_FINITE_POINTS = [
    (v, 0.0) for v in (math.nan, math.inf, -math.inf)
] + [(0.0, v) for v in (math.nan, math.inf, -math.inf)]


class TestNonFiniteInverse:
    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    @pytest.mark.parametrize("x, y", NON_FINITE_POINTS)
    def test_library_raises_domain_error(self, spec, x, y):
        # every family names the offending value; three of them once
        # returned a pole for some of these points
        with pytest.raises(DomainError) as err:
            parse_projection(spec).inverse(PlanePoint(x, y))
        assert re.search(r"\b(nan|inf)\b", str(err.value)), str(err.value)

    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    @pytest.mark.parametrize("x, y", NON_FINITE_POINTS)
    def test_cli_exits_one(self, capsys, spec, x, y):
        code = main(["inverse", "--proj", spec, f"--x={x!r}", f"--y={y!r}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("spec", NON_FINITE_SPECS)
    @pytest.mark.parametrize("x, y", [(1.7e308, 1.7e308), (-1.7e308, -1.7e308), (1e308, -1.5e308)])
    def test_huge_finite_point_is_not_called_non_finite(self, spec, x, y):
        # hypot overflows to inf here; the point itself is finite, so the
        # family's own bound rejects it
        with pytest.raises(DomainError) as err:
            parse_projection(spec).inverse(PlanePoint(x, y))
        assert "not a finite point" not in str(err.value)

    def test_equirectangular_nan_y_is_not_the_pole(self, capsys):
        code = main(["inverse", "--proj", "equirectangular", "--x", "0", "--y", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: no preimage: |y| = nan beyond the pole line\n"


# A point bad in both coordinates: the cylindrical inverse checks y first.
# Mercator checked x first until the three families shared one inverse.
BAD_IN_BOTH = [
    ("equirectangular lat0=30 lon0=10", 10.0, 3.0, "no preimage: |y| = 3 beyond the pole line"),
    ("lambert_cylindrical_equal_area lat0=15", -10.0, 5.0,
     "no preimage: y = 5 beyond the pole line"),
    ("mercator lon0=-20", 10.0, 5.0, "no preimage: y = 5 beyond the latitude cutoff"),
]

# Points whose inverse once overflowed a float and raised a bare OverflowError
OVERFLOWING_INVERSES = [
    ("mercator", 0.0, 1000.0, "no preimage: y = 1000 beyond the latitude cutoff"),
    ("mercator cutoff=89.9", 1.717e-4, -5.742e120,
     "no preimage: y = -5.742e+120 beyond the latitude cutoff"),
    ("lambert_conformal_conic lat1=0.01 lat2=0.02", -0.0117304475, 788.8719442,
     "no preimage: radius 3030.84666 at the excluded pole"),
]


class TestInverseErrors:
    @pytest.mark.parametrize("spec, x, y, text", BAD_IN_BOTH + OVERFLOWING_INVERSES)
    def test_library_message(self, spec, x, y, text):
        with pytest.raises(DomainError) as err:
            parse_projection(spec).inverse(PlanePoint(x, y))
        assert str(err.value) == text

    @pytest.mark.parametrize("spec, x, y, text", OVERFLOWING_INVERSES)
    def test_cli_exits_one(self, capsys, spec, x, y, text):
        code = main(["inverse", "--proj", spec, f"--x={x!r}", f"--y={y!r}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {text}\n"

    @pytest.mark.parametrize("cutoff", [math.pi / 2 - 5e-13, math.radians(89.99999999999997)])
    def test_mercator_rejects_beyond_the_cutoffs_image(self, cutoff):
        # a cutoff within 1e-12 of the pole once took any far ordinate to
        # the pole, which forward rejects; the ordinate itself is now tested
        proj = Mercator(cutoff=cutoff)
        for y in (705.0, 1e300, math.inf):
            for sign in (1.0, -1.0):
                with pytest.raises(DomainError, match="beyond the latitude cutoff$"):
                    proj.inverse(PlanePoint(0.5, sign * y))

    @pytest.mark.parametrize("cutoff", [
        math.pi / 2 - 5e-13, math.radians(89.99999999999997), math.radians(85.0),
        math.radians(80.0), math.radians(1e-6), math.nextafter(math.pi / 2, 0.0),
    ])
    def test_mercator_cutoffs_image_inverts_to_the_cutoff(self, cutoff):
        proj = Mercator(lon0=0.3, cutoff=cutoff)
        for sign in (1.0, -1.0):
            p = proj.forward(GeoCoord(sign * cutoff, 1.0))
            back = proj.inverse(p)
            assert back.lat == sign * cutoff
            assert proj.forward(back) == p
            y = math.nextafter(p.y, sign * math.inf)
            assert abs(proj.inverse(PlanePoint(p.x, y)).lat) <= cutoff
            with pytest.raises(DomainError, match="beyond the latitude cutoff$"):
                proj.inverse(PlanePoint(p.x, sign * (abs(p.y) + 1e-9)))


# Forward, inverse, Tissot and the Jacobian at the edges of every family (poles, the tear
# and the stencil's reach around it, cutoffs, limbs and antipodes), every
# value as float.hex and every error as its type and text. The digests were
# recorded before the per-family float kernels replaced the forwards, so they
# pin that the kernels, the finite-difference stencil and the deferred error
# messages reproduce the old bits. Those of instances 8 and 16 were recorded
# again when tissot began to reject the centre's antipode, which forward
# rejects: only the Tissot column of their antipode probes changed, from a
# finite sample to forward's own error. They were recorded a third time when
# local_jacobian began to reject it too: only the Jacobian column of the same
# probes changed, in the same way. That of instance 7 was recorded again when
# the conformal conic's inverse stopped reading every radius up to RHO_MIN as
# the apex: of its 14 probes at 90° - 1e-10°, 11 now invert and the 3 on the
# cut raise "outside the cone wedge", where the map angle is ill-conditioned.
# Those of instances 7, 9, 11, 12, 13 and 14 were recorded again when the
# one-sided stencil began to follow the kernel's own offset from lon0: only
# the Tissot and Jacobian columns changed, at 84 of their 1788 probes. The 9
# on the cut of instance 11 had k off by a factor of 2.3e6 and now match the
# central meridian; 75 exactly 2 steps from the cut switched stencil, 72 of
# them within 1e-6 of the central meridian either way and 3 conformal-conic
# probes at ±89.9999° within 1.9e-6.
# Those of the azimuthal instances 1, 2, 3, 4, 8, 15, 16 and 17 were recorded
# again when the azimuthal inverse began to take its latitude as atan2(z,
# hypot(x, y)) and its longitude from the unnormalised vector: only the inverse
# column changed, at 783 of their 2384 probes, each by at most 4.8e-11 rad
# (the asin latitude had rounded probes 1e-10° from a pole onto it), and 634
# of them came closer to the probe, 105 farther by at most 8e-16 rad.
# They were recorded a third time when the azimuthal forward began to read a
# point's east and north components without forming its tangent vector, and a
# polar centre became exactly (0, 0, +-1). Against the same probes evaluated
# at 40 digits, the median error over each instance's forward, round-trip,
# Jacobian and Tissot values fell, if barely for instances 3 and 4 (0.3 and 2 %);
# the Lambert round trip at its worst probe went from 2.4e-4 to 4.4e-11 rad.
# Instance 17 changed only the sign of x = 0 on its central meridian.
# Those of instances 2, 3, 4, 15 and 17 were recorded again when
# GeoCoord.describe stopped printing a latitude or longitude that rounds to
# zero as -0.000000: 105 of their 1490 lines differ, each only in that text
# of a rejection message, and no float changed.
EDGE_INSTANCES = all_family_instances() + [
    EquidistantConic(math.radians(-45), math.radians(-60), lon0=math.radians(-100)),
    EquidistantConic(math.radians(45), math.radians(60), cutoff=math.radians(80)),
    LambertConformalConic(math.radians(-30), math.radians(-60), lon0=math.radians(170)),
    Mercator(cutoff=math.radians(80)),
    Orthographic(center=GeoCoord.from_degrees(35, 60)),
    Stereographic(center=GeoCoord.from_degrees(-20, 170)),
    Gnomonic(center=GeoCoord.from_degrees(0, 180)),
]
EDGE_DIGESTS = {
    0: "d0642230a1b5de826379945e407a9aeb542a72998f69f90894aa1759ca55769c",  # equirectangular
    1: "1c80750d5c952a8048441a235e9f5431d9607bd7e0269e40dd7f0a1917674ebf",  # stereographic
    2: "675f2f4f8e07832bb496471ba20131af2d46494de68b30b30bd13b7044f70665",  # gnomonic
    3: "a6e0e2092ff425d2604030ef620f8a6b6d44893163040099e9a4098f881faf03",  # central
    4: "87ee3297966532a1b4dd50d59a79b79fa810ec2307396b73f3585260943b8372",  # orthographic
    5: "6f8b31c9d91880d05f148f248f6fd898f18212f3f17ef334a929640da45420ab",  # mercator
    6: "0fa38c871df2aba5797b36d1dd48d2ac671ace717bfa424ed932482b793b4f97",  # equidistant_conic
    7: "db519131630f3dad18407fa47c0ec0c37b049ec8e24007080839279804f24046",  # lambert_conformal_conic
    8: "174a109a91b1fe270f9f6a95971ab1966f20956fc0f05ed45bad3132df37934d",  # lambert_azimuthal_equal_area
    9: "2bcdbee093cccc48b49744875ea02f737f6ab66f3a580684edfa5f1357081145",  # lambert_cylindrical_equal_area
    10: "a673c49cd96349f9193058926e3afbe9dbb735e7dd395c73c8f15d10fcf7d06c",  # werner
    11: "ca21a4013d8a629cee645fd5c95b4ecdd6d051040b8aca66c6e279912e741236",  # equidistant_conic
    12: "d340771a16ceaf01f9fa0d80788c88d5229c35336f632beb14c2750031eb44a8",  # equidistant_conic
    13: "3096a5536dc2389411eb79e42676b3df6405845f59b4f71515ea21c6835433fe",  # lambert_conformal_conic
    14: "a837d7e8b6587ee6c1ec2140252d1294f71442fb18c3ba6074ea1d5b2f1cd9e9",  # mercator
    15: "f80139143a72b1d294891756b4a6a901abd0f07a31c219b290000015877f6a49",  # orthographic
    16: "a3b0e017060b1683a5d806a6181e584a8d9f4ca0a33413e228b4f4f24a232e7b",  # stereographic
    17: "31678a730e1188c14f809373b48727cda830389f7416ce8dc62ff1d748abdb29",  # gnomonic
}


def _at_distance(center, dist, az):
    """The point at arc distance dist from center in azimuth az."""
    sin_lat = math.sin(center.lat) * math.cos(dist) + math.cos(center.lat) * math.sin(
        dist) * math.cos(az)
    lat = math.asin(max(-1.0, min(1.0, sin_lat)))
    dlon = math.atan2(math.sin(az) * math.sin(dist) * math.cos(center.lat),
                      math.cos(dist) - math.sin(center.lat) * sin_lat)
    return GeoCoord(lat, wrap_longitude(center.lon + dlon))


def _edge_probes(proj):
    cut = proj.cut_longitude
    if cut is None:
        cut = wrap_longitude(proj.center.lon + math.pi)
    lats = [-90, -90 + 1e-10, -89.9999, -85.0000001, -85, -60, -1e-9, 0, 1e-9, 45, 50,
            80, 80.0000001, 84.9999999, 85, 85.0000001, 89.9999, 90 - 1e-10, 90]
    offsets = [0.0, 1e-12, -1e-12, 1e-7, -1e-7, 2e-6, -2e-6, 1e-3, -1e-3, 0.5, -0.5,
               math.pi / 2, -math.pi / 2, math.pi]
    probes = [GeoCoord(math.radians(lat), cut + dlon) for lat in lats for dlon in offsets]
    center = getattr(proj, "center", GeoCoord(0.0, wrap_longitude(cut + math.pi)))
    for dist in (math.pi / 2 - 1e-6, math.pi / 2 - 1e-12, math.pi / 2, math.pi / 2 + 1e-13,
                 math.pi / 2 + 1e-6, math.pi - 1e-6, math.pi - 1e-12, math.pi):
        probes += [_at_distance(center, dist, az) for az in (0.0, 1.0, 2.5, math.pi)]
    return probes


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}", None
    return " ".join(float(v).hex() for v in value), value


def _edge_digest(proj):
    lines = []
    for c in _edge_probes(proj):
        fwd, p = _outcome(proj.forward, c)
        back = "-" if p is None else _outcome(lambda p: dataclasses.astuple(proj.inverse(p)), p)[0]
        sample = _outcome(lambda c: dataclasses.astuple(tissot(proj, c)), c)[0]
        jac = _outcome(lambda c: [v for row in local_jacobian(proj, c) for v in row], c)[0]
        lines.append(f"{c.lat.hex()} {c.lon.hex()} | {fwd} | {back} | {sample} | {jac}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("index", range(len(EDGE_INSTANCES)))
def test_edge_values_are_pinned(index):
    proj = EDGE_INSTANCES[index]
    assert _edge_digest(proj) == EDGE_DIGESTS[index], repr(proj)


AZIMUTHAL_FAMILIES = sorted(name for name, cls in FAMILIES.items() if issubclass(cls, _Azimuthal))
OBLIQUE_EDGE_INSTANCES = [proj for proj in EDGE_INSTANCES
                          if isinstance(proj, _Azimuthal) and abs(proj.center.lat) < math.pi / 2]
# one instance per family and the oblique azimuthal ones, without repeats
INVERSE_CASES = list(dict.fromkeys(all_family_instances() + OBLIQUE_EDGE_INSTANCES))


def _case_id(case):
    if isinstance(case, str):
        return case
    center = getattr(case, "center", None)
    return case.family if center is None else (
        f"{case.family} center={center.lat_deg:.6g},{center.lon_deg:.6g}")


class TestInverseStaysInTheDomain:
    """An inverse raises or returns a point its forward accepts."""

    @pytest.mark.parametrize("proj", INVERSE_CASES, ids=_case_id)
    def test_plane_points(self, proj, rng):
        # radii 1e-3 to 1e300 in every direction, most of them beyond the
        # image of the domain
        rejected = []
        for _ in range(2000):
            r, az = 10.0 ** rng.uniform(-3.0, 300.0), rng.uniform(-math.pi, math.pi)
            try:
                c = proj.inverse(PlanePoint(r * math.cos(az), r * math.sin(az)))
            except DomainError:
                continue
            try:
                proj.forward(c)
            except DomainError as exc:
                rejected.append((r, az, str(exc)))
        assert rejected == []

    @pytest.mark.parametrize("case", AZIMUTHAL_FAMILIES + OBLIQUE_EDGE_INSTANCES, ids=_case_id)
    def test_images_at_the_limit(self, case, rng):
        # forward images of points 1e-16 to 1e-12 rad inside _limit, about
        # random centres for a family name: the inverse must neither reject
        # them nor round its point onto the limit
        failed = []
        for _ in range(1000):
            proj = FAMILIES[case](center=GeoCoord(
                math.asin(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi))
            ) if isinstance(case, str) else case
            c = _at_distance(proj.center, proj._limit - 10.0 ** rng.uniform(-16.0, -12.0),
                             rng.uniform(-math.pi, math.pi))
            try:
                p = proj.forward(c)
            except DomainError:  # the rounding of c reached the limit
                continue
            try:
                proj.forward(proj.inverse(p))
            except DomainError as exc:
                failed.append((proj.center, c, str(exc)))
        assert failed == []


class TestFamilyKernels:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_family_has_its_own_kernel(self, family):
        # forward is the base class's wrapper over _xy; no built-in family
        # may fall back to the base _xy, which calls forward
        cls = FAMILIES[family]
        assert cls._xy is not Projection._xy
        assert cls.forward is Projection.forward

    def test_forward_is_the_kernel(self, rng):
        for proj in all_family_instances():
            for c in sample_in_domain(proj, rng, 20):
                p = proj.forward(c)
                assert type(p) is PlanePoint
                assert (p.x, p.y) == proj._xy(c.lat, c.lon)


class _Clipped(Projection):
    """A projection that defines forward alone, torn at longitude 3: its grid
    methods are the base class's, over the fallback kernel."""

    family: ClassVar[str] = "clipped"
    cut_longitude: ClassVar[float] = 3.0

    def forward(self, c):
        if c.lat < -1.0:
            raise DomainError("south of -1 rad")
        return PlanePoint(c.lon * math.cos(c.lat), c.lat)


def test_a_forward_only_projection_tears_at_its_cut_longitude():
    # the base class finds the tear from cut_longitude alone: the splitter
    # cuts every parallel there, and the stencil stays on one side of it
    proj = _Clipped()
    poly = project_polyline(proj, [GeoCoord(0.5, lon) for lon in (2.9, 2.95, 2.99, 3.01, 3.05)])
    assert [len(seg) for seg in poly.segments] == [3, 2]
    grat = build_graticule(GeoRegion(0.0, 0.5, 2.5, 3.1), 0.25, 0.25)
    svg = render_svg(MapScene(proj, grat))
    parallels = svg.split('<g id="parallels"')[1].split("</g>")[0]
    assert parallels.count("<path ") == 2 * len(grat.lats) == 6
    seen = []

    class Recording(_Clipped):
        def forward(self, c):
            seen.append(c.lon)
            return super().forward(c)

    # the sides of the sample its stencil's longitudes lie on: east is True
    for lon, sides in ((3.0 - 1e-7, {False}), (3.0 + 1e-7, {True}), (2.9, {False, True})):
        seen.clear()
        tissot(Recording(), GeoCoord(0.5, lon))
        assert {q > lon for q in seen if q != lon} == sides, lon


def test_a_projection_without_an_inverse_says_so():
    # the base class has no inverse to fall back on
    with pytest.raises(NotImplementedError):
        _Clipped().inverse(PlanePoint(0.0, 0.0))


GRID_KERNEL_SPECS = [
    "equirectangular", "equirectangular lat0=40 lon0=180", "equirectangular lon0=-179.9",
    "mercator lon0=30", "mercator lon0=-179.9 cutoff=60", "mercator cutoff=89.9",
    "lambert_cylindrical_equal_area", "lambert_cylindrical_equal_area lat0=-30 lon0=-90",
    "equidistant_conic lat1=45 lat2=60 lon0=90", "equidistant_conic lat1=45 lat2=60 cutoff=80",
    "equidistant_conic lat1=-20 lat2=-50 lon0=180 cutoff=-70",
    "equidistant_conic lat1=60 lat2=89.999999 lon0=-100",
    "equidistant_conic lat1=-60 lat2=-89.999999",
    "lambert_conformal_conic lat1=30 lat2=60 lon0=-100",
    "lambert_conformal_conic lat1=-10 lat2=-40 lon0=180",
    "lambert_conformal_conic lat1=-30 lat2=-60 lon0=170",
    "orthographic", "orthographic center=35,60", "orthographic center=-20,179",
    "orthographic center=-90,0", "orthographic center=0,180", "orthographic center=90,45",
    "stereographic", "stereographic center=10,-170", "stereographic center=90,45",
    "stereographic center=0,0", "stereographic center=-20,170",
    "gnomonic", "gnomonic center=50,20", "gnomonic center=0,180", "gnomonic center=90,0",
    "central", "central center=-45,100", "central center=0,-150",
    "lambert_azimuthal_equal_area", "lambert_azimuthal_equal_area center=0,180",
    "lambert_azimuthal_equal_area center=-20,-179", "lambert_azimuthal_equal_area center=60,150",
    "lambert_azimuthal_equal_area center=35,60",
    "werner", "werner lon0=-179", "werner lon0=180",
    "clipped",
]


def _limit_ring(proj):
    """Points at arc distance ``_limit`` + d from an azimuthal center, for d
    in 0, +-1e-12, +-1e-10, +-1e-9 and +-2e-9, at five azimuths each. Their
    latitudes are taken by atan2, which keeps a ring next to a pole apart
    from it."""
    (cx, cy, cz), east, north = proj._frame
    ring = []
    for d in (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9, -2e-9):
        dist = proj._limit + d
        for az in (0.0, 0.7, 2.0, 3.3, 4.9):
            x, y, z = (math.cos(dist) * cv + math.sin(dist) * (math.cos(az) * nv + math.sin(az) * ev)
                       for cv, ev, nv in zip((cx, cy, cz), east, north))
            ring.append(GeoCoord(math.atan2(z, math.hypot(x, y)), math.atan2(y, x)))
    return ring


def _kernel_axes(proj, rng):
    """Latitudes and longitudes through every edge probe of ``proj``, through
    the rings of :func:`_limit_ring` of an azimuthal one, through its cutoff
    and its conic apex each side by 1e-12, across +-180°, and at random."""
    probes = _edge_probes(proj) + (_limit_ring(proj) if hasattr(proj, "_limit") else [])
    lats = {c.lat for c in probes} | {math.asin(rng.uniform(-1.0, 1.0)) for _ in range(10)}
    lons = {c.lon for c in probes} | {rng.uniform(-math.pi, math.pi) for _ in range(10)}
    lons |= {-math.pi + 1e-12, math.pi - 1e-12, math.pi}
    edges = [getattr(proj, "cutoff", None) or 0.0]
    if isinstance(proj, EquidistantConic):
        edges.append(math.copysign(proj._rho_equator - RHO_MIN, proj.phi_a))
    lats |= {sign * e + d for e in edges for sign in (-1.0, 1.0) for d in (-1e-12, 0.0, 1e-12)
             if abs(e + d) <= math.pi / 2}
    return sorted(lats), sorted(lons)


def _hex_curve(xs, ys, holes):
    images = [None if x is None and y is None else (x.hex(), y.hex()) for x, y in zip(xs, ys)]
    return images, holes


class TestGridKernels:
    """Every kernel's grid methods give ``_xy``'s floats, one curve per
    latitude (``_rows``) or per longitude (``_columns``), with None and a
    hole exactly where ``_xy`` raises."""

    @pytest.mark.parametrize("spec", GRID_KERNEL_SPECS)
    def test_rows_and_columns_equal_the_kernel(self, spec, rng):
        proj = _Clipped() if spec == "clipped" else parse_projection(spec)
        lats, lons = _kernel_axes(proj, rng)
        want = []
        for lat in lats:
            row = []
            for lon in lons:
                try:
                    x, y = proj._xy(lat, lon)
                except DomainError:
                    row.append(None)
                else:
                    row.append((x.hex(), y.hex()))
            want.append(row)

        def curve(images):
            return list(images), [k for k, image in enumerate(images) if image is None]

        assert [_hex_curve(*c) for c in proj._rows(lats, lons)] == list(map(curve, want))
        assert [_hex_curve(*c) for c in proj._columns(lats, lons)] == list(
            map(curve, zip(*want)))
        # the axes leave every domain with an edge on the sphere; the two
        # cylindrical maps without a cutoff, Werner, and a conic whose apex
        # lies beyond the pole have none
        unbounded = spec == "equidistant_conic lat1=45 lat2=60 lon0=90" or proj.family in (
            "equirectangular", "lambert_cylindrical_equal_area", "werner")
        assert any(None in row for row in want) != unbounded
        assert -math.pi / 2 in lats and math.pi / 2 in lats


MIRROR_SPECS = [
    "equidistant_conic lat1=45 lat2=60",
    "equidistant_conic lat1=20 lat2=50 lon0=180 cutoff=70",
    "equidistant_conic lat1=60 lat2=89.999999 lon0=-100",
    "lambert_conformal_conic lat1=45 lat2=60",
    "lambert_conformal_conic lat1=10 lat2=89.999999 lon0=170",
]


@pytest.mark.parametrize("spec", MIRROR_SPECS)
def test_southern_aspect_is_an_exact_mirror(spec, rng):
    # the southern conic's image of -lat is the northern image of lat with y
    # negated, to the bit: x the same, y = 0.0 - y (so an exact zero stays
    # +0.0), and the same holes; the inverse of (x, -y) is the negated
    # latitude at the same longitude, or the same error
    north = parse_projection(spec)
    south = parse_projection(re.sub(r"(lat1|lat2|cutoff)=", r"\1=-", spec))
    assert (north._sign, south._sign) == (1.0, -1.0)
    lats, lons = _kernel_axes(north, rng)
    lats = sorted({*lats, north.phi_a})
    mirrored = [-lat for lat in lats]

    def reflected(curve):
        xs, ys, holes = curve
        return _hex_curve(xs, [None if y is None else 0.0 - y for y in ys], holes)

    assert ([_hex_curve(*c) for c in south._rows(mirrored, lons)]
            == [reflected(c) for c in north._rows(lats, lons)])
    assert ([_hex_curve(*c) for c in south._columns(mirrored, lons)]
            == [reflected(c) for c in north._columns(lats, lons)])
    images = []
    for lat in lats:
        for lon in lons:
            image = _outcome(north._xy, lat, lon)[1]
            want = None if image is None else (image[0].hex(), (0.0 - image[1]).hex())
            got = _outcome(south._xy, -lat, lon)[1]
            assert (None if got is None else (got[0].hex(), got[1].hex())) == want, (lat, lon)
            if image is not None:
                images.append(image)
    # every cone but the first, whose apex lies beyond the pole, has holes
    assert (len(images) < len(lats) * len(lons)) == (spec != MIRROR_SPECS[0])
    _, apex_y = north._cone
    points = rng.sample(images, 1000) + [
        (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for _ in range(2000)] + [
        (0.0, apex_y), (-0.0, apex_y)]
    for x, y in points:
        want = _outcome(lambda: dataclasses.astuple(north.inverse(PlanePoint(x, y))))
        got = _outcome(lambda: dataclasses.astuple(south.inverse(PlanePoint(x, -y))))
        if want[1] is None:
            assert got == want
        else:
            lat, lon = want[1]
            assert got[0] == f"{(-lat).hex()} {lon.hex()}"


AZIMUTHAL_SPECS = [spec for spec in GRID_KERNEL_SPECS
                   if spec != "clipped" and hasattr(parse_projection(spec), "_limit")]


class TestAzimuthalFarSide:
    """The azimuthal grid kernel makes a sample far beyond ``_limit`` a hole
    by its dot product alone. :class:`TestGridKernels` checks its floats and
    holes against ``_xy``, on axes through rings of samples next to the
    limit; here the shortcut is shown to decide no sample that the exact
    test on the arc distance would keep."""

    @staticmethod
    def _grid(proj, lats, lons):
        return ([_hex_curve(*c) for c in proj._rows(lats, lons)],
                [_hex_curve(*c) for c in proj._columns(lats, lons)])

    @pytest.mark.parametrize("spec", AZIMUTHAL_SPECS)
    def test_without_the_shortcut_the_grid_is_the_same(self, spec, rng, monkeypatch):
        proj = parse_projection(spec)
        lats, lons = _kernel_axes(proj, rng)
        grid = self._grid(proj, lats, lons)
        # the rings straddle the limit: _xy rejects some samples, keeps some
        assert {_outcome(proj._xy, c.lat, c.lon)[1] is None
                for c in _limit_ring(proj)} == {True, False}
        monkeypatch.setattr(projections, "FAR_SIDE_MARGIN", math.inf)
        assert self._grid(proj, lats, lons) == grid
        # the positive control: a cut 2e-9 inside the limit drops samples
        # that _xy keeps
        monkeypatch.setattr(projections, "FAR_SIDE_MARGIN", -2e-9)
        assert self._grid(proj, lats, lons) != grid

    def test_the_shortcut_is_taken_on_the_hidden_hemisphere(self, rng, monkeypatch):
        # most of the rejected half of an orthographic grid never reaches
        # atan2
        proj = parse_projection("orthographic center=35,60")
        calls = []
        fake = SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                  if not name.startswith("_")})
        fake.atan2 = lambda y, x: calls.append(1) or math.atan2(y, x)
        monkeypatch.setattr(projections, "math", fake)
        lats, lons = _kernel_axes(proj, rng)
        holes = sum(len(h) for _, _, h in proj._rows(lats, lons))
        assert holes > 0.4 * len(lats) * len(lons)
        assert len(calls) < len(lats) * len(lons) - 0.9 * holes


class TestAzimuthalRejections:
    @pytest.mark.parametrize("spec, lat, lon, message", [
        ("stereographic center=10,20", -10, -160, "(lat -10.000000°, lon -160.000000°) outside "
         "stereographic domain: the projection source maps to infinity"),
        ("gnomonic", 10, 0, "(lat 10.000000°, lon 0.000000°) outside gnomonic domain: "
         "on or beyond the horizon of the tangent point"),
        ("central", -10, 0, "(lat -10.000000°, lon 0.000000°) outside central domain: "
         "on or beyond the horizon of the tangent point"),
        ("orthographic", -10, 0, "(lat -10.000000°, lon 0.000000°) outside orthographic "
         "domain: on the hidden hemisphere"),
        ("lambert_azimuthal_equal_area center=10,20", -10, -160, "(lat -10.000000°, lon "
         "-160.000000°) outside lambert_azimuthal_equal_area domain: antipode of the center "
         "is excluded"),
    ])
    def test_rejection_messages_are_unchanged(self, spec, lat, lon, message):
        with pytest.raises(DomainError) as info:
            parse_projection(spec).forward(GeoCoord.from_degrees(lat, lon))
        assert str(info.value) == message


class TestPlanePointMatchesGeneratedDataclass:
    """PlanePoint sets its slots itself; it still behaves like the frozen
    slotted dataclass it was generated as."""

    def test_stores_its_arguments_unchanged(self):
        x, y = np.float64(0.25), 3
        p = PlanePoint(x, y)
        assert p.x is x and p.y is y
        assert PlanePoint(y=2.0, x=1.0) == PlanePoint(1.0, 2.0)
        assert list(PlanePoint(-0.0, 1.5)) == [-0.0, 1.5]
        assert math.copysign(1.0, PlanePoint(-0.0, 0.0).x) == -1.0

    def test_dataclass_behaviour(self):
        p = PlanePoint(0.5, -1.25)
        assert repr(p) == "PlanePoint(x=0.5, y=-1.25)"
        assert p == PlanePoint(0.5, -1.25) and p != PlanePoint(0.5, 1.25)
        assert hash(p) == hash(PlanePoint(0.5, -1.25)) == hash((0.5, -1.25))
        assert [f.name for f in dataclasses.fields(PlanePoint)] == ["x", "y"]
        assert PlanePoint.__slots__ == ("x", "y") and not hasattr(p, "__dict__")
        for name in ("x", "y"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 0.0)
        assert dataclasses.replace(p, y=2.0) == PlanePoint(0.5, 2.0)
        assert pickle.loads(pickle.dumps(p)) == p
        assert dataclasses.astuple(p) == (0.5, -1.25)
        with pytest.raises(TypeError):
            PlanePoint(1.0)


_C = GeoCoord(0.5, 1.0)
_MISSING = dataclasses.MISSING
# class, (field, default) pairs in order, constructor arguments, pinned repr
VALUE_SEMANTICS = [
    (Equirectangular, [("phi0", 0.0), ("lon0", 0.0)], (0.5, 1.0),
     "Equirectangular(phi0=0.5, lon0=1.0)"),
    (LambertCylindricalEqualArea, [("phi0", 0.0), ("lon0", 0.0)], (0.5, 1.0),
     "LambertCylindricalEqualArea(phi0=0.5, lon0=1.0)"),
    (Mercator, [("lon0", 0.0), ("cutoff", math.radians(85.0))], (1.0, 1.25),
     "Mercator(lon0=1.0, cutoff=1.25)"),
    (EquidistantConic, [("phi_a", _MISSING), ("phi_b", _MISSING), ("lon0", 0.0),
                        ("cutoff", None)], (0.5, 1.0, 1.0, 1.25),
     "EquidistantConic(phi_a=0.5, phi_b=1.0, lon0=1.0, cutoff=1.25)"),
    (LambertConformalConic, [("phi_a", _MISSING), ("phi_b", _MISSING), ("lon0", 0.0)],
     (0.5, 1.0, 1.0), "LambertConformalConic(phi_a=0.5, phi_b=1.0, lon0=1.0)"),
    (Werner, [("lon0", 0.0)], (1.0,), "Werner(lon0=1.0)"),
    (Stereographic, [("center", SOUTH_POLE)], (_C,),
     "Stereographic(center=GeoCoord(lat=0.5, lon=1.0))"),
    (Gnomonic, [("center", SOUTH_POLE)], (_C,), "Gnomonic(center=GeoCoord(lat=0.5, lon=1.0))"),
    (CentralOnTangentPlane, [("center", NORTH_POLE)], (_C,),
     "CentralOnTangentPlane(center=GeoCoord(lat=0.5, lon=1.0))"),
    (Orthographic, [("center", NORTH_POLE)], (_C,),
     "Orthographic(center=GeoCoord(lat=0.5, lon=1.0))"),
    (LambertAzimuthalEqualArea, [("center", NORTH_POLE)], (_C,),
     "LambertAzimuthalEqualArea(center=GeoCoord(lat=0.5, lon=1.0))"),
]


class TestFamilyValueSemantics:
    """Each family behaves as a frozen dataclass of its parameters: named
    fields with defaults, a pinned repr, equality and hash by class and
    value, no assignment, and ``dataclasses.replace`` through __post_init__."""

    def test_covers_every_family(self):
        assert {cls.family for cls, *_ in VALUE_SEMANTICS} == set(FAMILIES)

    @pytest.mark.parametrize("cls, defaults, args, text", VALUE_SEMANTICS,
                             ids=[cls.__name__ for cls, *_ in VALUE_SEMANTICS])
    def test_dataclass_behaviour(self, cls, defaults, args, text):
        assert dataclasses.is_dataclass(cls)
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == defaults
        p = cls(*args)
        assert repr(p) == text
        assert p == cls(*args) and hash(p) == hash(cls(*args))
        assert pickle.loads(pickle.dumps(p)) == p
        for name, _ in defaults:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, getattr(p, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.not_a_field = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.not_a_field
        if "lon0" in p.__dataclass_fields__:
            q = dataclasses.replace(p, lon0=7.0)
            assert q.lon0 == wrap_longitude(7.0) != 7.0
        else:
            q = dataclasses.replace(p, center=GeoCoord(-0.25, -2.0))
            assert q.center == GeoCoord(-0.25, -2.0)
        assert type(q) is cls and q != p

    @pytest.mark.parametrize("a, b", [
        (Equirectangular(0.5, 1.0), LambertCylindricalEqualArea(0.5, 1.0)),
        (Gnomonic(_C), CentralOnTangentPlane(_C)),
        (EquidistantConic(0.5, 1.0), LambertConformalConic(0.5, 1.0)),
    ])
    def test_classes_sharing_fields_differ(self, a, b):
        ta, tb = dataclasses.astuple(a), dataclasses.astuple(b)
        shared = min(len(ta), len(tb))
        assert ta[:shared] == tb[:shared]
        assert a != b and b != a

import dataclasses
import math
import pickle
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapproj.geo
from mapproj.errors import (
    AmbiguousGeodesicError,
    DomainError,
    InconsistentTriangleError,
    MapError,
    ParameterError,
)
from mapproj.geo import (
    HALF_PI,
    MAX_SAMPLES,
    GeoCoord,
    _canonical,
    _clamp,
    _fmt,
    GeoRegion,
    from_unit_vector,
    great_circle_distance,
    linspace,
    sample_great_circle,
    spherical_angle_from_sides,
    to_unit_vector,
    wrap_longitude,
)

lat_strategy = st.floats(-89.9, 89.9).map(math.radians)
lon_strategy = st.floats(-179.999, 180.0).map(math.radians)
coords = st.builds(GeoCoord, lat_strategy, lon_strategy)


@given(st.floats(-1e6, 1e6))
def test_wrap_longitude_range(lon):
    w = wrap_longitude(lon)
    assert -math.pi < w <= math.pi


def test_wrap_longitude_fixed_points():
    assert wrap_longitude(math.pi) == math.pi
    assert wrap_longitude(-math.pi) == math.pi
    assert wrap_longitude(0.0) == 0.0
    assert wrap_longitude(3 * math.pi) == pytest.approx(math.pi)


@pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
def test_wrap_longitude_rejects_non_finite(lon):
    # NaN would come back as NaN, and fmod raises a bare ValueError on an infinity
    with pytest.raises(DomainError, match=rf"^longitude {lon} is not finite$"):
        wrap_longitude(lon)


def _fmod_wrap(lon):
    """wrap_longitude by its defining formula, for every input."""
    lon = math.fmod(lon, 2.0 * math.pi)
    if lon <= -math.pi:
        lon += 2.0 * math.pi
    elif lon > math.pi:
        lon -= 2.0 * math.pi
    return lon


def _reference_geocoord(lat, lon):
    """GeoCoord's checks run on every input, with no in-range shortcut:
    the stored (lat, lon) or the (type, message) of the error raised."""
    lat, lon = float(lat), float(lon)
    if not (math.isfinite(lat) and math.isfinite(lon)):
        return DomainError, "coordinates must be finite"
    if abs(lat) > math.pi / 2 + 1e-12:
        return DomainError, f"latitude {math.degrees(lat):.6f}° outside [-90°, 90°]"
    lat = max(-math.pi / 2, min(math.pi / 2, lat))
    lon = 0.0 if abs(lat) == math.pi / 2 else _fmod_wrap(lon)
    return lat, lon


def _bits(x):
    assert type(x) is float
    return x.hex()  # tells -0.0 from 0.0


_EDGES = [
    0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi / 2 + 1e-13, -(math.pi / 2 + 1e-13),
    math.pi / 2 + 1e-11, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi,
    -2 * math.pi, 1e300,
]
_EDGES += [math.nextafter(v, d) for v in _EDGES for d in (-math.inf, math.inf)]
_SPECIAL = [math.nan, math.inf, -math.inf, 0, 1, -3, 4, True, np.float64(-math.pi), np.float64(0.5)]


def _same_float(a, b) -> bool:
    """Equal to the bit, with every NaN equal to every other."""
    return math.isnan(a) and math.isnan(b) or float.hex(a) == float.hex(b)


# the bounds _clamp is called with, each with its neighbours
_CLAMP_BOUNDS = [(-1.0, 1.0), (-HALF_PI, HALF_PI), (0.0, math.pi)]
_CLAMP_VALUES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300] + [
    math.nextafter(v, d) if d else v
    for pair in _CLAMP_BOUNDS for v in pair for d in (-math.inf, 0, math.inf)
]


class TestClampMatchesBuiltins:
    """_clamp is max(lo, min(hi, v)) to the bit, signed zeros and NaN
    included; it replaced that expression on the hot paths."""

    @pytest.mark.parametrize("lo, hi", _CLAMP_BOUNDS)
    @pytest.mark.parametrize("v", _CLAMP_VALUES)
    def test_edges(self, v, lo, hi):
        assert _same_float(_clamp(v, lo, hi), max(lo, min(hi, v)))

    @given(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_CLAMP_BOUNDS))
    def test_any_float(self, v, bounds):
        lo, hi = bounds
        assert _same_float(_clamp(v, lo, hi), max(lo, min(hi, v)))

    def test_ties_and_nan(self):
        # a tie returns the bound, which min and max take as their first
        # argument; NaN compares false, so min(hi, NaN) and the clamp give hi
        assert float.hex(_clamp(-0.0, 0.0, math.pi)) == float.hex(0.0)
        assert _clamp(math.nan, -1.0, 1.0) == 1.0


_FMT_SPECS = [".6f", "10.4f", ".4f", ".12g", ".9e"]
# each value's text under each spec: a text that reads as zero loses its
# minus sign and keeps the spec's width; -1e-3, NaN and -inf keep theirs
_FMT_TEXTS = {
    -0.0: ["0.000000", "    0.0000", "0.0000", "0", "0.000000000e+00"],
    -1e-9: ["0.000000", "    0.0000", "0.0000", "-1e-09", "-1.000000000e-09"],
    -1e-3: ["-0.001000", "   -0.0010", "-0.0010", "-0.001", "-1.000000000e-03"],
    math.nan: ["nan", "       nan", "nan", "nan", "nan"],
    -math.inf: ["-inf", "      -inf", "-inf", "-inf", "-inf"],
}


class TestFmt:
    """_fmt is the one place that decides a printed zero's sign."""

    @pytest.mark.parametrize("v", list(_FMT_TEXTS), ids=repr)
    @pytest.mark.parametrize("spec", _FMT_SPECS)
    def test_texts(self, v, spec):
        assert _fmt(v, spec) == _FMT_TEXTS[v][_FMT_SPECS.index(spec)]

    def test_default_spec_is_six_decimals(self):
        assert [_fmt(v) for v in (-0.0, -4e-7, -6e-7, 12.5)] == [
            "0.000000", "0.000000", "-0.000001", "12.500000"]


class TestGeoCoordMatchesItsChecks:
    """GeoCoord, and the float canonicalization that the finite-difference
    stencil shares with it, against the checks run on every input."""

    @staticmethod
    def _check(lat, lon):
        expected = _reference_geocoord(lat, lon)
        stored = (
            lambda: dataclasses.astuple(GeoCoord(lat, lon)),
            lambda: _canonical(float(lat), float(lon)),
        )
        for make in stored:
            if isinstance(expected[0], type):
                with pytest.raises(expected[0]) as err:
                    make()
                assert str(err.value) == expected[1]
                continue
            assert tuple(map(_bits, make())) == tuple(map(_bits, expected))

    @pytest.mark.parametrize("lat", _EDGES + _SPECIAL)
    def test_fixed_examples(self, lat):
        for lon in _EDGES + _SPECIAL:
            self._check(lat, lon)

    @given(
        st.one_of(st.floats(), st.sampled_from(_EDGES), st.integers(-2, 2)),
        st.one_of(st.floats(), st.sampled_from(_EDGES), st.integers(-10, 10)),
    )
    @settings(max_examples=500)
    def test_property(self, lat, lon):
        self._check(lat, lon)

    def test_default_longitude_and_dataclass_behaviour(self):
        c = GeoCoord(0.5)
        assert (c.lat, c.lon) == (0.5, 0.0)
        assert repr(c) == "GeoCoord(lat=0.5, lon=0.0)"
        assert c == GeoCoord(0.5, 0.0) and hash(c) == hash(GeoCoord(0.5, 0.0))
        assert GeoCoord.from_degrees(90.0, 45.0) == GeoCoord(math.pi / 2, 0.0)
        assert [f.name for f in dataclasses.fields(GeoCoord)] == ["lat", "lon"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.lat = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.lon = 0.0
        assert GeoCoord.__slots__ == ("lat", "lon") and not hasattr(c, "__dict__")
        assert pickle.loads(pickle.dumps(c)) == c
        assert dataclasses.replace(c, lon=4.0) == GeoCoord(0.5, 4.0 - 2.0 * math.pi)
        assert GeoCoord(lon=1.0, lat=0.25) == GeoCoord(0.25, 1.0)

    def test_canonical_returns_open_range_pairs_unchanged(self):
        for lat in (-math.nextafter(math.pi / 2, 0.0), -0.0, 0.0, 1.0):
            for lon in (math.nextafter(-math.pi, 0.0), -0.0, 0.0, math.pi):
                assert tuple(map(_bits, _canonical(lat, lon))) == (_bits(lat), _bits(lon))

    @pytest.mark.parametrize("lon", _EDGES + [math.pi / 3, -2.0, 7.5, -1e6])
    def test_wrap_longitude_is_the_fmod_formula(self, lon):
        assert _bits(wrap_longitude(lon)) == _bits(_fmod_wrap(lon))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_wrap_longitude_property(self, lon):
        assert _bits(wrap_longitude(lon)) == _bits(_fmod_wrap(lon))


class TestGeoCoord:
    def test_pole_canonicalizes_longitude(self):
        assert GeoCoord(math.pi / 2, 1.23).lon == 0.0
        assert GeoCoord(-math.pi / 2, -2.0).lon == 0.0

    def test_longitude_normalized(self):
        c = GeoCoord.from_degrees(10, 370)
        assert c.lon_deg == pytest.approx(10.0)

    def test_latitude_out_of_range(self):
        with pytest.raises(DomainError):
            GeoCoord.from_degrees(95, 10)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            GeoCoord(math.nan, 0.0)


class TestUnitVector:
    def test_axis_case(self):
        assert np.allclose(to_unit_vector(GeoCoord(0.0, 0.0)), [1, 0, 0], atol=1e-15)

    def test_north_pole(self):
        v = to_unit_vector(GeoCoord.from_degrees(90, 123))
        assert np.allclose(v, [0, 0, 1], atol=1e-15)

    def test_embedding_formula(self):
        # direct evaluation of the embedding at (45N, 90E)
        v = to_unit_vector(GeoCoord.from_degrees(45, 90))
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(0.7071067811865476, abs=1e-12)
        assert v[2] == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_inverse_pole_canonicalization(self):
        c = from_unit_vector([0.0, 0.0, -1.0])
        assert c.lat == -math.pi / 2
        assert c.lon == 0.0

    def test_inverse_axis(self):
        c = from_unit_vector([1.0, 0.0, 0.0])
        assert (c.lat, c.lon) == (0.0, 0.0)

    def test_inverse_of_forward_example(self):
        c = from_unit_vector([0.0, 0.7071067811865476, 0.7071067811865475])
        assert c.lat_deg == pytest.approx(45.0, abs=1e-10)
        assert c.lon_deg == pytest.approx(90.0, abs=1e-10)

    @pytest.mark.parametrize("v, error, message", [
        ([1.0, 1.0, 0.0], DomainError, r"not a unit vector: \|v\| = 1.41421356237"),
        ((math.nan, 0.0, 0.0), DomainError, r"not a unit vector: \|v\| = nan"),
        ((1.0, 0.0), ParameterError, r"not three numbers: \(1.0, 0.0\)"),
        ("abc", ParameterError, r"not three numbers: 'abc'"),
        ("100", ParameterError, r"not three numbers: '100'"),
    ], ids=["long", "nan", "two-numbers", "letters", "digits"])
    def test_non_unit_rejected(self, v, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            from_unit_vector(v)

    @given(coords)
    @settings(max_examples=200)
    def test_round_trip(self, c):
        back = from_unit_vector(to_unit_vector(c))
        assert abs(back.lat - c.lat) < 1e-12
        assert abs(wrap_longitude(back.lon - c.lon)) < 1e-12


class TestGreatCircleDistance:
    def test_coincident(self):
        c = GeoCoord.from_degrees(12, 34)
        assert great_circle_distance(c, c) == 0.0

    def test_quarter_equator(self):
        d = great_circle_distance(GeoCoord(0, 0), GeoCoord.from_degrees(0, 90))
        assert d == pytest.approx(math.pi / 2, abs=1e-15)

    def test_paris_to_petersburg_against_integration_oracle(self):
        # oracle: chord-sum integration of the slerp path, run offline at
        # 200k segments, agreeing with the atan2 form to 6e-13
        a = GeoCoord.from_degrees(48.8567, 2.3522)
        b = GeoCoord.from_degrees(59.9375, 30.3086)
        assert great_circle_distance(a, b) == pytest.approx(0.339578762221593, abs=1e-12)

    def test_integration_oracle_inline(self):
        a = GeoCoord.from_degrees(48.8567, 2.3522)
        b = GeoCoord.from_degrees(59.9375, 30.3086)
        path = sample_great_circle(a, b, 4001)
        vecs = np.array([to_unit_vector(p) for p in path])
        chord_sum = float(np.linalg.norm(np.diff(vecs, axis=0), axis=1).sum())
        assert great_circle_distance(a, b) == pytest.approx(chord_sum, abs=1e-8)

    @given(coords, coords)
    @settings(max_examples=150)
    def test_symmetry(self, a, b):
        assert great_circle_distance(a, b) == great_circle_distance(b, a)

    @given(coords, coords, coords)
    @settings(max_examples=150)
    def test_triangle_inequality(self, a, b, c):
        assert great_circle_distance(a, c) <= (
            great_circle_distance(a, b) + great_circle_distance(b, c) + 1e-12
        )

    def test_near_antipodal_stability(self):
        a = GeoCoord.from_degrees(10, 20)
        b = GeoCoord.from_degrees(-10, -160 + 1e-7)
        d = great_circle_distance(a, b)
        assert d < math.pi
        assert d == pytest.approx(math.pi, abs=1e-8)


def _reference_distance(a: GeoCoord, b: GeoCoord) -> float:
    """great_circle_distance's cross/dot atan2 form, on numpy 3-vectors."""
    u, v = np.array(to_unit_vector(a)), np.array(to_unit_vector(b))
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def _reference_samples(a: GeoCoord, b: GeoCoord, n: int) -> list[GeoCoord]:
    """sample_great_circle's checks and slerp, on numpy 3-vectors."""
    if n < 2:
        raise ParameterError(f"need at least 2 samples, got {n}")
    u, v = np.array(to_unit_vector(a)), np.array(to_unit_vector(b))
    omega = _reference_distance(a, b)
    if omega < 1e-15:
        raise ParameterError("endpoints coincide; the arc is degenerate")
    if omega > math.pi - 1e-9:
        raise AmbiguousGeodesicError(
            f"endpoints {a.describe()} and {b.describe()} are antipodal"
        )
    points = [a]
    for i in range(1, n - 1):
        t = i / (n - 1)
        w = (math.sin((1.0 - t) * omega) * u + math.sin(t * omega) * v) / math.sin(omega)
        points.append(from_unit_vector(w / np.linalg.norm(w)))
    return points + [b]


class TestFloatGeometryMatchesNumpyReference:
    """The float 3-tuple arithmetic agrees with the numpy vector formulas
    it replaced, to rounding."""

    @staticmethod
    def _pairs(rng, count):
        """Random pairs, pairs 1e-6 rad apart and pairs 1e-6 rad short of
        antipodal."""
        def random_coord():
            return GeoCoord(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))

        def moved(c):
            # about 1e-6 rad away, in a random direction
            bearing = rng.uniform(0.0, 2.0 * math.pi)
            lat = c.lat + 1e-6 * math.cos(bearing)
            lon = c.lon + 1e-6 * math.sin(bearing) / math.cos(c.lat)
            return GeoCoord(lat, lon)

        pairs = [(random_coord(), random_coord()) for _ in range(count)]
        for _ in range(count):
            a = random_coord()
            if abs(a.lat) > 1.5:
                continue
            b = moved(a)
            pairs.append((a, b))
            pairs.append((a, GeoCoord(-b.lat, b.lon + math.pi)))
        return pairs

    def test_distance_within_4_ulp(self, rng):
        for a, b in self._pairs(rng, 3000):
            got, ref = great_circle_distance(a, b), _reference_distance(a, b)
            assert abs(got - ref) <= 4 * math.ulp(ref), (a, b)

    def test_samples_within_1e_14_rad(self, rng):
        for a, b in self._pairs(rng, 200):
            if _reference_distance(a, b) > math.pi - 1e-9:
                continue
            n = rng.randint(2, 40)
            got, ref = sample_great_circle(a, b, n), _reference_samples(a, b, n)
            assert len(got) == n and got[0] is a and got[-1] is b
            for p, q in zip(got, ref):
                assert _reference_distance(p, q) <= 1e-14, (a, b, n)

    def test_linspace_is_numpy_linspace_bit_for_bit(self, rng):
        # axes shaped like grid regions (degree bounds, whole or not,
        # longitudes past the seam) and like conic bands down to 1e-6 rad
        axes = []
        for _ in range(60):
            lat_lo, lat_hi = sorted(rng.uniform(-90, 90) for _ in range(2))
            lon_lo = rng.uniform(-180, 180)
            lon_hi = lon_lo + rng.uniform(1, 360)
            phi_lo = rng.uniform(0.0, 1.5)
            width = rng.choice([1e-6, 1e-4, 1e-2, rng.uniform(1e-6, 1.57 - phi_lo)])
            axes += [
                (math.radians(lat_lo), math.radians(lat_hi)),
                (math.radians(round(lon_lo)), math.radians(round(lon_hi))),
                (math.radians(lon_lo), math.radians(lon_hi)),
                (phi_lo, phi_lo + width),
            ]
        for lo, hi in axes:
            n = rng.choice([2, 3, 10_001, rng.randint(2, 10_001)])
            assert array("d", linspace(lo, hi, n)).tobytes() == np.linspace(lo, hi, n).tobytes()

    @pytest.mark.parametrize("a, b, n", [
        (GeoCoord(0.3, 0.4), GeoCoord(0.3, 0.4), 5),
        (GeoCoord(0.0, 0.0), GeoCoord.from_degrees(0, 180), 5),
        (GeoCoord.from_degrees(10, 20), GeoCoord.from_degrees(-10, -160), 3),
        (GeoCoord(0.0, 0.0), GeoCoord(0.0, 1.0), 1),
        (GeoCoord(0.0, 0.0), GeoCoord(0.0, 1.0), -3),
    ])
    def test_same_errors(self, a, b, n):
        with pytest.raises(MapError) as ref:
            _reference_samples(a, b, n)
        with pytest.raises(type(ref.value), match=f"^{re.escape(str(ref.value))}$"):
            sample_great_circle(a, b, n)

def _dihedral_angle(a: GeoCoord, b: GeoCoord, c: GeoCoord) -> float:
    """Independent oracle: angle at vertex a via tangent-plane vectors."""
    va, vb, vc = (np.array(to_unit_vector(p)) for p in (a, b, c))
    tb = vb - np.dot(vb, va) * va
    tc = vc - np.dot(vc, va) * va
    cos_angle = float(np.dot(tb, tc) / (np.linalg.norm(tb) * np.linalg.norm(tc)))
    return math.acos(max(-1.0, min(1.0, cos_angle)))


class TestSphericalAngle:
    def test_octant_triangle(self):
        quarter = math.pi / 2
        assert spherical_angle_from_sides(quarter, quarter, quarter) == pytest.approx(
            quarter, abs=1e-15
        )

    def test_isosceles_against_construction(self):
        # cos A = cos 60 / 1 = 0.5; cross-check by building the triangle
        a = spherical_angle_from_sides(math.pi / 2, math.pi / 2, math.radians(60))
        assert a == pytest.approx(math.radians(60), abs=1e-12)
        va = GeoCoord.from_degrees(90, 0)
        vb = GeoCoord.from_degrees(0, 0)
        vc = GeoCoord.from_degrees(0, 60)
        assert a == pytest.approx(_dihedral_angle(va, vb, vc), abs=1e-12)

    def test_degenerate_collinear(self):
        a = spherical_angle_from_sides(math.radians(30), math.radians(40), math.radians(70))
        assert a == pytest.approx(math.pi, abs=1e-7)

    def test_side_out_of_range(self):
        with pytest.raises(DomainError):
            spherical_angle_from_sides(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            spherical_angle_from_sides(1.0, math.pi, 1.0)
        # a side of -1e-12 rad rounds to zero degrees and is named without its sign
        with pytest.raises(DomainError, match=r"^side ab = 0\.000000° not in \(0°, 180°\)$"):
            spherical_angle_from_sides(-1e-12, 1.0, 1.0)

    def test_inconsistent_triangle(self):
        with pytest.raises(InconsistentTriangleError):
            spherical_angle_from_sides(math.radians(10), math.radians(10), math.radians(80))

    def test_against_dihedral_oracle(self, rng):
        hits = 0
        while hits < 1000:
            a, b, c = (
                GeoCoord(math.asin(rng.uniform(-1, 1)), rng.uniform(-math.pi, math.pi))
                for _ in range(3)
            )
            ab = great_circle_distance(a, b)
            ac = great_circle_distance(a, c)
            bc = great_circle_distance(b, c)
            if min(ab, ac, bc) < 1e-3 or max(ab, ac, bc) > math.pi - 1e-3:
                continue
            hits += 1
            got = spherical_angle_from_sides(ab, ac, bc)
            assert got == pytest.approx(_dihedral_angle(a, b, c), abs=1e-9)


class TestSampleGreatCircle:
    def test_two_points_are_endpoints(self):
        a, b = GeoCoord.from_degrees(10, 20), GeoCoord.from_degrees(30, 40)
        assert sample_great_circle(a, b, 2) == [a, b]

    def test_equator_midpoint(self):
        pts = sample_great_circle(GeoCoord(0, 0), GeoCoord.from_degrees(0, 90), 3)
        assert pts[1].lat_deg == pytest.approx(0.0, abs=1e-12)
        assert pts[1].lon_deg == pytest.approx(45.0, abs=1e-12)

    def test_equal_spacing(self, rng):
        a = GeoCoord.from_degrees(13.5, -77.0)
        b = GeoCoord.from_degrees(62.0, 101.0)
        pts = sample_great_circle(a, b, 100)
        gaps = [great_circle_distance(p, q) for p, q in zip(pts, pts[1:])]
        assert max(gaps) - min(gaps) < 1e-12

    def test_latitudes_over_the_pole(self):
        # the meridian arc from 89.9999N 0E over the pole to 89.9999N 180E,
        # where lat = pi/2 - |pi/2 - lat_a - t * omega|; asin(z) of a z this
        # close to 1 loses half the digits
        a, b = GeoCoord.from_degrees(89.9999, 0), GeoCoord.from_degrees(89.9999, 180)
        omega, n = math.pi - 2.0 * a.lat, 101
        pts = sample_great_circle(a, b, n)
        for i, p in enumerate(pts):
            want = math.pi / 2 - abs(math.pi / 2 - a.lat - i / (n - 1) * omega)
            assert abs(p.lat - want) <= 1e-12, i

    @pytest.mark.parametrize("short", [1e-8, 1e-7])
    def test_nearly_antipodal_arc_is_sampled(self, short):
        # an arc this close to antipodal interpolates vectors whose length is
        # off 1 by about 1e-16 / short, more than from_unit_vector accepts
        end, n = math.pi - short, 101
        pts = sample_great_circle(GeoCoord(0, 0), GeoCoord(0, end), n)
        assert len(pts) == n
        for i, p in enumerate(pts):
            assert p.lat == 0.0
            assert abs(p.lon - i / (n - 1) * end) <= 1e-7, i

    def test_antipodal_rejected(self):
        with pytest.raises(AmbiguousGeodesicError):
            sample_great_circle(GeoCoord(0, 0), GeoCoord.from_degrees(0, 180), 5)

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            sample_great_circle(GeoCoord(0, 0), GeoCoord(0, 1), 1)

    def test_coincident_rejected(self):
        c = GeoCoord(0.3, 0.4)
        with pytest.raises(ParameterError):
            sample_great_circle(c, c, 5)

    def test_above_the_cap_is_refused_unbuilt(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sample was built")

        monkeypatch.setattr(mapproj.geo, "to_unit_vector", refuse)
        monkeypatch.setattr(mapproj.geo, "from_unit_vector", refuse)
        n = MAX_SAMPLES + 1
        with pytest.raises(ParameterError,
                           match="^10000001 samples exceed the cap of 10000000 samples$"):
            sample_great_circle(GeoCoord(0, 0), GeoCoord(0, 1), n)


class TestGeoRegion:
    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            GeoRegion.from_degrees(50, 40, 0, 10)
        with pytest.raises(ParameterError):
            GeoRegion.from_degrees(0, 10, 30, 20)

    @pytest.mark.parametrize("index, name", enumerate(("lat_lo", "lat_hi", "lon_lo", "lon_hi")))
    def test_nan_bound_is_named(self, index, name):
        bounds = [0.0, 10.0, 0.0, 10.0]
        bounds[index] = math.nan
        with pytest.raises(ParameterError, match=rf"^region bound {name} is not a number$"):
            GeoRegion.from_degrees(*bounds)
        # named before its partner bound's ordering error
        bounds[index ^ 1] = -math.inf
        with pytest.raises(ParameterError, match=rf"^region bound {name} is not a number$"):
            GeoRegion(*bounds)

    def test_from_degrees(self):
        r = GeoRegion.from_degrees(45, 70, 30, 150)
        assert r.lat_lo == pytest.approx(math.radians(45))
        assert r.lon_hi == pytest.approx(math.radians(150))

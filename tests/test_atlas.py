import dataclasses
import hashlib
import math
import random
import re
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapproj.atlas
from mapproj import (
    EquidistantConic,
    GeoCoord,
    GeoRegion,
    Mercator,
    Stereographic,
    sample_great_circle,
)
from mapproj import projections
from mapproj.atlas import (
    POLE_CLIP,
    GazetteerEntry,
    Graticule,
    MapScene,
    build_graticule,
    dump_gazetteer,
    load_gazetteer,
    render_svg,
)
from mapproj.distortion import tissot
from mapproj.errors import DomainError, MapError, ParameterError
from mapproj.geo import HALF_PI, MAX_SAMPLES, linspace, wrap_longitude
from mapproj.geodesics import (
    PlanePolyline, _runs, _three_point_fit, fit_circular_arc, project_polyline, straightness,
)
from mapproj.projections import PlanePoint, parse_projection
from conftest import TEAR_FAMILIES, TEAR_LON0S

DELISLE = EquidistantConic(math.radians(45), math.radians(60), lon0=math.radians(90))
BAND = GeoRegion.from_degrees(45, 70, 30, 150)


class TestBuildGraticule:
    def test_global_counts(self):
        g = build_graticule(
            GeoRegion.from_degrees(-90, 90, -180, 180),
            math.radians(10), math.radians(10),
        )
        assert len(g.parallels) == 17  # -80 .. 80, poles excluded
        assert len(g.meridians) == 36  # seam meridian deduplicated

    def test_region_counts(self):
        g = build_graticule(BAND, math.radians(5), math.radians(5))
        assert len(g.parallels) == 6
        assert len(g.meridians) == 25

    def test_poles_excluded_from_meridians(self):
        g = build_graticule(
            GeoRegion.from_degrees(-90, 90, 0, 30), math.radians(30), math.radians(30)
        )
        for curve in g.meridians:
            assert max(abs(c.lat) for c in curve) < math.pi / 2

    def test_wide_spacing_degrades_to_boundary_curves(self):
        g = build_graticule(
            GeoRegion.from_degrees(46, 49, 11, 13), math.radians(10), math.radians(10)
        )
        assert [round(c[0].lat_deg, 6) for c in g.parallels] == [46.0, 49.0]

    def test_bad_spacing(self):
        with pytest.raises(ParameterError):
            build_graticule(BAND, 0.0, math.radians(5))

    def test_sampling_density(self):
        g = build_graticule(BAND, math.radians(5), math.radians(5), samples_per_degree=2.0)
        parallel = g.parallels[0]
        assert len(parallel) == 241  # 120 degrees * 2 + 1


class TestGraticuleCap:
    """A graticule above MAX_SAMPLES is refused before any axis is built."""

    # 2 parallels and 2 meridians, each of round(10 * density) + 1 samples
    SQUARE = GeoRegion.from_degrees(0, 10, 0, 10)

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an axis was built")

        monkeypatch.setattr(mapproj.atlas, "linspace", refuse)

    def test_above_the_cap_is_refused_unbuilt(self, unbuilt):
        assert MAX_SAMPLES == 10_000_000
        message = "graticule of 10000004 samples exceeds the cap of 10000000 samples"
        with pytest.raises(ParameterError, match=f"^{message}$"):
            build_graticule(self.SQUARE, math.radians(10), math.radians(10), 250_000.0)

    def test_the_cap_itself_is_built(self, monkeypatch):
        class Built(Exception):
            pass

        def built(*args):
            raise Built

        monkeypatch.setattr(mapproj.atlas, "linspace", built)
        with pytest.raises(Built):
            build_graticule(self.SQUARE, math.radians(10), math.radians(10), 249_999.9)

    @pytest.mark.parametrize("dphi, count", [
        # about 3e15 multiples of the spacing, once a loop of as many steps
        (1e-15, "4527035013822918390"),
        # multiples past any index, and past any float
        (1e-300, "inf"), (5e-324, "inf"),
    ])
    def test_tiny_spacing_is_refused_unbuilt(self, unbuilt, dphi, count):
        with pytest.raises(ParameterError, match=f"^graticule of {count} samples exceeds"):
            build_graticule(WORLD, dphi, math.radians(10))

    def test_huge_density_is_refused_unbuilt(self, unbuilt):
        with pytest.raises(ParameterError, match="^graticule of inf samples exceeds"):
            build_graticule(WORLD, math.radians(10), math.radians(10), 1e308)


def _reference_axes(region, dphi, dlam, per_degree):
    """build_graticule's raw (uncanonicalized) axes, written out from its
    docstring: the multiples of each spacing in the region, with 1e-9 slack
    for radian rounding; the parallels strictly inside the pole clip, or else
    the clipped latitude bounds; the meridians with one copy of a repeated
    seam, or else the longitude bounds; and each sample axis a linspace of
    the clipped bounds at per_degree samples per degree, at least 2."""
    cap = math.pi / 2 - POLE_CLIP

    def multiples(lo, hi, step):
        return [k * step for k in range(math.ceil(lo / step - 1e-9),
                                        math.floor(hi / step + 1e-9) + 1)]

    def samples(lo, hi):
        return linspace(lo, hi, max(2, int(round(math.degrees(hi - lo) * per_degree)) + 1))

    mer_lo, mer_hi = max(region.lat_lo, -cap), min(region.lat_hi, cap)
    lats = [v for v in multiples(region.lat_lo, region.lat_hi, dphi) if abs(v) < cap]
    seen = {}
    for lon in multiples(region.lon_lo, region.lon_hi, dlam):
        seen.setdefault(round(wrap_longitude(lon), 12), lon)
    return (
        lats or sorted({mer_lo, mer_hi}),
        sorted(seen.values()) or [region.lon_lo, region.lon_hi],
        samples(mer_lo, mer_hi),
        samples(region.lon_lo, region.lon_hi),
    )


def _by_constructor(region, dphi, dlam, per_degree):
    """build_graticule's curves built sample by sample with the public
    GeoCoord constructor, from the raw (uncanonicalized) axis values."""
    lats, lons, lat_samples, lon_samples = _reference_axes(region, dphi, dlam, per_degree)
    return (
        [[GeoCoord(lat, lon) for lon in lon_samples] for lat in lats],
        [[GeoCoord(lat, lon) for lat in lat_samples] for lon in lons],
    )


class TestGraticuleSamplesAreCanonical:
    """build_graticule stores canonical axes; every curve sample built from
    them must be what the constructor gives for the raw axis values."""

    @pytest.mark.parametrize("region, dphi, dlam", [
        # int fields; the meridians fall back to the int boundaries 1 and 3
        (GeoRegion(0, 1, 1, 3), 0.25, 10.0),
        # np.float64 fields
        (GeoRegion(*np.radians([10.1, 40.3, -20.7, 60.2])), math.radians(5), math.radians(7)),
        (GeoRegion.from_degrees(-90, 90, -180, 180), math.radians(10), math.radians(15)),
        (GeoRegion.from_degrees(-30, 60, 150, 210), math.radians(10), math.radians(10)),
        # wide spacing: both families fall back to the region's boundary
        (GeoRegion.from_degrees(46, 49, 11, 13), math.radians(10), math.radians(10)),
    ], ids=["int", "float64", "world", "seam", "wide-spacing"])
    def test_samples_match_the_constructor(self, region, dphi, dlam):
        g = build_graticule(region, dphi, dlam, samples_per_degree=2.0)
        parallels, meridians = _by_constructor(region, dphi, dlam, 2.0)
        assert [len(c) for c in g.parallels] == [len(c) for c in parallels]
        assert [len(c) for c in g.meridians] == [len(c) for c in meridians]
        pairs = [
            (got, want)
            for ours, theirs in ((g.parallels, parallels), (g.meridians, meridians))
            for curve, ref in zip(ours, theirs)
            for got, want in zip(curve, ref)
        ]
        for got, want in pairs:
            assert type(got.lat) is float and type(got.lon) is float
            assert (got.lat.hex(), got.lon.hex()) == (want.lat.hex(), want.lon.hex())
            assert repr(got) == repr(want)
            assert hash(got) == hash(want)

    def test_world_parallels_start_at_plus_180(self):
        g = build_graticule(
            GeoRegion.from_degrees(-90, 90, -180, 180), math.radians(30), math.radians(30)
        )
        assert {c[0].lon for c in g.parallels} == {math.pi}
        assert {c[-1].lon for c in g.parallels} == {math.pi}


class TestGraticuleAxes:
    """The axes are the reference's, canonicalized: every value a float, the
    longitudes wrapped into (-180°, 180°]."""

    def test_axes_are_linspace_of_the_clipped_bounds(self):
        rng = random.Random(20261018)
        for _ in range(200):
            lat_lo, lat_hi = sorted(rng.sample(range(-90, 91), 2))
            lon_lo = rng.uniform(-180.0, 180.0)
            lon_hi = lon_lo + rng.choice([360.0, rng.uniform(0.5, 360.0)])
            region = GeoRegion.from_degrees(lat_lo, lat_hi, lon_lo, lon_hi)
            per_degree = rng.choice([0.5, 1.0, 2.0, 4.0])
            # divisors of 360°, spacings that do not divide it, and spacings
            # wider than the region
            dphi, dlam = (math.radians(rng.choice([
                rng.choice([5, 10, 15, 30, 45, 90]), rng.uniform(3.0, 40.0),
                rng.uniform(40.0, 400.0),
            ])) for _ in range(2))
            g = build_graticule(region, dphi, dlam, per_degree)
            lats, lons, lat_samples, lon_samples = _reference_axes(
                region, dphi, dlam, per_degree)
            want = (lats, [wrap_longitude(v) for v in lons],
                    lat_samples, [wrap_longitude(v) for v in lon_samples])
            got = (g.lats, g.lons, g.lat_samples, g.lon_samples)
            for axis, ref in zip(got, want):
                assert list(map(float.hex, axis)) == list(map(float.hex, ref))

    # SHA-256 of the float.hex of every axis; (region, spacing in degrees,
    # samples per degree) as in the Delisle scene and the 5° world scenes
    @pytest.mark.parametrize("region, step, per_degree, digest", [
        (BAND, (5, 10), 4.0,
         "c7e5ce32a10b6b7ea73550c97251815efadcaf512ec17adfe4369f8e5e1319da"),
        (GeoRegion.from_degrees(-90, 90, -180, 180), (5, 5), 1.0,
         "66bb46dce78e966f7b44241d6a013cc79c100c47a41c3f68d8c2b523e41a0c81"),
    ], ids=["delisle", "world-5"])
    def test_axes_are_pinned(self, region, step, per_degree, digest):
        g = build_graticule(region, *map(math.radians, step), per_degree)
        axes = (g.lats, g.lons, g.lat_samples, g.lon_samples)
        text = " | ".join(" ".join(map(float.hex, axis)) for axis in axes)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("west", [-178, -173])
    @pytest.mark.parametrize("spec", [
        "mercator", "equidistant_conic lat1=45 lat2=60", "equirectangular",
    ])
    def test_parallels_reach_the_180_meridian(self, spec, west):
        # lo + span * i / (n - 1) used to land 1 ulp past pi on these
        # regions, so the last sample wrapped to -180° and every parallel
        # lost it to the tear
        proj = parse_projection(spec)
        g = build_graticule(
            GeoRegion.from_degrees(0, 60, west, 180), math.radians(10), math.radians(10)
        )
        assert g.lon_samples[-1] == math.pi
        for lat in g.lats:
            segments = mapproj.atlas._project_floats(
                proj, [lat] * len(g.lon_samples), g.lon_samples
            )
            assert len(segments) == 1
            (xs, ys), = segments
            end = proj.forward(GeoCoord(lat, math.pi))
            assert (xs[-1], ys[-1]) == (end.x, end.y)


class TestProjectPolyline:
    def test_equator_under_mercator_single_segment(self):
        curve = [GeoCoord.from_degrees(0, d) for d in range(-170, 171, 10)]
        poly = project_polyline(Mercator(), curve)
        assert len(poly.segments) == 1
        ys = {p.y for p in poly.segments[0]}
        assert ys == {0.0}

    def test_full_parallel_splits_at_cone_cut(self):
        curve = [GeoCoord.from_degrees(50, d) for d in range(-180, 180, 2)]
        poly = project_polyline(DELISLE, curve)
        assert len(poly.segments) == 2

    def test_fully_outside_curve_records_reason(self):
        curve = [GeoCoord.from_degrees(88, d) for d in range(0, 40, 5)]
        poly = project_polyline(Mercator(), curve)
        assert poly.is_empty
        assert "cutoff" in poly.note

    def test_azimuthal_families_never_split_on_longitude(self):
        curve = [GeoCoord.from_degrees(-50, d) for d in range(-180, 180, 2)]
        poly = project_polyline(Stereographic(), curve)
        assert len(poly.segments) == 1


# the characters str.splitlines breaks a line at, and some that str.strip
# removes and it does not
LINE_BREAKS_AND_SPACES = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029 \t\x1f\xa0\u3000"


class TestGazetteer:
    def test_decimal_parse(self):
        entries = load_gazetteer("name,lat,lon\nAlexandria,31.2,29.92\n")
        assert entries[0].name == "Alexandria"
        assert entries[0].coord.lat_deg == pytest.approx(31.2)
        assert entries[0].coord.lon_deg == pytest.approx(29.92)

    def test_degree_minute_parse(self):
        entries = load_gazetteer("name,lat,lon\nX,60°30′,24°58′\nY,60°59.9′,-0°0'\nZ,60.5°,0°\n")
        assert entries[0].coord.lat_deg == pytest.approx(60.5)
        assert entries[0].coord.lon_deg == pytest.approx(24.966666666666665)
        assert entries[1].coord.lat_deg == pytest.approx(60 + 59.9 / 60)
        assert entries[2].coord.lat_deg == pytest.approx(60.5)

    def test_comments_and_blanks_skipped(self):
        text = "# capitals\n\nname,lat,lon\n# northern\nOslo,59.91,10.75\n"
        assert len(load_gazetteer(text)) == 1

    @pytest.mark.parametrize("text", [
        "name,lat,lon\nAlexandria,31.2,29.92\n",
        "# capitals\nname,lat,lon\nAlexandria,31.2,29.92\n",
    ], ids=["header first", "comment first"])
    def test_byte_order_mark_skipped(self, text):
        assert load_gazetteer("\ufeff" + text) == load_gazetteer(text)

    def test_lat_out_of_range_names_line(self):
        with pytest.raises(ParameterError, match=r"lat out of range, line 3"):
            load_gazetteer("name,lat,lon\nA,10,20\nY,95,10\n")

    @pytest.mark.parametrize("row, column", [
        ("Y,nan,10", "lat"), ("Y,-NaN,10", "lat"), ("Y,10,nan", "lon"), ("Y,10,-nan", "lon"),
    ])
    def test_nan_names_line(self, row, column):
        with pytest.raises(ParameterError, match=rf"^{column} out of range, line 3$"):
            load_gazetteer(f"name,lat,lon\nA,10,20\n{row}\n")

    @pytest.mark.parametrize("text", ["60°60′", "60°61′", "-60°75.5'", "60.5°30′", "60.0°0′"])
    def test_malformed_degree_minutes_rejected(self, text):
        # minutes lie below 60 and follow whole degrees; read as a sum, 60°61′
        # would be 61.0167° and 60.5°30′ would be 61°
        with pytest.raises(ParameterError, match=rf"^malformed lat {re.escape(repr(text))}, line 2$"):
            load_gazetteer(f"name,lat,lon\nX,{text},10\n")

    def test_malformed_value_names_line(self):
        with pytest.raises(ParameterError, match=r"line 2"):
            load_gazetteer("name,lat,lon\nA,1o,20\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParameterError, match=r"line 2"):
            load_gazetteer("name,lat,lon\nA,10\n")

    def test_header_required(self):
        with pytest.raises(ParameterError, match="header"):
            load_gazetteer("place,y,x\nA,1,2\n")

    @pytest.mark.parametrize("text, message", [
        ("# only a comment\n", "gazetteer is empty"),
        ('name,lat,lon\n"  ",1,2\n', "empty name, line 2"),
    ], ids=["comments only", "blank quoted name"])
    def test_rejection_messages(self, text, message):
        with pytest.raises(ParameterError) as info:
            load_gazetteer(text)
        assert type(info.value) is ParameterError
        assert str(info.value) == message

    def test_prime_meridian_offset(self):
        # longitudes measured east of Alexandria (29.92 E of Greenwich)
        entries = load_gazetteer("name,lat,lon\nA,31.2,0\n", prime_meridian_deg=29.92)
        assert entries[0].coord.lon_deg == pytest.approx(29.92)

    def test_duplicate_names_allowed(self):
        entries = load_gazetteer("name,lat,lon\nA,1,2\nA,3,4\n")
        assert len(entries) == 2

    def test_round_trip(self):
        entries = load_gazetteer(
            'name,lat,lon\nAlexandria,31.2,29.92\n"Comma, Town",-5.25,170.125\n'
            '"#3 Station",10,20\n'
        )
        text = dump_gazetteer(entries)
        # a name that would read as a comment is quoted; no other name is
        assert text.splitlines()[1:] == [
            "Alexandria,31.2,29.92", '"Comma, Town",-5.25,170.125', '"#3 Station",10.0,20.0',
        ]
        back = load_gazetteer(text)
        assert len(back) == len(entries) == 3
        for a, b in zip(entries, back):
            assert a.name == b.name
            assert a.coord.lat == pytest.approx(b.coord.lat, abs=1e-12)
            assert a.coord.lon == pytest.approx(b.coord.lon, abs=1e-12)

    @pytest.mark.parametrize("name", [
        "", " ", "\t", " Paris", "Paris ", "Paris\n", "Pa\nris", "Pa\u2028ris", "Pa\x85ris",
        "Pa\fris", "Pa\vris", "Pa\x1cris", "Pa\rris",
    ])
    def test_entry_refuses_a_name_no_gazetteer_gives(self, name):
        with pytest.raises(ParameterError):
            GazetteerEntry(name, GeoCoord(0.1, 0.2))

    @given(
        st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs", "Cc"))
                    | st.sampled_from(LINE_BREAKS_AND_SPACES),
                ),
                st.floats(-89.99, 89.99),
                st.floats(-179.99, 179.99),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_round_trip_property(self, rows):
        # every name either round-trips or is refused when its entry is built
        entries = []
        for n, lat, lon in rows:
            coord = GeoCoord.from_degrees(lat, lon)
            if not n.strip() or n != n.strip() or len(n.splitlines()) > 1:
                with pytest.raises(ParameterError):
                    GazetteerEntry(name=n, coord=coord)
            else:
                entries.append(GazetteerEntry(name=n, coord=coord))
        if not entries:
            return
        back = load_gazetteer(dump_gazetteer(entries))
        assert [e.name for e in back] == [e.name for e in entries]
        for a, b in zip(entries, back):
            assert abs(a.coord.lat - b.coord.lat) < 1e-12
            assert abs(a.coord.lon - b.coord.lon) < 1e-12


def _delisle_scene() -> MapScene:
    return MapScene(
        projection=DELISLE,
        graticule=build_graticule(BAND, math.radians(5), math.radians(10)),
        places=(
            GazetteerEntry("Moscow", GeoCoord.from_degrees(55.75, 37.6)),
            GazetteerEntry("Okhotsk", GeoCoord.from_degrees(59.4, 143.2)),
        ),
        geodesics=(
            (GeoCoord.from_degrees(55.75, 37.6), GeoCoord.from_degrees(59.4, 143.2), 65),
        ),
    )


def _arc_fits(scene) -> int:
    """Parallel segments of 3 or more points: one arc fit, and at most one
    arc centre, each."""
    grat = scene.graticule
    return sum(
        len(xs) >= 3
        for lat in grat.lats
        for xs, _ in mapproj.atlas._project_floats(
            scene.projection, [lat] * len(grat.lon_samples), grat.lon_samples)
    )


class TestRenderSvg:
    @pytest.mark.parametrize("scale, margin", [
        (0.0, 20.0), (-5.0, 20.0), (math.inf, 20.0), (200.0, -30.0), (200.0, math.nan),
    ])
    def test_bad_scale_or_margin(self, scale, margin):
        with pytest.raises(ParameterError, match="scale must be positive and margin non-negative"):
            MapScene(projection=Mercator(), scale=scale, margin=margin)

    def test_label_above_the_bounds_goes_negative(self):
        # a lone place sets the bounds, so at margin 0 its label sits at y = -4
        scene = MapScene(
            projection=Mercator(), margin=0.0,
            places=(GazetteerEntry("Alexandria", GeoCoord.from_degrees(31.2, 29.92)),),
        )
        svg = render_svg(scene)
        assert '<circle cx="0.000000" cy="0.000000" r="2.5"/>' in svg
        assert '<text x="4.000000" y="-4.000000">Alexandria</text>' in svg

    def test_label_escapes_markup_characters(self):
        # the bytes xml.sax.saxutils.escape gave: &, < and > escaped, quotes kept
        place = GazetteerEntry("""A&B <c> "d" 'e'""", GeoCoord(0.1, 0.2))
        svg = render_svg(MapScene(projection=Mercator(), places=(place,)))
        assert (
            """    <text x="24.000000" y="16.000000">A&amp;B &lt;c&gt; "d" 'e'</text>"""
            in svg.splitlines()
        )

    def test_negative_zero_margin_prints_no_negative_zero(self):
        # the geodesic runs along lon -0.0, so its x is -0.0 against a bound
        # of 0.0 set by the parallels: margin + (x - min_x) * scale is -0.0
        # unless the margin is taken as +0.0
        region = GeoRegion.from_degrees(0, 10, 0, 10)
        curves = dict(
            projection=Mercator(),
            graticule=build_graticule(region, math.radians(10), math.radians(10)),
            geodesics=((GeoCoord.from_degrees(0, -0.0), GeoCoord.from_degrees(10, -0.0), 5),),
        )
        svg = render_svg(MapScene(margin=-0.0, **curves))
        assert "-0.000000" not in svg
        assert svg == render_svg(MapScene(margin=0.0, **curves))

    @pytest.mark.parametrize("lon_hi, scale, margin, size", [
        (10, 200.0, 1e308, "inf by inf"),
        (180, 1e308, 20.0, "inf by 1.754258296518183e+307"),
    ])
    def test_non_finite_map_size_rejected(self, lon_hi, scale, margin, size):
        region = GeoRegion.from_degrees(0, 10, 0, lon_hi)
        scene = MapScene(
            projection=Mercator(), scale=scale, margin=margin,
            graticule=build_graticule(region, math.radians(10), math.radians(10)),
        )
        with pytest.raises(ParameterError) as info:
            render_svg(scene)
        assert str(info.value) == (
            f"scale {scale!r} and margin {margin!r} give a map of {size} pixels, "
            "which is not finite"
        )

    def test_atlas_layers_are_reached_through_module_names(self, monkeypatch):
        # render_svg reaches its float boundaries, the graticule projector,
        # the curve projector and the primary arc fit, through these atlas
        # module globals, so a tracer that patches them sees every call
        delisle = _delisle_scene()
        werner = replace(delisle, projection=parse_projection("werner lon0=90"))
        orthographic = replace(delisle, projection=parse_projection("orthographic center=57,90"))
        grat = delisle.graticule
        curves = len(grat.lats) + len(grat.lons)
        # every family projects its graticule through its grid kernel and
        # its geodesic as one curve
        for scene, per_curve in ((delisle, 1), (werner, 1), (orthographic, 1)):
            calls = {"_project_graticule": 0, "_project_floats": 0, "_three_point_fit": 0}

            def counting(name):
                original = getattr(mapproj.atlas, name)

                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return original(*args, **kwargs)

                return wrapper

            fits = _arc_fits(scene)
            for name in calls:
                monkeypatch.setattr(mapproj.atlas, name, counting(name))
            render_svg(scene)
            monkeypatch.undo()
            # one fit per parallel segment of at least 3 points
            assert calls == {
                "_project_graticule": 1, "_project_floats": per_curve, "_three_point_fit": fits,
            }
        assert (curves, _arc_fits(delisle), _arc_fits(orthographic)) == (6 + 13, 6, 6)

    def test_straight_parallels_are_not_fitted(self, monkeypatch):
        # Mercator's parallels are horizontal lines, whose fit would come
        # back collinear: none is fitted, and the SVG stays pinned
        scene = _world_scene("mercator")
        assert _arc_fits(scene) > 0

        def refuse(*args):
            raise AssertionError("a straight segment was fitted")

        monkeypatch.setattr(mapproj.atlas, "_three_point_fit", refuse)
        svg = render_svg(scene)
        assert hashlib.sha256(svg.encode()).hexdigest() == WORLD_SCENES["mercator"][3]
        # a horizontal line, a vertical one and a single point, in one layer
        tr = (20.0, 200.0, 0.0, 0.0)
        lines = [([0.0, 1.0, 2.5], [0.5] * 3), ([-0.3] * 4, [0.0, 0.1, 0.2, 0.4]),
                 ([1.0] * 3, [2.0] * 3)]
        layer = mapproj.atlas._curve_layer("parallels", lines, tr, 'fill="none"', arcs=True)
        monkeypatch.undo()
        assert layer == _reference_curve_layer("parallels", lines, tr, 'fill="none"', arcs=False)
        # equal ends and middle, or equal ends alone, are not a line
        for xs, ys in (([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, -1.0, 0.0]),
                       ([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])):
            fits = []
            monkeypatch.setattr(mapproj.atlas, "_three_point_fit",
                                lambda *args: fits.append(args) or _three_point_fit(*args))
            mapproj.atlas._curve_layer("parallels", [(xs, ys)], tr, 'fill="none"', arcs=True)
            monkeypatch.undo()
            assert len(fits) == 1

    def test_render_builds_no_per_sample_objects(self, monkeypatch):
        # only the place markers, the arc centres and the geodesic samples
        # are objects; the graticule's lazy curves are never built
        for scene in (_delisle_scene(), _world_scene("conic"), _world_scene("orthographic")):
            grat = scene.graticule
            bound = len(scene.places) + _arc_fits(scene) + sum(n for *_, n in scene.geodesics)
            made = {"objects": 0}
            for cls in (PlanePoint, GeoCoord):
                original = cls.__init__

                def counting(self, *args, _original=original, **kwargs):
                    made["objects"] += 1
                    _original(self, *args, **kwargs)

                monkeypatch.setattr(cls, "__init__", counting)
            render_svg(scene)
            monkeypatch.undo()
            samples = len(grat.lats) * len(grat.lon_samples) + len(grat.lons) * len(grat.lat_samples)
            assert 0 < made["objects"] <= bound < samples
            assert "parallels" not in grat.__dict__
            assert "meridians" not in grat.__dict__

    def test_empty_scene_is_valid(self):
        svg = render_svg(MapScene(projection=Mercator()))
        assert svg.startswith('<?xml version="1.0"')
        assert 'viewBox="0 0 40.000000 40.000000"' in svg
        for layer in ("parallels", "meridians", "geodesics", "points", "labels"):
            assert f'id="{layer}"' in svg

    def test_single_point_scene(self):
        scene = MapScene(
            projection=Mercator(),
            places=(GazetteerEntry("Alexandria", GeoCoord.from_degrees(31.2, 29.92)),),
        )
        svg = render_svg(scene)
        assert svg.count("<circle") == 1
        assert ">Alexandria</text>" in svg

    def test_byte_identical_repeat_renders(self):
        scene = _delisle_scene()
        assert render_svg(scene) == render_svg(scene)

    def test_conic_parallels_render_as_concentric_arcs(self):
        svg = render_svg(_delisle_scene())
        arc_cmds = re.findall(
            r'd="M ([-\d.]+) ([-\d.]+) A ([-\d.]+) ([-\d.]+) 0 (\d) (\d) ([-\d.]+) ([-\d.]+)"',
            svg,
        )
        assert len(arc_cmds) == 6  # one per parallel at 5-degree spacing
        radii = sorted(float(m[2]) for m in arc_cmds)
        spacing = math.radians(5) * 200.0  # dphi times scene scale
        gaps = [b - a for a, b in zip(radii, radii[1:])]
        for gap in gaps:
            assert gap == pytest.approx(spacing, abs=1e-3)
        # all arcs share the cone apex as center: recover each center from
        # its endpoints and radius, picking the candidate above the map
        centers = []
        for x0, y0, r, _, laf, sweep, x1, y1 in (map(float, m) for m in arc_cmds):
            mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            half = math.hypot(x1 - x0, y1 - y0) / 2.0
            lift = math.sqrt(max(r * r - half * half, 0.0))
            ux, uy = -(y1 - y0) / (2 * half), (x1 - x0) / (2 * half)
            c1 = (mx + lift * ux, my + lift * uy)
            c2 = (mx - lift * ux, my - lift * uy)
            centers.append(min((c1, c2), key=lambda c: c[1]))
        cx = [c[0] for c in centers]
        cy = [c[1] for c in centers]
        assert max(cx) - min(cx) < 1e-2
        assert max(cy) - min(cy) < 1e-2

    def test_graticule_crossing_angles_match_tissot(self):
        # rendering must not distort: measure the meridian/parallel crossing
        # angle from densely sampled curves and compare with theta_prime
        proj = DELISLE
        grat = build_graticule(BAND, math.radians(5), math.radians(10), samples_per_degree=40)
        lat = grat.parallels[2][0].lat
        lon = grat.meridians[3][0].lon
        par = [c for c in grat.parallels[2]]
        mer = [c for c in grat.meridians[3]]
        i = min(range(len(par)), key=lambda j: abs(par[j].lon - lon))
        j = min(range(len(mer)), key=lambda j: abs(mer[j].lat - lat))
        p0, p1 = proj.forward(par[i]), proj.forward(par[i + 1])
        m0, m1 = proj.forward(mer[j]), proj.forward(mer[j + 1])
        v_par = np.array([p1.x - p0.x, p1.y - p0.y])
        v_mer = np.array([m1.x - m0.x, m1.y - m0.y])
        cosang = float(
            np.dot(v_par, v_mer) / (np.linalg.norm(v_par) * np.linalg.norm(v_mer))
        )
        angle = math.acos(max(-1.0, min(1.0, cosang)))
        theta = tissot(proj, GeoCoord(lat, lon)).theta_prime
        assert abs(angle - theta) < 1e-3

    def test_numbers_fixed_to_six_decimals(self):
        svg = render_svg(_delisle_scene())
        for num in re.findall(r'[xy12]="([-\d.]+)"', svg):
            whole, frac = num.split(".")
            assert len(frac) == 6


# World scenes at 1 sample per degree (about 0.6 s for all five), pinned by
# the SHA-256 of their SVG the way criterion 12 pins the Delisle scene: they
# cover what that scene does not, namely parallels split at the conic tear,
# a Mercator cutoff that drops a place, a hidden orthographic hemisphere, and
# the straight lines of two more cylindrical maps off their default standard
# parallel and meridian, one with a geodesic along the equator.
WORLD = GeoRegion.from_degrees(-90, 90, -180, 180)
WORLD_PLACES = (
    ("Paris", 48.85, 2.35), ("Okhotsk", 59.4, 143.2), ("Lima", -12.05, -77.04),
    ("Hobart", -42.88, 147.33), ("Nome", 64.5, -165.4), ("Svalbard", 87.0, 15.0),
)
WORLD_SCENES = {
    # spec, graticule step (degrees), geodesic endpoints, SVG SHA-256, arcs, markers
    "conic": (
        "equidistant_conic lat1=45 lat2=60 lon0=-150", 5.0, ((55.75, 37.6), (64.5, -165.4)),
        "9cbeb1c7e5b6c8f1c65918b4e456f87c2cba7d5148dc7c982bfdbe3b875f94e7", 70, 6,
    ),
    "mercator": (
        "mercator lon0=30", 10.0, ((48.85, 2.35), (-42.88, 147.33)),
        "cb191d4f5d1176a0137926e919a754ae930a261513206a38ecbe19ab5bfd2371", 0, 5,
    ),
    "orthographic": (
        "orthographic center=35,60", 10.0, ((48.85, 2.35), (59.4, 143.2)),
        "ac51a97f16d4dd0bcfeca9bb264e378bfadb2862bea9c8640fa0949239cb5b8c", 0, 4,
    ),
    "equirectangular": (
        "equirectangular lat0=30 lon0=-100", 10.0, ((0.0, -60.0), (0.0, 60.0)),
        "f3c1c80aa245d10416a7ff75419c58c70fa93d0c99b4783676b0eb1eb670ef8b", 0, 6,
    ),
    "lambert_cylindrical_equal_area": (
        "lambert_cylindrical_equal_area lat0=-25 lon0=75", 10.0, ((48.85, 2.35), (-12.05, -77.04)),
        "e9a7ce00dee8912edc36a7971f8f7b461ee3bd55648eddfdfb611744286acb23", 0, 6,
    ),
}


def _world_scene(kind: str, margin: float = 20.0) -> MapScene:
    spec, step, (a, b) = WORLD_SCENES[kind][:3]
    return MapScene(
        projection=parse_projection(spec),
        graticule=build_graticule(
            WORLD, math.radians(step), math.radians(step), samples_per_degree=1.0
        ),
        places=tuple(
            GazetteerEntry(name, GeoCoord.from_degrees(lat, lon))
            for name, lat, lon in WORLD_PLACES
        ),
        geodesics=((GeoCoord.from_degrees(*a), GeoCoord.from_degrees(*b), 65),),
        margin=margin,
    )


@pytest.mark.parametrize("kind", sorted(WORLD_SCENES))
def test_world_scene_svg_is_pinned(kind):
    digest, arcs, markers = WORLD_SCENES[kind][3:]
    svg = render_svg(_world_scene(kind))
    assert svg.count(" A ") == arcs
    assert svg.count("<circle") == markers
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


# the Mercator world scene at scale 37.5, recorded before straight lines
# took their texts from a per-layer dict
SMALL_MERCATOR = "c16f755b277bc63fd0e0b0919b27504c9bf616e1c9c7987873f8ad7ca3ae3e8d"


def test_mercator_renders_at_two_scales_back_to_back():
    # the texts one render formats are not reused by the next
    scene = _world_scene("mercator")
    pinned = WORLD_SCENES["mercator"][3]
    for scale, digest in ((200.0, pinned), (37.5, SMALL_MERCATOR), (200.0, pinned)):
        svg = render_svg(replace(scene, scale=scale))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


AZIMUTHAL = ("stereographic", "gnomonic", "central", "orthographic", "lambert_azimuthal_equal_area")


def _azimuthal_render_digest(count: int, svg_edit=None) -> str:
    """SHA-256 over ``count`` seeded azimuthal scenes, the five families in
    turn, centred at a pole, on the equator or obliquely, over regions that
    often cross +-180°: each scene's graticule runs as float.hex, the
    kernel's image or error text at its three places, and its SVG, passed
    through ``svg_edit`` if one is given."""
    rng = random.Random(1818)
    u = rng.uniform
    digest = hashlib.sha256()
    for i in range(count):
        lat_c = rng.choice([90.0, -90.0, 0.0, round(u(-89.0, 89.0), 3)])
        proj = parse_projection(
            f"{AZIMUTHAL[i % len(AZIMUTHAL)]} center={lat_c},{round(u(-180.0, 180.0), 3)}")
        lat_lo = u(-90.0, 80.0)
        lat_hi = rng.choice([90.0, u(lat_lo + 5.0, 90.0)])
        lon_lo = u(-270.0, 170.0)
        region = GeoRegion.from_degrees(lat_lo, lat_hi, lon_lo, lon_lo + u(10.0, 360.0))
        grat = build_graticule(region, math.radians(rng.choice([10, 15, 30])),
                               math.radians(rng.choice([15, 30, 45])),
                               samples_per_degree=rng.choice([0.25, 0.5, 1.0]))
        places = [GeoCoord.from_degrees(u(-90.0, 90.0), u(-180.0, 180.0)) for _ in range(3)]
        scene = MapScene(
            projection=proj, graticule=grat,
            places=tuple(GazetteerEntry(f"P{j}", c) for j, c in enumerate(places)),
            geodesics=((places[0], places[1], 17),),
        )
        for segs in mapproj.atlas._project_graticule(proj, grat):
            for xs, ys in segs:
                digest.update((" ".join(map(float.hex, xs + ys)) + "\n").encode())
        for c in places:
            try:
                digest.update(repr(proj._xy(c.lat, c.lon)).encode())
            except MapError as exc:
                digest.update(str(exc).encode())
        svg = render_svg(scene)
        digest.update((svg if svg_edit is None else svg_edit(svg)).encode())
    return digest.hexdigest()


# the one arc of the pinned azimuthal scenes whose flags changed when they
# came from the circle fit instead of a turn summed sample by sample: the
# 40° parallel of scene 10, see test_arc_past_the_far_side_is_the_larger_arc
FAR_SIDE_ARC = ("M 16934.849743 25550.877650 A 17223.999923 17223.999923 0 {} "
                "13489.628158 25583.267760")


def test_azimuthal_renders_are_pinned():
    # recorded when every azimuthal curve was still projected sample by
    # sample through _xy, before the graticule was projected from its axes;
    # re-pinned for FAR_SIDE_ARC alone, whose old flags give the old digest;
    # re-pinned when the azimuthal forward stopped forming the tangent vector
    # and great-circle samples stopped being renormalised: 16 of the 400 SVGs
    # changed, 7 by 1e-6 in one to three numbers and 9 by at most 0.4 in
    # numbers near 1e9, images of points next to an excluded limit or
    # antipode. Against 40 digits, the median error of a changed image fell
    # from 1.6e-16 to 1.1e-16 and of a changed geodesic sample from 1.5e-16
    # to 9.2e-17 rad
    found = []

    def old_flags(svg):
        found.append(svg.count(FAR_SIDE_ARC.format("1 0")))
        return svg.replace(FAR_SIDE_ARC.format("1 0"), FAR_SIDE_ARC.format("0 1"))

    assert _azimuthal_render_digest(400) == (
        "3c847fee370fe7958ac7a5d6c0a19fccec4d530be5ae27f37f0341b9df9aff75"
    )
    assert _azimuthal_render_digest(400, old_flags) == (
        "4bbea9d6b64e2a5d69eeecc7ed7221d6cc14141318ccfcd6c08330a9ff72fe53"
    )
    assert sum(found) == found[10] == 1


def test_arc_past_the_far_side_is_the_larger_arc():
    # this oblique stereographic parallel passes near the projection's far
    # side, where one step between its 18 samples turns 3.138 rad about the
    # circle's centre; summed step by step, the turn read -0.2 rad and the
    # arc was drawn short and the wrong way round (flags 0 1)
    proj = parse_projection("stereographic center=-38.682,79.464")
    lat = math.radians(40.0)
    lons = linspace(math.radians(-130.87723765550948), math.radians(-64.2787219510808), 18)
    ((xs, ys, holes),) = proj._rows([lat], lons)
    assert holes == []
    tr = (20.0, 200.0, min(xs), max(ys))
    layer = mapproj.atlas._curve_layer("parallels", [(xs, ys)], tr, 'fill="none"', arcs=True)
    assert re.fullmatch(r'    <path d="M \S+ \S+ A (\S+) \1 0 1 0 \S+ \S+"/>', layer[1]), layer[1]
    # a 64 times denser sampling turns +6.083 rad (counterclockwise with y
    # up) about the fit's centre in steps of under 0.1 rad: the larger arc,
    # clockwise in the y-down pixels (sweep 0)
    center = _three_point_fit(xs, ys).center
    dense = [a + (b - a) * t / 64 for a, b in zip(lons, lons[1:]) for t in range(64)]
    angles = [math.atan2(y - center.y, x - center.x)
              for x, y in (proj._xy(lat, lon) for lon in dense + [lons[-1]])]
    steps = [(b - a + math.pi) % (2 * math.pi) - math.pi for a, b in zip(angles, angles[1:])]
    assert max(map(abs, steps)) < 0.1
    assert sum(steps) == pytest.approx(6.083, abs=1e-3)


def _arc_candidates():
    """Seeded plane runs for the SVG arc test: orthographic parallels, which
    are ellipse arcs; S-curves; and circle arcs with noise of up to 0, 5e-10
    or 2e-9, on either side of the arc bound."""
    rng = random.Random(2828)
    runs = []
    for _ in range(40):
        proj = parse_projection(
            f"orthographic center={rng.uniform(-89, 89):.6f},{rng.uniform(-180, 180):.6f}")
        lat = math.asin(rng.uniform(-0.98, 0.98))
        lons = linspace(-math.pi, math.pi, rng.randint(3, 400))
        runs += _runs(*proj._rows([lat], lons)[0], [])
    for _ in range(60):
        n, amp, turns = rng.randint(3, 300), 10 ** rng.uniform(-9, 0), rng.uniform(0.6, 3.0)
        ts = linspace(0.0, 1.0, n)
        runs.append((ts, [amp * math.sin(2 * math.pi * turns * t) for t in ts]))
    for _ in range(300):
        n, r = rng.randint(3, 300), 10 ** rng.uniform(-1, 1)
        cx, cy, a = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-math.pi, math.pi)
        noise = rng.choice((0.0, 5e-10, 2e-9))
        ts = linspace(a, a + rng.uniform(0.2, 6.0), n)
        runs.append(([cx + r * math.cos(t) + rng.uniform(-noise, noise) for t in ts],
                     [cy + r * math.sin(t) + rng.uniform(-noise, noise) for t in ts]))
    return runs


class TestArcFitStopsEarly:
    """The arc test bounds its fit by ARC_RESIDUAL: a fit whose residual at
    the quarter samples already exceeds it stops there."""

    def test_paths_equal_those_of_the_unbounded_fit(self, monkeypatch):
        runs = _arc_candidates()
        tr = (20.0, 200.0, -3.0, 2.5)
        got = [mapproj.atlas._path_arc(xs, ys, tr) for xs, ys in runs]
        monkeypatch.setattr(mapproj.atlas, "_three_point_fit",
                            lambda xs, ys, bound: _three_point_fit(xs, ys))
        assert got == [mapproj.atlas._path_arc(xs, ys, tr) for xs, ys in runs]
        # both outcomes occur
        assert 0 < got.count(None) < len(got)

    def test_a_rejected_fit_reports_a_residual_above_the_bound(self):
        bound, stopped = mapproj.atlas.ARC_RESIDUAL, 0
        for xs, ys in _arc_candidates():
            try:
                full = _three_point_fit(xs, ys)
            except ParameterError:
                continue
            fit = _three_point_fit(xs, ys, bound)
            if fit != full:
                stopped += 1
                assert bound < fit.max_residual <= full.max_residual
                assert fit == replace(full, max_residual=fit.max_residual)
        assert stopped > 100

    def test_fit_circular_arc_reports_the_full_maximum(self):
        # the parallels of an oblique orthographic map are ellipses: their
        # circle misses the quarter samples, and the largest miss is elsewhere
        proj = parse_projection("orthographic center=35,60")
        lats = [math.radians(d) for d in range(-30, 90, 15)]
        lons = linspace(-2.5, 2.5, 181)
        beyond = 0
        for xs, ys, holes in proj._rows(lats, lons):
            for run in _runs(xs, ys, holes, []):
                points = tuple(map(PlanePoint, *run))
                fit = fit_circular_arc(PlanePolyline((points,)))
                residuals = [abs(math.hypot(p.x - fit.center.x, p.y - fit.center.y) - fit.radius)
                             for p in points]
                assert fit.max_residual == max(residuals)
                bounded = _three_point_fit(*run, mapproj.atlas.ARC_RESIDUAL)
                assert mapproj.atlas.ARC_RESIDUAL < bounded.max_residual <= fit.max_residual
                beyond += bounded.max_residual < fit.max_residual
        assert beyond > 3


# The criterion-12 Delisle scene and the Mercator world scene at margin 0,
# where the drawn curves touch the viewBox edges, pinned the same way.
MARGIN_ZERO_SCENES = {
    "delisle": (
        lambda: replace(_delisle_scene(), margin=0.0),
        "35f33be1e9bc8f7828bc955b19892e8b3e8a5ea2769bac38ba6adcfa007e913c",
    ),
    "mercator": (
        lambda: _world_scene("mercator", margin=0.0),
        "b43d4818ae33d620e5104d1eeab3aa25319d02912d987acebee860842fdba840",
    ),
}


@pytest.mark.parametrize("kind", sorted(MARGIN_ZERO_SCENES))
def test_zero_margin_svg_is_pinned(kind):
    scene, digest = MARGIN_ZERO_SCENES[kind]
    svg = render_svg(scene())
    paths = re.findall(r' d="([^"]*)"', svg)
    assert paths
    for d in paths:
        assert not re.search(r"(^| )-", d), d
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def _reference_curve_layer(name, segments, tr, style, arcs):
    """_curve_layer as it was, one ``%`` and one string per point."""
    lines = [f'  <g id="{name}" {style}>']
    for xs, ys in segments:
        d = mapproj.atlas._path_arc(xs, ys, tr) if arcs else None
        if d is None:
            px, py = mapproj.atlas._pixels(tr, xs, ys)
            d = "M " + " L ".join("%.6f %.6f" % p for p in zip(px, py))
        lines.append(f'    <path d="{d}"/>')
    lines.append("  </g>")
    return lines


def _world_parallels(kind):
    """The world scene's parallel runs and a transform over their extremes."""
    scene = _world_scene(kind)
    parallels, _ = mapproj.atlas._project_graticule(scene.projection, scene.graticule)
    min_x = min(min(xs) for xs, _ in parallels)
    max_y = max(max(ys) for _, ys in parallels)
    return parallels, (scene.margin, scene.scale, min_x, max_y)


class TestCurveLayer:
    STYLE = 'fill="none"'

    def test_polylines_equal_the_per_point_join(self):
        # with tr = (0, 1, 0, 0) the pixels are (x, -y): the values below
        # reach %.6f as they are
        rng = random.Random(2222)
        tr = (0.0, 1.0, 0.0, 0.0)
        ties = [k + 5e-7 for k in range(-3, 1000)] + [k / 8 + 5e-7 for k in range(64)]
        specials = [0.0, -0.0, 1e6, math.nextafter(1e6, 0.0), math.nextafter(1e6, 2e6),
                    999_999.999_999_5, 999_999.999_999_4, 5e-7, 4.999_999_999_999_999e-7]
        pools = [
            lambda: rng.uniform(0.0, 1e6),
            lambda: rng.choice(ties),
            lambda: rng.choice(specials),
            lambda: rng.uniform(1e6 - 1e-3, 1e6 + 1e-3),
            lambda: round(rng.uniform(0.0, 2000.0), 7),
        ]
        lengths = [2, 3, 4, 5, 17, 64, 361, 1441, 2000] + [rng.randint(2, 2000) for _ in range(40)]
        segments = []
        for n in lengths:
            values = [rng.choice(pools)() for _ in range(2 * n)]
            segments.append((values[:n], [-v for v in values[n:]]))
        layer = mapproj.atlas._curve_layer("t", segments, tr, self.STYLE, arcs=False)
        assert layer == _reference_curve_layer("t", segments, tr, self.STYLE, arcs=False)
        assert len(layer) == len(segments) + 2
        # and through a transform that scales, shifts and flips
        tr = (20.0, 200.0, -3.0, 2.5)
        assert (mapproj.atlas._curve_layer("t", segments[:10], tr, self.STYLE, arcs=False)
                == _reference_curve_layer("t", segments[:10], tr, self.STYLE, arcs=False))

    def test_arc_layer_equals_the_per_point_join(self):
        parallels, tr = _world_parallels("conic")
        layer = mapproj.atlas._curve_layer("parallels", parallels, tr, self.STYLE, arcs=True)
        assert layer == _reference_curve_layer("parallels", parallels, tr, self.STYLE, arcs=True)
        assert sum(" A " in line for line in layer) == WORLD_SCENES["conic"][4]

    def test_arc_test_makes_no_call_per_sample(self, monkeypatch):
        # an arc's flags come from its fit, not from a turn wrapped per
        # sample, and only its two ends are converted to pixels
        parallels, tr = _world_parallels("conic")
        calls = {"wrap_longitude": 0}
        converted = []

        def counting(lon, _fn=mapproj.atlas.wrap_longitude):
            calls["wrap_longitude"] += 1
            return _fn(lon)

        def pixels(tr, xs, ys, _fn=mapproj.atlas._pixels):
            converted.append(len(xs))
            return _fn(tr, xs, ys)

        monkeypatch.setattr(mapproj.atlas, "wrap_longitude", counting)
        monkeypatch.setattr(mapproj.atlas, "_pixels", pixels)
        layer = mapproj.atlas._curve_layer("parallels", parallels, tr, self.STYLE, arcs=True)
        assert sum(" A " in line for line in layer) == WORLD_SCENES["conic"][4] == 70
        assert calls == {"wrap_longitude": 0}
        assert converted == [2 if " A " in line else len(xs)
                             for line, (xs, _) in zip(layer[1:], parallels)]
        assert converted.count(2) == 70

    @pytest.mark.parametrize("tr", [
        (0.0, 1.0, 0.0, 0.0), (0.0, 1.0, -0.0, -0.0), (0.0, 200.0, -3.0, 2.5),
        (0.0, 37.5, 0.0, -0.0), (20.0, 200.0, -3.0, 2.5), (7.25, 0.001, 1e3, -1e3),
    ])
    def test_lines_equal_the_per_point_join(self, tr, monkeypatch):
        # horizontal and vertical lines, 2-sample ones and single points,
        # over values the lines share, +-0.0 and the transform's min_x and
        # max_y; a layer of lines alone is neither fitted nor sent through
        # _pixels, and a mixed one keeps its arcs and polylines. The margin
        # is +0.0 or more, as render_svg builds tr
        # (test_negative_zero_margin_prints_no_negative_zero renders -0.0)
        rng = random.Random(2626)
        margin, scale, min_x, max_y = tr
        pool = [0.0, -0.0, min_x, max_y, -min_x, -max_y, 5e-7, -5e-7]
        pool += [round(rng.uniform(-3.0, 3.0), rng.randint(0, 9)) for _ in range(40)]
        # values whose pixels lie within rounding of a %.6f tie, where a
        # pixel computed in another order prints differently
        ties = [(k + 5e-7 - margin) / scale for k in range(-400, 400, 3)]
        pool += [min_x + t for t in ties] + [max_y - t for t in ties]
        lines = []
        for n in [1, 2, 2, 3, 4, 17, 64, 361] + [rng.randint(2, 200) for _ in range(20)]:
            run = [rng.choice(pool) for _ in range(n)]
            lines += [(run, [rng.choice(pool)] * n), ([rng.choice(pool)] * n, run[::-1]),
                      ([rng.choice(pool)] * n, [rng.choice(pool)] * n)]
        want = _reference_curve_layer("t", lines, tr, self.STYLE, arcs=False)

        def refuse(*args):
            raise AssertionError("a line was fitted or converted sample by sample")

        for name in ("_three_point_fit", "_pixels"):
            monkeypatch.setattr(mapproj.atlas, name, refuse)
        assert mapproj.atlas._curve_layer("t", lines, tr, self.STYLE, arcs=True) == want
        monkeypatch.undo()
        arcs = [([math.cos(a) + k for a in angles], [math.sin(a) - k for a in angles])
                for k, angles in enumerate([[0.1, 0.7, 1.3], [2.0, 2.5, 3.0, 3.5]])]
        # two polylines, the second with equal xs at its ends and middle,
        # and an arc whose end xs are -0.0 and 0.0
        curves = [([0.0, 1.0, 3.0, 4.0, 6.0], [0.0, 1.0, 1.5, 0.2, 3.0]),
                  ([2.0, 1.0, 2.0, 3.0, 2.0], [-1.0, 0.0, 1.0, 0.0, 3.0]),
                  ([-0.0, -1.0, 0.0], [1.0, 2.0, 3.0])]
        mixed = lines[:30] + arcs + lines[30:60] + curves + lines[60:]
        layer = mapproj.atlas._curve_layer("t", mixed, tr, self.STYLE, arcs=True)
        assert layer == _reference_curve_layer("t", mixed, tr, self.STYLE, arcs=True)
        assert sum(" A " in line for line in layer) == 3

    def test_a_layer_formats_each_line_value_once(self, monkeypatch):
        # the parallels of the Mercator world map share their xs and its
        # meridians their ys: each value is formatted once per layer, and
        # the next layer formats it again
        scene = _world_scene("mercator")
        parallels, meridians = mapproj.atlas._project_graticule(scene.projection, scene.graticule)
        tr = (scene.margin, scene.scale, -math.pi, 2.5)
        formatted = []

        def memo(texts, values, pixel, _fn=mapproj.atlas._memo_texts):
            return _fn(texts, values, lambda v: formatted.append(v) or pixel(v))

        monkeypatch.setattr(mapproj.atlas, "_memo_texts", memo)
        for segments, axis in ((parallels, 0), (meridians, 1)):
            values = {v for segment in segments for v in segment[axis]}
            for _ in range(2):
                formatted.clear()
                mapproj.atlas._curve_layer("t", segments, tr, self.STYLE, arcs=axis == 0)
                assert len(formatted) == len(set(formatted)) == len(values)
                assert set(formatted) == values
            assert len(values) < sum(len(segment[axis]) for segment in segments) / 10


# project_polyline and fit_circular_arc are thin wrappers over the float
# boundaries render_svg uses; these copies of their earlier object-based
# bodies pin that the wrappers give the same bits.
def _reference_project_polyline(proj, curve):
    xy = proj._xy
    cut = proj.cut_longitude
    lon0 = None if cut is None else wrap_longitude(cut + math.pi)
    segments, current, note, prev_u = [], [], None, None
    for c in curve:
        if lon0 is not None:
            u = wrap_longitude(c.lon - lon0)
            if prev_u is not None and abs(u - prev_u) > math.pi:
                if len(current) >= 2:
                    segments.append(tuple(current))
                current = []
            prev_u = u
        try:
            x, y = xy(c.lat, c.lon)
        except DomainError as exc:
            if note is None:
                note = str(exc)
            if len(current) >= 2:
                segments.append(tuple(current))
            current = []
            continue
        current.append(PlanePoint(x, y))
    if len(current) >= 2:
        segments.append(tuple(current))
    return PlanePolyline(tuple(segments), note=note if not segments else None)


# hypot is math.hypot throughout, as in the library: numpy's SIMD hypot may
# differ from it in the last bit, depending on the host
def _reference_fit_circular_arc(points, collinear_tol=1e-12):
    xy = np.array([(p.x, p.y) for p in points])
    start, end = xy[0], xy[-1]
    axis = end - start
    chord = math.hypot(*axis)
    if chord < 1e-15:
        raise ParameterError("polyline endpoints coincide; chord is degenerate")
    rel = xy - start
    dev = np.abs(rel[:, 0] * axis[1] - rel[:, 1] * axis[0]) / chord
    peak = int(dev.argmax())
    sagitta = float(dev[peak])
    if sagitta / chord < collinear_tol:
        return dict(center=None, radius=math.inf, max_residual=sagitta, chord=chord,
                    sagitta=sagitta, collinear=True)
    (ax, ay), (bx, by), (cx, cy) = points[0], points[peak], points[-1]
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    radius = math.hypot(ax - ux, ay - uy)
    radii = np.array([math.hypot(x - ux, y - uy) for x, y in xy])
    return dict(
        center=PlanePoint(ux, uy), radius=radius,
        max_residual=float(np.abs(radii - radius).max()), chord=chord, sagitta=sagitta,
        collinear=False,
    )


def _reference_straightness(points):
    x, y = np.array([p.x for p in points]), np.array([p.y for p in points])
    ax, ay = x[-1] - x[0], y[-1] - y[0]
    chord = math.hypot(ax, ay)
    if chord < 1e-15:
        raise ParameterError("polyline endpoints coincide; chord is degenerate")
    dev = np.abs((x - x[0]) * ay - (y - y[0]) * ax) / chord
    sagitta = float(dev.max())
    return chord, sagitta, sagitta / chord


def _hex(value):
    """Floats and plane points as float.hex, so that -0.0 and NaN compare too."""
    if isinstance(value, PlanePoint):
        return (value.x.hex(), value.y.hex())
    if isinstance(value, float):
        return value.hex()
    return value


EQUIVALENCE_SCENES = {
    "delisle": _delisle_scene,
    "conic-tear": lambda: _world_scene("conic"),
    "orthographic-hidden": lambda: _world_scene("orthographic"),
    "mercator-cutoff": lambda: _world_scene("mercator"),
}


def _curves(scene):
    grat = scene.graticule
    return list(grat.parallels + grat.meridians) + [
        sample_great_circle(a, b, n) for a, b, n in scene.geodesics
    ]


class TestPublicWrappersMatchTheirEarlierBodies:
    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_SCENES))
    def test_project_polyline(self, kind):
        scene = EQUIVALENCE_SCENES[kind]()
        splits = dropped = 0
        for curve in _curves(scene):
            got = project_polyline(scene.projection, curve)
            want = _reference_project_polyline(scene.projection, curve)
            assert [[_hex(p) for p in seg] for seg in got.segments] == [
                [_hex(p) for p in seg] for seg in want.segments
            ]
            assert got.note == want.note
            splits += len(got.segments) > 1
            dropped += len(curve) - sum(map(len, got.segments))
        # each scene reaches the edge it was chosen for
        if kind == "conic-tear":
            assert splits
        if kind in ("orthographic-hidden", "mercator-cutoff"):
            assert dropped

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_SCENES))
    def test_fit_circular_arc(self, kind):
        scene = EQUIVALENCE_SCENES[kind]()
        segments = [
            seg
            for curve in _curves(scene)
            for seg in project_polyline(scene.projection, curve).segments
            if len(seg) >= 3
        ]
        assert segments
        for seg in segments:
            try:
                want = _reference_fit_circular_arc(seg)
            except ParameterError as exc:  # a closed curve has no chord
                with pytest.raises(ParameterError, match=str(exc)):
                    fit_circular_arc(PlanePolyline((seg,)))
                continue
            got = fit_circular_arc(PlanePolyline((seg,)))
            assert {f.name: _hex(getattr(got, f.name)) for f in dataclasses.fields(got)} == {
                k: _hex(v) for k, v in want.items()
            }
            # the fit on the float lists is the same fit
            xs, ys = [p.x for p in seg], [p.y for p in seg]
            assert _three_point_fit(xs, ys) == got

    @pytest.mark.parametrize("kind", sorted(EQUIVALENCE_SCENES))
    def test_straightness(self, kind):
        # the float deviations against the numpy body they replaced
        scene = EQUIVALENCE_SCENES[kind]()
        segments = [
            seg
            for curve in _curves(scene)
            for seg in project_polyline(scene.projection, curve).segments
            if len(seg) >= 3
        ]
        assert segments
        for seg in segments:
            try:
                want = _reference_straightness(seg)
            except ParameterError as exc:  # a closed curve has no chord
                with pytest.raises(ParameterError, match=str(exc)):
                    straightness(PlanePolyline((seg,)))
                continue
            got = straightness(PlanePolyline((seg,)))
            assert [_hex(v) for v in (got.chord, got.sagitta, got.ratio)] == [
                _hex(v) for v in want
            ]


class TestGraticuleValue:
    def test_equality_and_hash(self):
        a = build_graticule(BAND, math.radians(5), math.radians(10))
        b = build_graticule(BAND, math.radians(5), math.radians(10))
        assert [f.name for f in dataclasses.fields(a)] == [
            "lats", "lons", "lat_samples", "lon_samples"
        ]
        assert a == b and hash(a) == hash(b)
        a.parallels  # a cached curve is not part of the value
        assert a == b and hash(a) == hash(b)
        c = build_graticule(BAND, math.radians(5), math.radians(5))
        assert a != c

    def test_replace_builds_its_own_curves(self):
        g = build_graticule(BAND, math.radians(5), math.radians(10))
        first = g.parallels
        r = dataclasses.replace(g, lats=g.lats[:2])
        assert "parallels" not in r.__dict__
        assert r.parallels == first[:2]
        assert r.meridians == g.meridians
        assert dataclasses.replace(g) == g

    @pytest.mark.parametrize("axis", ["lats", "lons", "lat_samples", "lon_samples"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, axis, value):
        axes = dict(lats=(0.1,), lons=(0.2,), lat_samples=(0.0, 0.3), lon_samples=(0.0, 0.4))
        axes[axis] += (value,)
        with pytest.raises(ParameterError, match=f"graticule axis {axis} holds a non-finite value"):
            Graticule(**axes)

    @pytest.mark.parametrize("axis", ["lats", "lat_samples"])
    @pytest.mark.parametrize("value", [2.0, -HALF_PI - 1e-12, math.nextafter(HALF_PI, 4.0)])
    def test_latitude_beyond_a_pole_rejected(self, axis, value):
        axes = dict(lats=(0.1,), lons=(0.2,), lat_samples=(0.0, 0.3), lon_samples=(0.0, 0.4))
        axes[axis] += (value,)
        with pytest.raises(ParameterError, match=f"^graticule axis {axis} holds a latitude "
                                                 "outside \\[-90°, 90°\\]$"):
            Graticule(**axes)

    def test_the_poles_themselves_are_latitudes(self):
        g = Graticule(lats=(-HALF_PI, HALF_PI), lons=(2.0, 4.0),
                      lat_samples=(-HALF_PI, HALF_PI), lon_samples=(2.0, 4.0))
        assert g.lats == g.lat_samples == (-HALF_PI, HALF_PI)

    def test_curves_are_cached_tuples(self):
        g = build_graticule(BAND, math.radians(5), math.radians(10))
        curves = g.parallels + g.meridians
        assert type(curves) is tuple
        assert all(type(c) is tuple for c in curves)
        assert g.parallels is g.parallels
        assert len(curves) == len(g.lats) + len(g.lons)


# The graticule projector against the curve-by-curve projection, for every
# family in FAMILIES: the spec strings below (angles in degrees) cover the
# tear at +-180 degrees, southern conics, the Mercator and conic cutoffs, a
# cone apex at 89.999999 degrees and oblique azimuthal limbs; a family not
# listed is tested with its defaults.
GRID_SPECS = {
    "equirectangular": ("", "lat0=40 lon0=180"),
    "mercator": ("lon0=30", "lon0=-179.9 cutoff=60"),
    "lambert_cylindrical_equal_area": ("lat0=-30 lon0=-90",),
    "equidistant_conic": (
        "lat1=45 lat2=60 lon0=90", "lat1=-20 lat2=-50 lon0=180 cutoff=-70",
        "lat1=60 lat2=89.999999 lon0=-100", "lat1=-60 lat2=-89.999999",
    ),
    "lambert_conformal_conic": ("lat1=30 lat2=60 lon0=-100", "lat1=-10 lat2=-40 lon0=180"),
    "orthographic": ("", "center=35,60", "center=-20,179"),
    "stereographic": ("", "center=10,-170"),
    "gnomonic": ("", "center=50,20"),
    "central": ("center=-45,100",),
    "lambert_azimuthal_equal_area": ("center=0,180",),
    "werner": ("", "lon0=-179"),
}


def _grid_graticules() -> list[Graticule]:
    """Seeded regions, many across +-180 degrees, the world, and hand-built
    axes: a single latitude, one-sample axes, and the poles themselves."""
    rng = random.Random(1616)
    grats = [build_graticule(WORLD, math.radians(15), math.radians(20), samples_per_degree=1.0)]
    for _ in range(6):
        lat_lo = rng.choice([-90.0, rng.uniform(-90, 60)])
        lat_hi = rng.choice([90.0, rng.uniform(lat_lo + 1, 90)])
        lon_lo = rng.uniform(-200, 180)
        region = GeoRegion.from_degrees(lat_lo, lat_hi, lon_lo, lon_lo + rng.uniform(5, 360))
        grats.append(build_graticule(
            region, math.radians(rng.choice([5, 10, 15])), math.radians(rng.choice([10, 30])),
            samples_per_degree=rng.choice([0.5, 1.0, 2.0]),
        ))
    poles = tuple(linspace(-HALF_PI, HALF_PI, 37))
    round_the_world = tuple(linspace(-math.pi, math.pi, 49))
    grats += [
        Graticule(lats=(0.3,), lons=(1.0, -3.0), lat_samples=poles, lon_samples=round_the_world),
        Graticule(lats=(-1.2, 0.5), lons=(2.0,), lat_samples=(0.2,), lon_samples=(2.5,)),
        Graticule(lats=(-HALF_PI, 0.0, HALF_PI), lons=(math.pi, 0.0),
                  lat_samples=poles, lon_samples=round_the_world),
    ]
    return grats


def _hex_runs(segments):
    return [([x.hex() for x in xs], [y.hex() for y in ys]) for xs, ys in segments]


# the per-sample curve projector that the grid kernels' _curve and
# geodesics._runs and _tears replaced, kept as the reference for both the
# graticule and the curve splitting
def _reference_project_floats(proj, lats, lons):
    """The runs of ``zip(lats, lons)`` as (xs, ys) lists, and the first
    DomainError or None."""
    xy = proj._xy
    cut = proj.cut_longitude
    lon0 = None if cut is None else wrap_longitude(cut + math.pi)
    segments, xs, ys, first, prev_u = [], [], [], None, None
    for lat, lon in zip(lats, lons):
        if lon0 is not None:
            u = wrap_longitude(lon - lon0)
            if prev_u is not None and abs(u - prev_u) > math.pi:
                if len(xs) >= 2:
                    segments.append((xs, ys))
                xs, ys = [], []
            prev_u = u
        try:
            x, y = xy(lat, lon)
        except DomainError as exc:
            if first is None:
                first = exc
            if len(xs) >= 2:
                segments.append((xs, ys))
            xs, ys = [], []
            continue
        xs.append(x)
        ys.append(y)
    if len(xs) >= 2:
        segments.append((xs, ys))
    return segments, first


class TestProjectGraticule:
    @pytest.mark.parametrize("family", sorted(projections.FAMILIES))
    def test_equals_the_curve_by_curve_runs(self, family):
        grats = _grid_graticules()
        runs = 0
        for params in GRID_SPECS.get(family, ("",)):
            proj = parse_projection(f"{family} {params}")
            for grat in grats:
                parallels = [
                    run for lat in grat.lats for run in _reference_project_floats(
                        proj, repeat(lat), grat.lon_samples)[0]]
                meridians = [
                    run for lon in grat.lons for run in _reference_project_floats(
                        proj, grat.lat_samples, repeat(lon))[0]]
                got = mapproj.atlas._project_graticule(proj, grat)
                assert [_hex_runs(segs) for segs in got] == [
                    _hex_runs(parallels), _hex_runs(meridians)
                ], (params, grat)
                runs += len(parallels) + len(meridians)
        assert runs > 0

    @pytest.mark.parametrize("spec", [
        "equirectangular lat0=40", "mercator cutoff=60", "lambert_cylindrical_equal_area",
        "equidistant_conic lat1=-45 lat2=-60", "lambert_conformal_conic lat1=30 lat2=60",
        # the azimuthal families project each curve from the axes in one batch
        "orthographic center=35,60", "stereographic", "gnomonic center=50,20",
        "central center=-45,100", "lambert_azimuthal_equal_area center=0,180",
        # Werner projects sample by sample, through the same grid kernel
        "werner lon0=-100",
    ])
    def test_separable_families_project_no_curve(self, spec, monkeypatch):
        def refuse(*args):
            raise AssertionError("projected curve by curve")

        monkeypatch.setattr(mapproj.atlas, "_project_floats", refuse)
        parallels, meridians = mapproj.atlas._project_graticule(
            parse_projection(spec), build_graticule(WORLD, math.radians(30), math.radians(30)))
        assert parallels and meridians


@pytest.mark.parametrize("lon0", TEAR_LON0S)
@pytest.mark.parametrize("family", TEAR_FAMILIES)
def test_world_parallels_do_not_jump_across_the_map(family, lon0):
    # the tear splits each parallel where the kernel wraps lon - lon0, so
    # the sample on the cut stays on the edge its image lies on
    proj = parse_projection(f"{family} lon0={lon0}")
    parallels, meridians = mapproj.atlas._project_graticule(
        proj, build_graticule(WORLD, math.radians(10), math.radians(10), 4.0))
    every_x = [x for xs, _ in parallels + meridians for x in xs]
    half_width = 0.5 * (max(every_x) - min(every_x))
    jumps = [(ys[0], step) for xs, ys in parallels
             for step in map(math.hypot, np.diff(xs), np.diff(ys)) if step > half_width]
    assert jumps == []


def _inside(proj, lat, lon) -> bool:
    try:
        proj._xy(lat, lon)
    except DomainError:
        return False
    return True


def _on_chord(a, b, t):
    """(lat, lon) of the point a fraction t along the chord from the unit
    vector a to b, pushed out onto the sphere."""
    vx, vy, vz = ((1.0 - t) * p + t * q for p, q in zip(a, b))
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    return math.asin(max(-1.0, min(1.0, vz / norm))), math.atan2(vy, vx)


def _edge_curve(proj, rng):
    """A short curve about a point where the domain ends, found by bisection
    on a chord from the centre (or the north pole) to near its antipode,
    which crosses the cutoffs, the apex, the excluded poles or the limb."""
    centre = getattr(proj, "center", GeoCoord(HALF_PI, 0.0))
    cos_lat = math.cos(centre.lat)
    a = (cos_lat * math.cos(centre.lon), cos_lat * math.sin(centre.lon), math.sin(centre.lat))
    b = tuple(-v + rng.uniform(-0.3, 0.3) for v in a)
    ts = linspace(0.0, 1.0, 65)
    flips = [(t0, t1) for t0, t1 in zip(ts, ts[1:])
             if _inside(proj, *_on_chord(a, b, t0)) != _inside(proj, *_on_chord(a, b, t1))]
    if not flips:
        return [_on_chord(a, b, t) for t in ts]
    lo, hi = rng.choice(flips)
    side = _inside(proj, *_on_chord(a, b, lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _inside(proj, *_on_chord(a, b, mid)) == side else (lo, mid)
    h = rng.choice([1e-16, 1e-13, 1e-10, 1e-6, 1e-3])
    m = rng.randint(1, 6)
    return [_on_chord(a, b, lo + k * h) for k in range(-m, m + 1)]


def _sweep_curve(proj, rng, kind):
    """A seeded curve of one of six kinds, as (lat, lon) pairs."""
    def anywhere():
        return math.asin(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi)

    if kind == "geodesic":
        a, b = (GeoCoord(*anywhere()) for _ in range(2))
        return [(c.lat, c.lon) for c in sample_great_circle(a, b, rng.randint(3, 65))]
    if kind == "walk":  # starts near the tear and steps across it
        cut = proj.cut_longitude
        lat, lon = anywhere()
        lon = wrap_longitude((lon if cut is None else cut) + rng.uniform(-0.5, 0.5))
        points = []
        for _ in range(rng.randint(2, 40)):
            points.append((lat, lon))
            lat = max(-HALF_PI, min(HALF_PI, lat + rng.uniform(-0.15, 0.15)))
            lon = wrap_longitude(lon + rng.uniform(-0.5, 0.5))
        return points
    if kind == "pole":  # meridians and parallels through the poles themselves
        n = rng.randint(2, 40)
        lon = anywhere()[1]
        if rng.random() < 0.3:
            lat = rng.choice([-HALF_PI, HALF_PI])
            return [(lat, v) for v in linspace(-math.pi, math.pi, n)]
        lons = [lon] * n if rng.random() < 0.5 else linspace(lon, lon + 1.0, n)
        return list(zip(linspace(-HALF_PI, HALF_PI, n), map(wrap_longitude, lons)))
    if kind == "edge":
        return _edge_curve(proj, rng)
    # 1 to 3 samples, some of them at a pole or at an edge
    points = [anywhere() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        points[0] = (rng.choice([-HALF_PI, HALF_PI]), points[0][1])
    if rng.random() < 0.3:
        points[-1] = rng.choice(_edge_curve(proj, rng))
    return points


SWEEP_KINDS = ("geodesic", "walk", "pole", "edge", "short", "short")


class TestProjectFloats:
    def test_equals_the_per_sample_loop(self):
        # runs as float.hex and project_polyline's note against the
        # reference, over every family and aspect of GRID_SPECS
        rng = random.Random(2020)
        curves = notes = tear_splits = hole_splits = 0
        families = set()
        for family in sorted(projections.FAMILIES):
            for params in GRID_SPECS.get(family, ("",)):
                proj = parse_projection(f"{family} {params}")
                families.add(proj.family)
                for i in range(160):
                    points = [GeoCoord(lat, lon)
                              for lat, lon in _sweep_curve(proj, rng, SWEEP_KINDS[i % 6])]
                    lats, lons = [c.lat for c in points], [c.lon for c in points]
                    want, first = _reference_project_floats(proj, lats, lons)
                    got = mapproj.atlas._project_floats(proj, lats, lons)
                    assert _hex_runs(got) == _hex_runs(want), (params, points)
                    note = str(first) if first is not None and not want else None
                    poly = project_polyline(proj, points)
                    assert poly.note == note, (params, points)
                    assert [[_hex(p) for p in seg] for seg in poly.segments] == [
                        list(zip(*run)) for run in _hex_runs(want)]
                    curves += 1
                    notes += note is not None
                    tear_splits += first is None and len(want) > 1
                    hole_splits += first is not None and len(want) > 1
        assert len(families) == 11
        assert curves >= 3000
        assert min(notes, tear_splits, hole_splits) >= 50, (notes, tear_splits, hole_splits)

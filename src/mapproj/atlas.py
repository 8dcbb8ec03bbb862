"""Graticule construction, clipped polyline projection, gazetteer ingestion,
and deterministic SVG export.

A graticule is kept as its canonical float axes: the latitudes of its
parallels, the longitudes of its meridians and the two sample axes. Its
curves as tuples of ``GeoCoord`` are built from the axes on first read, and
rendering never builds them: it works on floats from the axes down to the
path strings. Every family projects a graticule through its grid kernel
(``_rows`` for the parallels, ``_columns`` for the meridians). The curve
splitter of :mod:`mapproj.geodesics` cuts the curves into runs at the
kernel's holes and at the tear, as it cuts a geodesic.

The gazetteer format is CSV with header ``name,lat,lon``; coordinates are
decimal degrees or degree-minute strings like ``60°30′``, and lines starting
with ``#`` are comments. A prime-meridian offset (degrees east of Greenwich)
can be applied at parse time so historical tables referenced to another
meridian load with one flag.

Projections are named in plain text as ``family key=value ...`` with degree
values; the full grammar and per-family keys live on
:func:`mapproj.projections.parse_projection`.

SVG output is a pure function of the scene: fixed element order (parallels,
meridians, geodesics, points, labels), all numbers fixed to 6 decimals (which
also absorbs cross-platform libm jitter), an explicit viewBox computed from
the projected bounds plus margins, and the y axis flipped so north is up.
Projected parallels that are circular to within 1e-9 are emitted as SVG arc
commands rather than polylines, so a conic graticule round-trips its radii;
a straight curve (all its xs, or all its ys, equal) is not fitted, and the
values its lines share are formatted once per layer.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from html import escape

from .errors import ParameterError
from .geo import (
    HALF_PI, MAX_SAMPLES, GeoCoord, GeoRegion, _fmt, linspace,
    sample_great_circle, wrap_longitude,
)
from .geodesics import _project_floats, _runs, _tears, _three_point_fit
from .projections import Projection

# meridian curves stop this far (radians) from the singular pole points
POLE_CLIP = 1e-6

# projected curves at least this circular (max residual) render as arcs
ARC_RESIDUAL = 1e-9


@dataclass(frozen=True)
class Graticule:
    """Selected meridian and parallel curves over a region, densely sampled.

    The graticule is stored as its canonical float axes: the parallels lie
    at ``lats`` and are sampled at ``lon_samples``; the meridians lie at
    ``lons`` and are sampled at ``lat_samples``. Longitudes lie in
    (-180°, 180°], so a region that starts at -180° starts its parallels at
    +180°. ``parallels`` and ``meridians`` are the curves as tuples of
    ``GeoCoord``, built from the axes on first read; the axes alone make
    the value.
    """

    lats: tuple[float, ...]
    lons: tuple[float, ...]
    lat_samples: tuple[float, ...]
    lon_samples: tuple[float, ...]

    def __post_init__(self):
        for axis in ("lats", "lons", "lat_samples", "lon_samples"):
            if not all(map(math.isfinite, getattr(self, axis))):
                raise ParameterError(f"graticule axis {axis} holds a non-finite value")
            if axis.startswith("lat") and any(abs(v) > HALF_PI for v in getattr(self, axis)):
                raise ParameterError(
                    f"graticule axis {axis} holds a latitude outside [-90°, 90°]")

    @cached_property
    def parallels(self) -> tuple[tuple[GeoCoord, ...], ...]:
        return tuple(tuple(map(GeoCoord, repeat(lat), self.lon_samples)) for lat in self.lats)

    @cached_property
    def meridians(self) -> tuple[tuple[GeoCoord, ...], ...]:
        return tuple(tuple(map(GeoCoord, self.lat_samples, repeat(lon))) for lon in self.lons)


@dataclass(frozen=True)
class GazetteerEntry:
    """A named place. The name is one line of text, not blank, without
    leading or trailing whitespace: the names that :func:`load_gazetteer`
    can give back."""

    name: str
    coord: GeoCoord

    def __post_init__(self):
        if not self.name:
            raise ParameterError("gazetteer entry needs a non-empty name")
        if self.name.splitlines() != [self.name] or self.name != self.name.strip():
            raise ParameterError(
                f"gazetteer name {self.name!r} must be one line without leading or "
                "trailing whitespace")


@dataclass(frozen=True)
class MapScene:
    """Everything one render needs: projection, layers, scale and margins."""

    projection: Projection
    graticule: Graticule | None = None
    places: tuple[GazetteerEntry, ...] = ()
    geodesics: tuple[tuple[GeoCoord, GeoCoord, int], ...] = ()
    scale: float = 200.0
    margin: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.scale < math.inf and 0.0 <= self.margin < math.inf):
            raise ParameterError("scale must be positive and margin non-negative, both finite")


def _multiple_range(lo: float, hi: float, step: float) -> range:
    """The k of the multiples k * step inside [lo, hi], with slack for radian
    rounding."""
    return range(math.ceil(lo / step - 1e-9), math.floor(hi / step + 1e-9) + 1)


def _sample_count(lo: float, hi: float, per_degree: float) -> int:
    return max(2, int(round(math.degrees(hi - lo) * per_degree)) + 1)


def build_graticule(
    region: GeoRegion, dphi: float, dlam: float, samples_per_degree: float = 4.0
) -> Graticule:
    """Parallels at multiples of dphi and meridians at multiples of dlam
    crossing the region, each sampled ``samples_per_degree`` times per degree
    of arc. Poles never appear on meridian curves (singular points of the
    foliation); a spacing wider than the region degrades to the region's
    boundary curves. A graticule of more than :data:`MAX_SAMPLES` samples is
    refused before any curve is built; the count takes at least 2 curves of
    each kind, and every multiple of the spacings in the region, before the
    poles and a repeated seam meridian are dropped.
    """
    if not (0 < dphi < math.inf and 0 < dlam < math.inf):
        raise ParameterError("graticule spacings must be positive and finite")
    if not 0 < samples_per_degree < math.inf:
        raise ParameterError("sampling density must be positive and finite")

    lat_cap = HALF_PI - POLE_CLIP
    mer_lo = max(region.lat_lo, -lat_cap)
    mer_hi = min(region.lat_hi, lat_cap)
    try:
        lat_ks = _multiple_range(region.lat_lo, region.lat_hi, dphi)
        lon_ks = _multiple_range(region.lon_lo, region.lon_hi, dlam)
        n_lat = _sample_count(mer_lo, mer_hi, samples_per_degree)
        n_lon = _sample_count(region.lon_lo, region.lon_hi, samples_per_degree)
        # a spacing wider than the region still gives up to 2 boundary curves
        count = max(2, len(lat_ks)) * n_lon + max(2, len(lon_ks)) * n_lat
    except OverflowError:  # a count past any float or index
        count = math.inf
    if count > MAX_SAMPLES:
        raise ParameterError(
            f"graticule of {count} samples exceeds the cap of {MAX_SAMPLES} samples"
        )
    lats = [v for v in (k * dphi for k in lat_ks) if abs(v) < lat_cap] or sorted({mer_lo, mer_hi})
    # a full circle repeats its seam meridian; keep one copy
    seen: dict[float, float] = {}
    for lon in (k * dlam for k in lon_ks):
        seen.setdefault(round(wrap_longitude(lon), 12), lon)
    lons = sorted(seen.values()) or [region.lon_lo, region.lon_hi]

    # canonical axes: every latitude lies strictly inside +-(90° - POLE_CLIP)
    # and every longitude in (-180°, 180°]
    return Graticule(
        lats=tuple(float(v) for v in lats),
        lons=tuple(wrap_longitude(float(v)) for v in lons),
        lat_samples=tuple(float(v) for v in linspace(mer_lo, mer_hi, n_lat)),
        lon_samples=tuple(
            wrap_longitude(float(v)) for v in linspace(region.lon_lo, region.lon_hi, n_lon)
        ),
    )


# ---------------------------------------------------------------------------
# gazetteer

_DEG_MIN = re.compile(
    r"^\s*(?P<sign>[+-]?)(?P<deg>\d+(?:\.\d+)?)°"
    r"(?:\s*(?P<min>\d+(?:\.\d+)?)[′'])?\s*$"
)


def _parse_coordinate(text: str, kind: str, line_no: int) -> float:
    """Decimal degrees or degree-minute text to degrees. Minutes follow
    whole degrees only and lie below 60."""
    text = text.strip()
    m = _DEG_MIN.match(text)
    if m and not (m.group("min") and ("." in m.group("deg") or float(m.group("min")) >= 60.0)):
        value = float(m.group("deg")) + float(m.group("min") or 0.0) / 60.0
        return -value if m.group("sign") == "-" else value
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"malformed {kind} {text!r}, line {line_no}") from None


def load_gazetteer(text: str, prime_meridian_deg: float = 0.0) -> list[GazetteerEntry]:
    """Parse gazetteer CSV; see the module docstring for the format.

    ``prime_meridian_deg`` is added to every longitude, converting
    coordinates referenced to another prime meridian into the standard one.
    A leading byte-order mark, as spreadsheet programs write, is skipped.
    """
    numbered = [
        (i + 1, line)
        for i, line in enumerate(text.removeprefix("\ufeff").splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise ParameterError("gazetteer is empty")
    header_no, header = numbered[0]
    if [col.strip().lower() for col in header.split(",")] != ["name", "lat", "lon"]:
        raise ParameterError(f"expected header 'name,lat,lon', line {header_no}")
    entries: list[GazetteerEntry] = []
    for line_no, line in numbered[1:]:
        row = next(csv.reader([line]))
        if len(row) != 3:
            raise ParameterError(f"expected 3 fields, got {len(row)}, line {line_no}")
        name = row[0].strip()
        if not name:
            raise ParameterError(f"empty name, line {line_no}")
        lat_deg = _parse_coordinate(row[1], "lat", line_no)
        lon_deg = _parse_coordinate(row[2], "lon", line_no)
        # written so that NaN fails them too
        if not abs(lat_deg) <= 90.0:
            raise ParameterError(f"lat out of range, line {line_no}")
        if not abs(lon_deg) <= 360.0:
            raise ParameterError(f"lon out of range, line {line_no}")
        entries.append(
            GazetteerEntry(
                name=name,
                coord=GeoCoord.from_degrees(lat_deg, lon_deg + prime_meridian_deg),
            )
        )
    return entries


def dump_gazetteer(entries) -> str:
    """Inverse of load_gazetteer (round-trips through shortest-repr floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "lat", "lon"])
    for entry in entries:
        coords = [repr(entry.coord.lat_deg), repr(entry.coord.lon_deg)]
        if entry.name.lstrip().startswith("#"):
            # quoted, so that loading does not read the line as a comment
            out.write('"%s",' % entry.name.replace('"', '""'))
            writer.writerow(coords)
        else:
            writer.writerow([entry.name, *coords])
    return out.getvalue()


# ---------------------------------------------------------------------------
# SVG rendering

def _pixels(tr, xs, ys) -> tuple[list[float], list[float]]:
    """Plane points to SVG pixels by ``tr = (margin, scale, min_x, max_y)``:
    uniform scale, margins, y flipped north-up. Each pixel is margin + (a
    difference >= 0, perhaps -0.0) * scale, and render_svg makes the margin
    +0.0 or positive, so the pixel is at least +0.0 and a polyline prints it
    without _fmt."""
    margin, scale, min_x, max_y = tr
    return [margin + (x - min_x) * scale for x in xs], [margin + (max_y - y) * scale for y in ys]


def _path_arc(xs, ys, tr) -> str | None:
    """Arc-command path for a circular segment of plane points, or None if
    it is not one. The caller keeps axis-parallel lines away from it. An arc
    lies on one side of its chord, the side of an interior sample. It is the
    larger arc when the fit's centre lies there too, and it runs clockwise
    (sweep 1 in y-down pixels) when it bulges to the chord's left. A larger
    arc within 0.1 rad of a full circle is left to the polyline."""
    if len(xs) < 3:
        return None
    mid = len(xs) // 2
    try:
        fit = _three_point_fit(xs, ys, ARC_RESIDUAL)
    except ParameterError:
        return None
    if fit.collinear or fit.max_residual > ARC_RESIDUAL:
        return None
    x0, y0 = xs[0], ys[0]
    dx, dy = xs[-1] - x0, ys[-1] - y0
    bulge = dx * (ys[mid] - y0) - dy * (xs[mid] - x0)
    large_arc = 1 if bulge * (dx * (fit.center.y - y0) - dy * (fit.center.x - x0)) > 0 else 0
    if large_arc and fit.chord <= 2 * fit.radius * math.sin(0.05):
        return None
    radius = fit.radius * tr[1]
    (px0, px1), (py0, py1) = _pixels(tr, (x0, xs[-1]), (y0, ys[-1]))
    return (
        f"M {_fmt(px0)} {_fmt(py0)} "
        f"A {_fmt(radius)} {_fmt(radius)} 0 {large_arc} {1 if bulge > 0 else 0} "
        f"{_fmt(px1)} {_fmt(py1)}"
    )


def _memo_texts(texts: dict, values, pixel):
    """The ``%.6f`` text of each value's pixel, formatting only the values
    not yet in ``texts``; equal values, 0.0 and -0.0 too, share one text.
    The lines of a layer share most values, so the lookup is tried first."""
    try:
        return list(map(texts.__getitem__, values))
    except KeyError:
        for v in set(values).difference(texts):
            texts[v] = "%.6f" % pixel(v)
        return list(map(texts.__getitem__, values))


def _curve_layer(name: str, segments, tr, style: str, arcs: bool) -> list[str]:
    """The SVG group of a layer's segments. A segment whose ys, or whose
    xs, are all equal is a line (its ends and middle are compared first):
    its constant pixel is formatted once, and the other coordinate's texts
    come from a dict of this call, so a value shared by the layer's lines
    is formatted once. Any other segment is an arc command if ``arcs`` and
    it fits one, else a polyline, one ``%`` over its interleaved pixels.
    Every number has the bytes ``_pixels`` and ``%.6f`` give it."""
    margin, scale, min_x, max_y = tr
    x_texts: dict[float, str] = {}
    y_texts: dict[float, str] = {}
    lines = [f'  <g id="{name}" {style}>']
    for xs, ys in segments:
        mid = len(xs) // 2
        if ys[0] == ys[-1] == ys[mid] and ys.count(ys[0]) == len(ys):
            fixed = " %.6f" % (margin + (max_y - ys[0]) * scale)
            texts = _memo_texts(x_texts, xs, lambda x: margin + (x - min_x) * scale)
            d = "M " + (fixed + " L ").join(texts) + fixed
        elif xs[0] == xs[-1] == xs[mid] and xs.count(xs[0]) == len(xs):
            fixed = "%.6f " % (margin + (xs[0] - min_x) * scale)
            texts = _memo_texts(y_texts, ys, lambda y: margin + (max_y - y) * scale)
            d = "M " + fixed + (" L " + fixed).join(texts)
        else:
            d = _path_arc(xs, ys, tr) if arcs else None
            if d is None:
                px, py = _pixels(tr, xs, ys)
                flat = px + py
                flat[::2], flat[1::2] = px, py
                d = ("M " + " L ".join(repeat("%.6f %.6f", len(px)))) % tuple(flat)
        lines.append(f'    <path d="{d}"/>')
    lines.append("  </g>")
    return lines


def _project_graticule(proj: Projection, grat: Graticule) -> tuple[list, list]:
    """The runs of the parallels and of the meridians, each list equal to
    what :func:`_project_floats` gives curve by curve. The tear splits every
    parallel at the same samples and no meridian."""
    tears = _tears(proj, grat.lon_samples)
    return (
        [run for row in proj._rows(grat.lats, grat.lon_samples) for run in _runs(*row, tears)],
        [run for col in proj._columns(grat.lat_samples, grat.lons) for run in _runs(*col, ())],
    )


def render_svg(scene: MapScene) -> str:
    """Deterministic SVG 1.1 document for a scene; see the module docstring
    for the layout guarantees. Layers outside the projection domain are
    clipped; an empty scene still yields a valid document."""
    proj = scene.projection
    grat = scene.graticule
    parallel_segs = meridian_segs = []
    if grat is not None:
        parallel_segs, meridian_segs = _project_graticule(proj, grat)
    geodesic_segs = []
    for a, b, n in scene.geodesics:
        arc = sample_great_circle(a, b, n)
        geodesic_segs += _project_floats(proj, [c.lat for c in arc], [c.lon for c in arc])
    places = scene.places
    px, py, _ = proj._curve([e.coord.lat for e in places], [e.coord.lon for e in places])
    markers = [(x, y, e.name) for x, y, e in zip(px, py, places) if x is not None]
    marker_xs, marker_ys, names = zip(*markers) if markers else ((), (), ())

    # the bounds from each segment's extremes, then the markers
    xs: list[float] = []
    ys: list[float] = []
    for seg_x, seg_y in parallel_segs + meridian_segs + geodesic_segs:
        xs += (min(seg_x), max(seg_x))
        ys += (min(seg_y), max(seg_y))
    xs += marker_xs
    ys += marker_ys
    min_x, max_y = min(xs, default=0.0), max(ys, default=0.0)
    width = (max(xs, default=0.0) - min_x) * scene.scale + 2 * scene.margin
    height = (max_y - min(ys, default=0.0)) * scene.scale + 2 * scene.margin
    if not (math.isfinite(width) and math.isfinite(height)):
        # every pixel lies between the margins, so this bounds them all
        raise ParameterError(
            f"scale {scene.scale!r} and margin {scene.margin!r} give a map of "
            f"{width!r} by {height!r} pixels, which is not finite"
        )
    # +0.0 for a -0.0 margin, so that no pixel is -0.0 (see _pixels)
    tr = (scene.margin + 0.0, scene.scale, min_x, max_y)
    pixels = list(zip(*_pixels(tr, marker_xs, marker_ys)))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    lines += _curve_layer(
        "parallels", parallel_segs, tr,
        'fill="none" stroke="#708090" stroke-width="0.6"', arcs=True,
    )
    lines += _curve_layer(
        "meridians", meridian_segs, tr,
        'fill="none" stroke="#708090" stroke-width="0.6"', arcs=False,
    )
    lines += _curve_layer(
        "geodesics", geodesic_segs, tr,
        'fill="none" stroke="#b22222" stroke-width="1.0"', arcs=False,
    )
    lines.append('  <g id="points" fill="#1a1a1a">')
    for x, y in pixels:
        lines.append(f'    <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5"/>')
    lines.append("  </g>")
    lines.append('  <g id="labels" font-family="sans-serif" font-size="10">')
    for (x, y), name in zip(pixels, names):
        lines.append(
            f'    <text x="{_fmt(x + 4.0)}" y="{_fmt(y - 4.0)}">{escape(name, quote=False)}</text>'
        )
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

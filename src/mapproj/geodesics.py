"""Images of great-circle arcs under a projection.

A projected geodesic is a plane polyline; its deviation from a straight line
is summarized by chord, sagitta and their ratio, and its shape is compared
against a circular arc fitted through the endpoints and the point of largest
deviation. Under the gnomonic/central families the images are exactly
straight; under the equidistant conic they bow slightly, along near-circular
arcs of large radius.

Projection, deviations and the fit run on float lists. A curve projects
through its family's kernel ``_curve``, which marks the samples outside the
domain as holes; :func:`_runs` splits it there and at the tear crossings
:func:`_tears` reads off the projection's ``_offsets``, and
:mod:`mapproj.atlas` splits a graticule's curves with the same two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ParameterError
from .geo import GeoCoord, sample_great_circle
from .projections import PlanePoint, Projection

# curves whose sagitta/chord falls below this are collinear: infinite radius
COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class PlanePolyline:
    """Projected curve: one tuple of points per unbroken run.

    A new segment starts wherever the source curve left the projection
    domain (or crossed a map tear); fragments shorter than 2 points are
    dropped. Non-finite points are rejected, since they would make every
    measurement of the curve meaningless. ``note`` records why a polyline
    came out empty.
    """

    segments: tuple[tuple[PlanePoint, ...], ...]
    note: str | None = None

    def __post_init__(self):
        for i, seg in enumerate(self.segments):
            if len(seg) < 2:
                raise ParameterError("polyline segments need at least 2 points")
            for j, p in enumerate(seg):
                if not (math.isfinite(p.x) and math.isfinite(p.y)):
                    raise ParameterError(
                        f"polyline segment {i} point {j} is not finite: ({p.x!r}, {p.y!r})"
                    )

    @property
    def is_empty(self) -> bool:
        return not self.segments

    @property
    def single_segment(self) -> tuple[PlanePoint, ...]:
        if len(self.segments) != 1:
            raise ParameterError(
                f"expected one unbroken segment, found {len(self.segments)}; "
                "analyze each segment separately"
            )
        return self.segments[0]


@dataclass(frozen=True)
class StraightnessReport:
    chord: float
    sagitta: float
    ratio: float


@dataclass(frozen=True)
class ArcFit:
    """Circle through the endpoints and the point of maximum deviation.

    ``max_residual`` is the largest point-to-circle distance over all
    samples. Collinear input sets the ``collinear`` flag with infinite
    radius instead of failing.
    """

    center: PlanePoint | None
    radius: float
    max_residual: float
    chord: float
    sagitta: float
    collinear: bool = False


def _tears(proj: Projection, lons) -> list[int]:
    """The indices j at which a curve through the longitudes ``lons``
    crosses the tear of ``proj``: a jump of more than pi in the offset from
    the central meridian, as the projection wraps it, from sample j - 1 to
    j. A family without a tear has all offsets 0.0, so none."""
    u = proj._offsets(lons)
    return [j for j in range(1, len(u)) if abs(u[j] - u[j - 1]) > math.pi]


def _runs(xs, ys, holes, tears) -> list[tuple[list[float], list[float]]]:
    """The runs of at least 2 samples of the curve ``(xs, ys, holes)``, as a
    grid kernel gives it, split around each of its holes and before each
    index in ``tears``, as (xs, ys) lists."""
    bounds = [-1, *holes, len(xs)]
    runs = []
    for a, b in zip(bounds, bounds[1:]):
        if b - a > 2:
            cuts = [a + 1, *[t for t in tears if a + 1 < t < b], b]
            runs += [(xs[c:d], ys[c:d]) for c, d in zip(cuts, cuts[1:]) if d - c >= 2]
    return runs


def _project_floats(proj: Projection, lats, lons) -> list[tuple[list[float], list[float]]]:
    """Forward image of the samples ``zip(lats, lons)`` (two float
    sequences) as its unbroken runs of at least 2 points, ``(xs, ys)`` float
    lists. A run ends at each sample outside the domain, and before each
    crossing of the tear (:func:`_tears`)."""
    return _runs(*proj._curve(lats, lons), _tears(proj, lons))


def project_polyline(proj: Projection, curve) -> PlanePolyline:
    """Forward image of a sampled curve of ``GeoCoord``, split into unbroken
    segments where :func:`_project_floats` splits it (domain breaks and the
    tear). When no segment is left, ``note`` is the message of the first
    sample the projection rejects, if any.
    """
    curve = list(curve)
    lats, lons = [c.lat for c in curve], [c.lon for c in curve]
    xs, ys, holes = proj._curve(lats, lons)
    runs = _runs(xs, ys, holes, _tears(proj, lons))
    note = None
    if not runs and holes:
        try:
            proj._xy(lats[holes[0]], lons[holes[0]])
        except DomainError as exc:
            note = str(exc)
    return PlanePolyline(tuple(tuple(map(PlanePoint, xs, ys)) for xs, ys in runs), note=note)


def project_geodesic(proj: Projection, a: GeoCoord, b: GeoCoord, n: int) -> PlanePolyline:
    """Forward image of the n-point great-circle sampling from a to b, split
    like :func:`project_polyline` at domain breaks and at the tear.
    Endpoints that are both outside the domain are rejected outright.
    """
    if n < 3:
        raise ParameterError(f"need at least 3 samples for a geodesic image, got {n}")
    if len(proj._curve((a.lat, b.lat), (a.lon, b.lon))[2]) == 2:
        raise DomainError(
            f"both endpoints {a.describe()} and {b.describe()} lie outside the domain"
        )
    return project_polyline(proj, sample_great_circle(a, b, n))


def _deviations(xs, ys) -> tuple[float, list[float]]:
    """Chord length and perpendicular distances of every point (xs[i], ys[i])
    to the chord line."""
    x0, y0 = xs[0], ys[0]
    ax, ay = xs[-1] - x0, ys[-1] - y0
    chord = math.hypot(ax, ay)
    if chord < 1e-15:
        raise ParameterError("polyline endpoints coincide; chord is degenerate")
    return chord, [abs((x - x0) * ay - (y - y0) * ax) / chord for x, y in zip(xs, ys)]


def straightness(poly: PlanePolyline) -> StraightnessReport:
    """Chord, sagitta (max perpendicular deviation from the chord line), and
    their ratio, for a single unbroken segment of at least 3 points."""
    points = poly.single_segment
    if len(points) < 3:
        raise ParameterError(f"need at least 3 points, got {len(points)}")
    chord, dev = _deviations(*zip(*points))
    sagitta = max(dev)
    return StraightnessReport(chord=chord, sagitta=sagitta, ratio=sagitta / chord)


def _circle_through(ax, ay, bx, by, cx, cy) -> tuple[float, float, float]:
    """Centre and radius of the circumcircle of three non-collinear points."""
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise ParameterError("collinear points have no circumcircle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return ux, uy, math.hypot(ax - ux, ay - uy)


def _three_point_fit(xs, ys, bound=math.inf) -> ArcFit:
    """:func:`fit_circular_arc` on the coordinate lists of one segment. The
    residual is first taken at the quarter samples ``n // 4`` and
    ``3 * n // 4``; if it exceeds ``bound``, the fit stops there and reports
    it as ``max_residual``, a lower bound of the full maximum."""
    if len(xs) < 3:
        raise ParameterError(f"need at least 3 points, got {len(xs)}")
    chord, dev = _deviations(xs, ys)
    sagitta = max(dev)
    if sagitta / chord < COLLINEAR_TOL:
        return ArcFit(
            center=None, radius=math.inf, max_residual=sagitta,
            chord=chord, sagitta=sagitta, collinear=True,
        )
    peak = dev.index(sagitta)  # the first peak, as argmax takes it
    ux, uy, radius = _circle_through(xs[0], ys[0], xs[peak], ys[peak], xs[-1], ys[-1])
    n = len(xs)
    residual = max([abs(math.hypot(xs[j] - ux, ys[j] - uy) - radius)
                    for j in (n // 4, 3 * n // 4)])
    if not residual > bound:  # a NaN goes on to the full pass too
        residual = max([abs(math.hypot(x - ux, y - uy) - radius) for x, y in zip(xs, ys)])
    return ArcFit(
        center=PlanePoint(ux, uy), radius=radius,
        max_residual=residual, chord=chord, sagitta=sagitta,
    )


def fit_circular_arc(poly: PlanePolyline) -> ArcFit:
    """Arc fit of a projected curve: the circle through the two endpoints and
    the sample of maximum deviation (the draftsman's construction;
    unconditionally stable). Input whose sagitta/chord falls below
    :data:`COLLINEAR_TOL` is flagged as collinear with infinite radius.
    """
    return _three_point_fit(*zip(*poly.single_segment))

"""Images of great-circle arcs under a projection.

A projected geodesic is a plane polyline; its deviation from a straight line
is summarized by chord, sagitta and their ratio, and its shape is compared
against a circular arc fitted through the endpoints and the point of largest
deviation (with a least-squares refinement reported alongside). Under the
gnomonic/central families the images are exactly straight; under the
equidistant conic they bow slightly, along near-circular arcs of large
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .geo import GeoCoord, sample_great_circle, wrap_longitude
from .projections import PlanePoint, Projection


@dataclass(frozen=True)
class PlanePolyline:
    """Projected curve: one tuple of points per unbroken run.

    A new segment starts wherever the source curve left the projection
    domain (or crossed a map tear); fragments shorter than 2 points are
    dropped. ``note`` records why a polyline came out empty.
    """

    segments: tuple[tuple[PlanePoint, ...], ...]
    note: str | None = None

    def __post_init__(self):
        for seg in self.segments:
            if len(seg) < 2:
                raise ParameterError("polyline segments need at least 2 points")

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
    radius instead of failing. ``ls_*`` carry the least-squares refinement.
    """

    center: PlanePoint | None
    radius: float
    max_residual: float
    chord: float
    sagitta: float
    collinear: bool = False
    ls_center: PlanePoint | None = None
    ls_radius: float | None = None
    ls_max_residual: float | None = None


def project_polyline(proj: Projection, curve) -> PlanePolyline:
    """Forward image of a sampled curve, split into unbroken segments.

    Out-of-domain samples open a break. Families with an antimeridian tear
    (cylindrical, conic, cordiform) additionally split wherever the curve
    crosses the cut, detected as a wrapped-longitude jump larger than pi
    between consecutive samples.
    """
    xy = proj._xy
    cut = proj.cut_longitude
    lon0 = None if cut is None else wrap_longitude(cut + math.pi)
    segments: list[tuple[PlanePoint, ...]] = []
    current: list[PlanePoint] = []
    note: str | None = None
    prev_u: float | None = None
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


def project_geodesic(proj: Projection, a: GeoCoord, b: GeoCoord, n: int) -> PlanePolyline:
    """Forward image of the n-point great-circle sampling from a to b, split
    like :func:`project_polyline` at domain breaks and at the tear.
    Endpoints that are both outside the domain are rejected outright.
    """
    if n < 3:
        raise ParameterError(f"need at least 3 samples for a geodesic image, got {n}")

    def in_domain(c: GeoCoord) -> bool:
        try:
            proj.forward(c)
            return True
        except DomainError:
            return False

    if not in_domain(a) and not in_domain(b):
        raise DomainError(
            f"both endpoints {a.describe()} and {b.describe()} lie outside the domain"
        )
    return project_polyline(proj, sample_great_circle(a, b, n))


def _xy(points: tuple[PlanePoint, ...]) -> np.ndarray:
    return np.array([(p.x, p.y) for p in points])


def _deviations(xy: np.ndarray) -> tuple[float, np.ndarray]:
    """Chord length and perpendicular distances of every point (row of xy)
    to the chord line."""
    start, end = xy[0], xy[-1]
    axis = end - start
    chord = float(np.hypot(*axis))
    if chord < 1e-15:
        raise ParameterError("polyline endpoints coincide; chord is degenerate")
    rel = xy - start
    cross = rel[:, 0] * axis[1] - rel[:, 1] * axis[0]
    return chord, np.abs(cross) / chord


def straightness(poly: PlanePolyline) -> StraightnessReport:
    """Chord, sagitta (max perpendicular deviation from the chord line), and
    their ratio, for a single unbroken segment of at least 3 points."""
    points = poly.single_segment
    if len(points) < 3:
        raise ParameterError(f"need at least 3 points, got {len(points)}")
    chord, dev = _deviations(_xy(points))
    sagitta = float(dev.max())
    return StraightnessReport(chord=chord, sagitta=sagitta, ratio=sagitta / chord)


def _circle_through(p0: PlanePoint, p1: PlanePoint, p2: PlanePoint) -> tuple[PlanePoint, float]:
    """Circumcircle of three non-collinear points."""
    ax, ay = p0.x, p0.y
    bx, by = p1.x, p1.y
    cx, cy = p2.x, p2.y
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise ParameterError("collinear points have no circumcircle")
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return PlanePoint(ux, uy), math.hypot(ax - ux, ay - uy)


def fit_circular_arc(poly: PlanePolyline, collinear_tol: float = 1e-12) -> ArcFit:
    """Arc fit of a projected curve.

    Primary fit: the circle through the two endpoints and the sample of
    maximum deviation (the draftsman's construction; unconditionally
    stable). A least-squares refinement over all samples is reported in the
    ``ls_*`` fields. Input whose sagitta/chord falls below ``collinear_tol``
    is flagged as collinear with infinite radius.
    """
    points = poly.single_segment
    if len(points) < 3:
        raise ParameterError(f"need at least 3 points, got {len(points)}")
    xy = _xy(points)
    chord, dev = _deviations(xy)
    peak = int(dev.argmax())
    sagitta = float(dev[peak])
    if sagitta / chord < collinear_tol:
        return ArcFit(
            center=None, radius=math.inf, max_residual=sagitta,
            chord=chord, sagitta=sagitta, collinear=True,
        )
    center, radius = _circle_through(points[0], points[peak], points[-1])
    radii = np.hypot(xy[:, 0] - center.x, xy[:, 1] - center.y)
    max_residual = float(np.abs(radii - radius).max())

    # algebraic least-squares refinement: 2*cx*x + 2*cy*y + c = x^2 + y^2
    design = np.column_stack([2.0 * xy[:, 0], 2.0 * xy[:, 1], np.ones(len(xy))])
    rhs = (xy**2).sum(axis=1)
    (lx, ly, lc), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    ls_radius = math.sqrt(max(lx * lx + ly * ly + lc, 0.0))
    ls_radii = np.hypot(xy[:, 0] - lx, xy[:, 1] - ly)
    return ArcFit(
        center=center, radius=radius, max_residual=max_residual,
        chord=chord, sagitta=sagitta,
        ls_center=PlanePoint(float(lx), float(ly)),
        ls_radius=float(ls_radius),
        ls_max_residual=float(np.abs(ls_radii - ls_radius).max()),
    )

"""Local distortion analysis.

Scale along meridians (h) and parallels (k), the angle between their images,
Tissot semi-axes, and grid scans that report how far a projection is from the
four classical desiderata: straight meridians (P1), true meridian scale (P2),
right-angle graticule crossings (P3), and the true longitude-degree to
latitude-degree ratio (P4).

Everything is measured on the unit sphere, so "no distortion" means scale
exactly 1. The Jacobian is taken by finite differences (central, one-sided
next to the tear, on the side ``_offsets`` puts the sample) of the float
kernel ``_xy(lat, lon)``, at the fixed step :data:`STEP` of 1e-6 rad, shrunk
once to 1e-7 rad where the stencil leaves the domain. The sample's own image
is part of every stencil, so a point the kernel excludes on its own raises
the kernel's error, as ``forward`` does. A new projection needs only its
forward map: either the kernel, or just ``forward``, which the base class's
fallback kernel calls.
Analytic derivatives appear solely as test oracles. The sample loops run on
bare floats; the public functions wrap the results in their types.

A grid (:func:`distortion_grid`, :func:`euler_property_report`) is evaluated
by one routine, with the same results as sample by sample: the central
stencils and the samples' own images come from the family's grid kernel
(``_rows``) in two calls, and P1's meridians from ``_columns``. Samples at
the edges (near a pole or the cut, or where an image leaves the domain) take
the full routine with its one-sided rule and step shrink. A grid of more than
:data:`MAX_SAMPLES` samples is refused before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import DomainError, ParameterError
from .geo import (
    HALF_PI, MAX_SAMPLES, PI, GeoCoord, GeoRegion, _canonical, _clamp, _fmt, _slot_setters,
    linspace, wrap_longitude,
)
from .geodesics import _deviations
from .projections import Projection

STEP = 1e-6


@dataclass(frozen=True, slots=True, init=False)
class DistortionSample:
    """Local distortion at one point.

    h, k: scale along the meridian / the parallel; theta_prime: angle between
    their images; a, b: Tissot semi-axes (extreme local scales); omega:
    maximum angular deformation; s: area scale h*k*sin(theta_prime).
    """

    h: float
    k: float
    theta_prime: float
    a: float
    b: float
    omega: float
    s: float

    def __init__(self, h: float, k: float, theta_prime: float, a: float, b: float,
                 omega: float, s: float):
        _set_h(self, h)
        _set_k(self, k)
        _set_theta_prime(self, theta_prime)
        _set_a(self, a)
        _set_b(self, b)
        _set_omega(self, omega)
        _set_s(self, s)


_set_h, _set_k, _set_theta_prime, _set_a, _set_b, _set_omega, _set_s = _slot_setters(
    DistortionSample)


@dataclass(frozen=True)
class PropertyReport:
    """Maximum violation of each desideratum over a sampled region.

    p1: meridian-image bending (sagitta/chord); p2: max |h - 1|;
    p3: max |theta_prime - pi/2|; p4: max relative error of the map's
    parallel-degree to meridian-degree ratio against the sphere's cos(lat),
    which reduces to max |k/h - 1|. The four maxima alone make the value.
    """

    p1: float
    p2: float
    p3: float
    p4: float

    @property
    def worst_metric(self) -> float:
        """Largest of the scale/angle/ratio violations (P2, P3, P4)."""
        return max(self.p2, self.p3, self.p4)


@dataclass(frozen=True)
class FieldRange:
    min_value: float
    max_value: float
    argmin: GeoCoord
    argmax: GeoCoord


def _jacobian(proj: Projection, lat: float, lon: float):
    """(dx/dlat, dx/dlon, dy/dlat, dy/dlon) of the kernel of ``proj`` at
    canonical floats; see :func:`local_jacobian`. Neighbours take a GeoCoord's
    canonical form, as a step can cross a pole or the seam; without a tear
    ``_offsets`` puts every sample at offset 0. The sample is projected too,
    so that the kernel's own error rejects a point it excludes on its own."""
    xy, (u,) = proj._xy, proj._offsets((lon,))
    last_error: DomainError | None = None
    for s in (STEP, 0.1 * STEP):
        if math.pi - abs(u) < 2.0 * s:
            # a sample at offset pi, on the east edge, maps with its western neighbours
            side = -s if u > 0.0 else s
            at = ((lat + s, lon), (lat - s, lon), (lat, lon), (lat, lon + side),
                  (lat, lon + 2.0 * side))
        else:
            at = ((lat + s, lon), (lat - s, lon), (lat, lon + s), (lat, lon - s))
        try:
            f = [
                xy(p, q) if -HALF_PI < p < HALF_PI and -PI < q <= PI else xy(*_canonical(p, q))
                for p, q in at
            ]
        except DomainError as exc:
            last_error = exc
            continue
        xy(lat, lon)
        inv = 0.5 / s
        (x_n, y_n), (x_s, y_s), *along = f
        if len(along) == 3:
            (x_0, y_0), (x_1, y_1), (x_2, y_2) = along
            d_lon_x = (-3.0 * x_0 + 4.0 * x_1 - x_2) / (2.0 * side)
            d_lon_y = (-3.0 * y_0 + 4.0 * y_1 - y_2) / (2.0 * side)
        else:
            (x_e, y_e), (x_w, y_w) = along
            d_lon_x = (x_e - x_w) * inv
            d_lon_y = (y_e - y_w) * inv
        return (x_n - x_s) * inv, d_lon_x, (y_n - y_s) * inv, d_lon_y
    raise DomainError(
        f"finite-difference neighborhood of {GeoCoord(lat, lon).describe()} "
        f"leaves the domain: {last_error}"
    )


def local_jacobian(proj: Projection, c: GeoCoord
                   ) -> tuple[tuple[float, float], tuple[float, float]]:
    """2x2 matrix with columns d(x,y)/dlat and d(x,y)/dlon, as the rows
    ``((dx/dlat, dx/dlon), (dy/dlat, dy/dlon))``, by central differences.
    Within 2 steps of the tear the longitude derivative is one-sided,
    (-3 f0 + 4 f1 - f2) / 2s, inward from the edge the projection's
    ``_offsets`` put the sample on, so the stencil never spans the tear. If the
    step neighborhood leaves the domain the step is shrunk once (by 10x) before
    giving up. A point the kernel excludes on its own, though its stencil lies
    in the domain, raises the kernel's own ``DomainError``, as ``forward``
    does."""
    xp, xl, yp, yl = _jacobian(proj, c.lat, c.lon)
    return (xp, xl), (yp, yl)


def _tissot(proj: Projection, lat: float, lon: float) -> tuple[float, ...]:
    """The fields of :class:`DistortionSample`, in order, at canonical floats."""
    if abs(lat) >= HALF_PI - 1e-12:
        raise DomainError("parallel scale is undefined at the poles")
    return _fields(lat, lon, *_jacobian(proj, lat, lon))


def _fields(lat: float, lon: float, xp: float, xl: float, yp: float, yl: float
            ) -> tuple[float, ...]:
    """The fields of :class:`DistortionSample` from the Jacobian at (lat, lon)."""
    cos_lat = math.cos(lat)
    xl, yl = xl / cos_lat, yl / cos_lat
    h = math.hypot(xp, yp)
    k = math.hypot(xl, yl)
    if h <= 0.0 or k <= 0.0:
        raise DomainError(f"degenerate Jacobian at {GeoCoord(lat, lon).describe()}")
    cos_theta = (xp * xl + yp * yl) / (h * k)
    theta_prime = math.acos(_clamp(cos_theta, -1.0, 1.0))
    q = math.hypot(xp + yl, yp - xl)
    r = math.hypot(xp - yl, yp + xl)
    # min(q, r) / max(q, r) by the builtins' own rule, NaN included
    omega = 2.0 * math.asin((r if r < q else q) / (r if r > q else q))
    return h, k, theta_prime, 0.5 * (q + r), 0.5 * abs(q - r), omega, h * k * math.sin(theta_prime)


def tissot(proj: Projection, c: GeoCoord) -> DistortionSample:
    """Scale factors and Tissot ellipse at a point.

    The Jacobian columns are normalized by the sphere's metric (1 along
    meridians, cos(lat) along parallels), so h, k, a, b are pure local scale
    ratios and a*b is the area scale. The semi-axes are the closed-form
    singular values of that 2x2 matrix [[xp, xl], [yp, yl]]: with
    q = |(xp + yl, yp - xl)| and r = |(xp - yl, yp + xl)|, a = (q + r)/2,
    b = |q - r|/2 and sin(omega/2) = min(q, r)/max(q, r), which holds for a
    mirror-image Jacobian too and has no cancellation near a conformal point.
    A point the kernel excludes on its own, though its stencil lies in the
    domain, raises the kernel's own ``DomainError``, as ``forward`` does.
    """
    return DistortionSample(*_tissot(proj, c.lat, c.lon))


def _grid_axes(region: GeoRegion, nlat: int, nlon: int) -> tuple[list[float], list[float]]:
    """The grid's latitudes and wrapped longitudes. A region's latitudes lie
    in [-90°, 90°] and its longitudes are finite, so (lat, wrapped lon) is a
    grid point's canonical form off the poles, where _tissot raises before
    reading the longitude."""
    if nlat < 3 or nlon < 3:
        raise ParameterError(f"grid must be at least 3x3, got {nlat}x{nlon}")
    if nlat * nlon > MAX_SAMPLES:
        raise ParameterError(
            f"grid of {nlat}x{nlon} = {nlat * nlon} samples exceeds the cap of "
            f"{MAX_SAMPLES} samples"
        )
    return (linspace(region.lat_lo, region.lat_hi, nlat),
            [wrap_longitude(lon) for lon in linspace(region.lon_lo, region.lon_hi, nlon)])


def _grid(proj: Projection, lats: list[float], lons: list[float]):
    """The :func:`_tissot` fields at each point of the grid ``lats`` x
    ``lons`` (canonical floats), latitude-major, to the bit.

    A sample whose stencil stays off the poles and 2 steps from the cut
    takes _jacobian's central stencil on the neighbours _jacobian takes, from
    two ``_rows`` calls: the north and south rows at the centre columns, the
    centre rows at the east, centre and west columns. Every other sample runs
    _tissot, as does one with an image outside the domain, its own or a
    neighbour's, so a point the kernel excludes on its own raises the
    kernel's error. A degenerate Jacobian raises as in _tissot.
    """
    s, inv = STEP, 0.5 / STEP
    inner = [i for i, lat in enumerate(lats) if -HALF_PI < lat - s and lat + s < HALF_PI]
    offsets = proj._offsets(lons)
    centre = [j for j, u in enumerate(offsets) if math.pi - abs(u) >= 2.0 * s]
    north_south = proj._rows([p for i in inner for p in (lats[i] + s, lats[i] - s)],
                             [lons[j] for j in centre])
    east_west = proj._rows([lats[i] for i in inner], [
        q for j in centre
        for q in (wrap_longitude(lons[j] + s), lons[j], wrap_longitude(lons[j] - s))
    ])
    rows = dict(zip(inner, zip(north_south[0::2], north_south[1::2], east_west)))
    columns = {j: b for b, j in enumerate(centre)}
    for i, lat in enumerate(lats):
        row = rows.get(i)
        if row is not None:
            (xn, yn, north), (xs, ys, south), (xm, ym, mid) = row
            xe, xw, ye, yw = xm[0::3], xm[2::3], ym[0::3], ym[2::3]
            # the centre columns with an image outside the domain
            holes = {*north, *south, *(h // 3 for h in mid)}
        for j, lon in enumerate(lons):
            b = columns.get(j)
            if row is None or b is None or b in holes:
                yield _tissot(proj, lat, lon)
            else:
                yield _fields(lat, lon, (xn[b] - xs[b]) * inv, (xe[b] - xw[b]) * inv,
                              (yn[b] - ys[b]) * inv, (ye[b] - yw[b]) * inv)


def distortion_grid(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int
) -> list[tuple[GeoCoord, DistortionSample]]:
    """Distortion samples on a regular grid, latitude-major order."""
    lats, lons = _grid_axes(region, nlat, nlon)
    return [
        (GeoCoord(lat, lon), DistortionSample(*fields))
        for (lat, lon), fields in zip(product(lats, lons), _grid(proj, lats, lons))
    ]


def euler_property_report(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int
) -> PropertyReport:
    """Maximum violations of the four desiderata over a sampled grid.

    No projection can bring P2, P3 and P4 to zero at once over a band of
    positive latitude extent; the report quantifies which combination the
    family sacrifices.
    """
    lats, lons = _grid_axes(region, nlat, nlon)
    # running maxima as max(p, e) would give them: e replaces p only when larger
    p2 = p3 = p4 = 0.0
    for h, k, theta_prime, *_ in _grid(proj, lats, lons):
        e = abs(h - 1.0)
        if e > p2:
            p2 = e
        e = abs(theta_prime - HALF_PI)
        if e > p3:
            p3 = e
        e = abs(k / h - 1.0)
        if e > p4:
            p4 = e
    p1 = 0.0
    for xs, ys, _ in proj._columns(lats, lons):
        chord, dev = _deviations(xs, ys)
        e = max(dev) / chord
        if e > p1:
            p1 = e
    return PropertyReport(p1=p1, p2=p2, p3=p3, p4=p4)


_SCAN_FIELDS = ("h", "k", "theta_prime", "a", "b", "omega", "s")


def max_distortion_scan(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int
) -> dict[str, FieldRange]:
    """Per-field extremes of the distortion sample over a grid, with argmin
    and argmax locations. Ties keep the earliest grid point (latitude-major),
    so results are deterministic."""
    rows = distortion_grid(proj, region, nlat, nlon)
    result: dict[str, FieldRange] = {}
    for field in _SCAN_FIELDS:
        values = [getattr(sample, field) for _, sample in rows]
        # min and max keep the first of equal keys: the earliest grid point
        lo = min(range(len(rows)), key=values.__getitem__)
        hi = max(range(len(rows)), key=values.__getitem__)
        result[field] = FieldRange(values[lo], values[hi], rows[lo][0], rows[hi][0])
    return result


def grid_to_csv(rows: list[tuple[GeoCoord, DistortionSample]]) -> str:
    """CSV rendering of a distortion grid; angles in degrees, scales raw.
    No field is ever quoted: every one is a formatted number. Each distinct
    latitude and longitude is formatted once, by _fmt; the rest are >= +0."""
    degrees = math.degrees
    lats = {lat: _fmt(degrees(lat)) for lat in {c.lat for c, _ in rows}}
    lons = {lon: _fmt(degrees(lon)) for lon in {c.lon for c, _ in rows}}
    lines = ["lat_deg,lon_deg,h,k,theta_prime_deg,a,b,omega_deg,s"]
    lines += [
        "%s,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g" % (
            lats[c.lat], lons[c.lon], d.h, d.k, degrees(d.theta_prime),
            d.a, d.b, degrees(d.omega), d.s,
        )
        for c, d in rows
    ]
    return "\n".join(lines) + "\n"

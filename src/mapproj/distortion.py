"""Local distortion analysis.

Scale along meridians (h) and parallels (k), the angle between their images,
Tissot semi-axes, and grid scans that report how far a projection is from the
four classical desiderata: straight meridians (P1), true meridian scale (P2),
right-angle graticule crossings (P3), and the true longitude-degree to
latitude-degree ratio (P4).

Everything is measured on the unit sphere, so "no distortion" means scale
exactly 1. The Jacobian is taken by finite differences (central, one-sided
next to the antimeridian tear) so that a new projection only needs a forward
map; analytic derivatives appear solely as test oracles.
"""

from __future__ import annotations

import io
import math
import csv
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .geo import HALF_PI, GeoCoord, GeoRegion, wrap_longitude
from .geodesics import PlanePolyline, straightness
from .projections import Projection

DEFAULT_STEP = 1e-6


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PropertyReport:
    """Maximum violation of each desideratum over a sampled region.

    p1: meridian-image bending (sagitta/chord); p2: max |h - 1|;
    p3: max |theta_prime - pi/2|; p4: max relative error of the map's
    parallel-degree to meridian-degree ratio against the sphere's cos(lat),
    which reduces to max |k/h - 1|.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    region: GeoRegion
    nlat: int
    nlon: int

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


def local_jacobian(proj: Projection, c: GeoCoord, step: float = DEFAULT_STEP) -> np.ndarray:
    """2x2 matrix with columns d(x,y)/dlat and d(x,y)/dlon, by central
    differences. Within 2 steps of the antimeridian tear the longitude
    derivative is one-sided, (-3 f0 + 4 f1 - f2) / 2s, on the side the
    sample's own image belongs to, so the stencil never spans the tear. If
    the step neighborhood leaves the domain the step is shrunk once (by 10x)
    before giving up."""
    cut = proj.cut_longitude
    to_cut = math.inf if cut is None else wrap_longitude(c.lon - cut)
    last_error: DomainError | None = None
    for s in (step, 0.1 * step):
        inv = 0.5 / s
        try:
            f_n = proj.forward(GeoCoord(c.lat + s, c.lon))
            f_s = proj.forward(GeoCoord(c.lat - s, c.lon))
            if abs(to_cut) < 2.0 * s:
                # a sample on the cut maps with its western neighbours
                side = s if to_cut > 0.0 else -s
                f_0 = proj.forward(c)
                f_1 = proj.forward(GeoCoord(c.lat, c.lon + side))
                f_2 = proj.forward(GeoCoord(c.lat, c.lon + 2.0 * side))
                d_lon_x = (-3.0 * f_0.x + 4.0 * f_1.x - f_2.x) / (2.0 * side)
                d_lon_y = (-3.0 * f_0.y + 4.0 * f_1.y - f_2.y) / (2.0 * side)
            else:
                f_e = proj.forward(GeoCoord(c.lat, c.lon + s))
                f_w = proj.forward(GeoCoord(c.lat, c.lon - s))
                d_lon_x = (f_e.x - f_w.x) * inv
                d_lon_y = (f_e.y - f_w.y) * inv
        except DomainError as exc:
            last_error = exc
            continue
        return np.array(
            [
                [(f_n.x - f_s.x) * inv, d_lon_x],
                [(f_n.y - f_s.y) * inv, d_lon_y],
            ]
        )
    raise DomainError(
        f"finite-difference neighborhood of {c.describe()} leaves the domain: {last_error}"
    )


def tissot(proj: Projection, c: GeoCoord, step: float = DEFAULT_STEP) -> DistortionSample:
    """Scale factors and Tissot ellipse at a point.

    The Jacobian columns are normalized by the sphere's metric (1 along
    meridians, cos(lat) along parallels), so h, k, a, b are pure local scale
    ratios and a*b is the area scale. The semi-axes are the closed-form
    singular values of that 2x2 matrix [[xp, xl], [yp, yl]]: with
    q = |(xp + yl, yp - xl)| and r = |(xp - yl, yp + xl)|, a = (q + r)/2,
    b = |q - r|/2 and sin(omega/2) = min(q, r)/max(q, r), which holds for a
    mirror-image Jacobian too and has no cancellation near a conformal point.
    """
    if abs(c.lat) >= HALF_PI - 1e-12:
        raise DomainError("parallel scale is undefined at the poles")
    (xp, xl), (yp, yl) = local_jacobian(proj, c, step).tolist()
    cos_lat = math.cos(c.lat)
    xl, yl = xl / cos_lat, yl / cos_lat
    h = math.hypot(xp, yp)
    k = math.hypot(xl, yl)
    if h <= 0.0 or k <= 0.0:
        raise DomainError(f"degenerate Jacobian at {c.describe()}")
    cos_theta = (xp * xl + yp * yl) / (h * k)
    theta_prime = math.acos(max(-1.0, min(1.0, cos_theta)))
    q = math.hypot(xp + yl, yp - xl)
    r = math.hypot(xp - yl, yp + xl)
    omega = 2.0 * math.asin(min(q, r) / max(q, r))
    return DistortionSample(
        h=h, k=k, theta_prime=theta_prime, a=0.5 * (q + r), b=0.5 * abs(q - r), omega=omega,
        s=h * k * math.sin(theta_prime),
    )


def _grid_axes(region: GeoRegion, nlat: int, nlon: int) -> tuple[np.ndarray, np.ndarray]:
    if nlat < 3 or nlon < 3:
        raise ParameterError(f"grid must be at least 3x3, got {nlat}x{nlon}")
    return (
        np.linspace(region.lat_lo, region.lat_hi, nlat),
        np.linspace(region.lon_lo, region.lon_hi, nlon),
    )


def distortion_grid(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int, step: float = DEFAULT_STEP
) -> list[tuple[GeoCoord, DistortionSample]]:
    """Distortion samples on a regular grid, latitude-major order."""
    lats, lons = _grid_axes(region, nlat, nlon)
    return [
        (c, tissot(proj, c, step))
        for lat in lats
        for lon in lons
        for c in (GeoCoord(lat, lon),)
    ]


def euler_property_report(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int, step: float = DEFAULT_STEP
) -> PropertyReport:
    """Maximum violations of the four desiderata over a sampled grid.

    No projection can bring P2, P3 and P4 to zero at once over a band of
    positive latitude extent; the report quantifies which combination the
    family sacrifices.
    """
    lats, lons = _grid_axes(region, nlat, nlon)
    p2 = p3 = p4 = 0.0
    for lat in lats:
        for lon in lons:
            sample = tissot(proj, GeoCoord(lat, lon), step)
            p2 = max(p2, abs(sample.h - 1.0))
            p3 = max(p3, abs(sample.theta_prime - HALF_PI))
            p4 = max(p4, abs(sample.k / sample.h - 1.0))
    p1 = 0.0
    for lon in lons:
        image = tuple(proj.forward(GeoCoord(lat, lon)) for lat in lats)
        report = straightness(PlanePolyline((image,)))
        p1 = max(p1, report.ratio)
    return PropertyReport(p1=p1, p2=p2, p3=p3, p4=p4, region=region, nlat=nlat, nlon=nlon)


_SCAN_FIELDS = ("h", "k", "theta_prime", "a", "b", "omega", "s")


def max_distortion_scan(
    proj: Projection, region: GeoRegion, nlat: int, nlon: int, step: float = DEFAULT_STEP
) -> dict[str, FieldRange]:
    """Per-field extremes of the distortion sample over a grid, with argmin
    and argmax locations. Ties keep the earliest grid point (latitude-major),
    so results are deterministic."""
    rows = distortion_grid(proj, region, nlat, nlon, step)
    result: dict[str, FieldRange] = {}
    for field in _SCAN_FIELDS:
        lo_c, lo_v = rows[0][0], getattr(rows[0][1], field)
        hi_c, hi_v = rows[0][0], getattr(rows[0][1], field)
        for c, sample in rows[1:]:
            v = getattr(sample, field)
            if v < lo_v:
                lo_c, lo_v = c, v
            if v > hi_v:
                hi_c, hi_v = c, v
        result[field] = FieldRange(min_value=lo_v, max_value=hi_v, argmin=lo_c, argmax=hi_c)
    return result


def grid_to_csv(rows: list[tuple[GeoCoord, DistortionSample]]) -> str:
    """CSV rendering of a distortion grid; angles in degrees, scales raw."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["lat_deg", "lon_deg", "h", "k", "theta_prime_deg", "a", "b", "omega_deg", "s"]
    )
    for c, sample in rows:
        writer.writerow(
            [
                f"{c.lat_deg:.6f}",
                f"{c.lon_deg:.6f}",
                f"{sample.h:.12g}",
                f"{sample.k:.12g}",
                f"{math.degrees(sample.theta_prime):.12g}",
                f"{sample.a:.12g}",
                f"{sample.b:.12g}",
                f"{math.degrees(sample.omega):.12g}",
                f"{sample.s:.12g}",
            ]
        )
    return out.getvalue()

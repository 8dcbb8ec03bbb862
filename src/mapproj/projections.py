"""Sphere-to-plane projection families: forward and inverse maps.

Eleven families are implemented, each a frozen dataclass with ``forward`` and
``inverse`` methods:

* cylindrical-like: Equirectangular, Mercator, LambertCylindricalEqualArea
* azimuthal: Stereographic, Gnomonic, CentralOnTangentPlane, Orthographic,
  LambertAzimuthalEqualArea
* conic: EquidistantConic (the Delisle layout), LambertConformalConic
* cordiform: Werner

Families that share geometry share a base: ``_Azimuthal``; ``_Meridional``
for the rest, which holds the central meridian ``lon0`` and the tear at its
antimeridian; under it ``_Separable``, placed by one level per parallel and
one offset per meridian: ``_Cylindrical`` for the three cylindrical families
and ``_Conic`` for the two conics, whose southern aspect signs the cone.
Each field is declared once, on the class that introduces or re-defaults it.
Each family writes its forward formula once, as the private float kernel
``_xy(lat, lon) -> (x, y)``; ``Projection.forward`` wraps it, and curve
projection and the edge samples of distortion analysis call it directly.
A grid of latitudes by longitudes has one kernel per family, ``_rows`` and
``_columns``: its curves of constant latitude or longitude, with holes
where ``_xy`` raises. The base class calls ``_xy`` per sample; the
separable families take each parallel's ``_level`` (ordinate or radius)
once per latitude and each meridian's work once per longitude; the
azimuthal families take the sine and cosine of each axis value once, and
mark a hole where the arc distance reaches the family's ``_limit``,
without raising; where that limit is a horizon, a sample beyond it is a
hole by one comparison.

Plane conventions: x east, y north on the central meridian; map units are
unit-sphere radians. A conic's apex sits at y = rho_ref, above the map (below
in a southern aspect). Azimuthal families take an arbitrary ``center`` (the
tangent point); their plane axes follow east/north at the center, except at
the poles, where every direction is north/south and the axes instead point
toward longitudes 0 and 90E.
Oblique aspects therefore need no per-family formulas: the radial law
``(k, f, m, f_inv)`` is applied to the arc distance from the center.

All parameters are radians; :func:`parse_projection` builds a projection from
a degree-based plain-text spec string (grammar in its docstring).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import ClassVar

from .errors import DomainError, MapError, ParameterError
from .geo import (
    HALF_PI,
    NORTH_POLE,
    SOUTH_POLE,
    GeoCoord,
    _clamp,
    _fmt,
    _slot_setters,
    wrap_longitude,
)

# conic radii at or below this are treated as beyond the apex
RHO_MIN = 1e-9
# an azimuthal grid sample whose dot product with the center falls this far
# below cos(_limit) is a hole before its arc distance is taken; dot and the
# norm of (p.e, p.n) carry a few ulps of rounding, so the exact test rejects it too
FAR_SIDE_MARGIN = 1e-9
# the azimuthal inverse caps its arc distance this far below _limit
LIMIT_MARGIN = 1e-15


class UnknownFamilyError(ParameterError):
    """Projection family name not recognized; message lists valid names."""


@dataclass(frozen=True, slots=True, init=False)
class PlanePoint:
    """Euclidean image coordinates, in unit-sphere radians of map length."""

    x: float
    y: float

    def __init__(self, x: float, y: float):
        _set_x(self, x)
        _set_y(self, y)

    def __iter__(self):
        yield self.x
        yield self.y

    def describe(self) -> str:
        """``(x, y)`` to 9 significant digits, for error messages."""
        return f"({_fmt(self.x, '.9g')}, {_fmt(self.y, '.9g')})"


_set_x, _set_y = _slot_setters(PlanePoint)


class Projection:
    """Base interface: a forward map into the plane and its inverse.

    A subclass implements ``_xy(lat, lon) -> (x, y)`` on the floats a
    :class:`GeoCoord` stores, raising ``DomainError`` outside its domain, or
    overrides ``forward`` alone, which the fallback ``_xy`` then calls.
    Instances are immutable. On a family that inherits its frozen dataclass
    methods from a base, those reject only the fields and pass any other name
    on to ``__setattr__`` and ``__delattr__`` here, which reject it too.
    """

    family: ClassVar[str] = ""

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def forward(self, c: GeoCoord) -> PlanePoint:
        x, y = self._xy(c.lat, c.lon)
        return PlanePoint(x, y)

    def _xy(self, lat: float, lon: float) -> tuple[float, float]:
        if type(self).forward is Projection.forward:
            raise NotImplementedError(f"{type(self).__name__} defines neither _xy nor forward")
        p = self.forward(GeoCoord(lat, lon))
        return p.x, p.y

    def _rows(self, lats, lons) -> list[tuple[list, list, list[int]]]:
        """The images of the grid ``lats`` x ``lons`` (float sequences), one
        latitude at a time. Each curve is ``(xs, ys, holes)``: float lists
        with None at the samples where ``_xy`` raises ``DomainError``, and
        the indices of those samples. Curves may share lists, which callers
        only read. A base that overrides the grid methods gives the same
        floats from the axes."""
        return [self._curve(repeat(lat), lons) for lat in lats]

    def _columns(self, lats, lons) -> list[tuple[list, list, list[int]]]:
        """The images of the grid ``lats`` x ``lons`` one longitude at a
        time, as :meth:`_rows` gives them."""
        return [self._curve(lats, repeat(lon)) for lon in lons]

    def _curve(self, lats, lons) -> tuple[list, list, list[int]]:
        """The curve through the points ``zip(lats, lons)``, ``_xy`` per
        sample, as :meth:`_rows` gives a curve."""
        xy = self._xy
        xs, ys, holes = [], [], []
        for j, (lat, lon) in enumerate(zip(lats, lons)):
            try:
                x, y = xy(lat, lon)
            except DomainError:
                x = y = None
                holes.append(j)
            xs.append(x)
            ys.append(y)
        return xs, ys, holes

    def inverse(self, p: PlanePoint) -> GeoCoord:
        raise NotImplementedError

    @property
    def cut_longitude(self) -> float | None:
        """Longitude of the antimeridian tear, or None for azimuthal families."""
        return None

    def _offsets(self, lons) -> list[float]:
        """Each longitude's offset from the central meridian, in (-pi, pi], as
        the kernel wraps it (0.0 without a tear); here from cut_longitude."""
        if self.cut_longitude is None:
            return [0.0] * len(lons)
        centre = wrap_longitude(self.cut_longitude + math.pi)
        return [wrap_longitude(lon - centre) for lon in lons]


class _OutOfDomain(DomainError):
    """A kernel's rejection of ``(lat, lon)``; the message is formatted only
    when read, since curve projection rejects many samples and reads one."""

    def __str__(self) -> str:
        proj, lat, lon, why = self.args
        return f"{GeoCoord(lat, lon).describe()} outside {proj.family} domain: {why}"


class _Meridional(Projection):
    """Base of the families laid out about a central meridian ``lon0``,
    declared by the dataclass under it: lon0 is wrapped once on
    construction, and the map tears along its antimeridian, where
    ``_offsets``, the kernels' wrap of lon - lon0, jumps."""

    def __post_init__(self):
        if not math.isfinite(self.lon0):
            raise ParameterError("central meridian lon0 must be finite")
        object.__setattr__(self, "lon0", wrap_longitude(float(self.lon0)))

    @cached_property
    def cut_longitude(self) -> float:
        return wrap_longitude(self.lon0 + math.pi)

    def _offsets(self, lons) -> list[float]:
        return [wrap_longitude(lon - self.lon0) for lon in lons]


class _Separable(_Meridional):
    """Base of the families whose graticule is separable: the parallel lat
    lies at one level, ``_level(lat, lon)`` (its ordinate or radius; it
    raises ``_OutOfDomain``, naming the point, where the domain ends), and
    each meridian at one offset from lon0. The grid methods take each level
    once and leave the placing to two hooks: ``_parallels(offsets)`` returns
    a function from a parallel's level to its curve's ``(xs, ys)``, and
    ``_meridian(levels, offset)`` gives a meridian's as new lists, which
    ``_columns`` marks with the holes (levels 0.0) of the parallels outside
    the domain."""

    def _profile(self, lat: float) -> float | None:
        """The ``_level`` of the parallel lat, or None outside the domain."""
        try:
            return self._level(lat, 0.0)
        except DomainError:
            return None

    def _rows(self, lats, lons):
        offsets = self._offsets(lons)
        place, k = self._parallels(offsets), len(offsets)
        return [([None] * k, [None] * k, list(range(k))) if level is None else (*place(level), [])
                for level in map(self._profile, lats)]

    def _columns(self, lats, lons):
        levels = list(map(self._profile, lats))
        holes = [i for i, level in enumerate(levels) if level is None]
        levels = [0.0 if level is None else level for level in levels]
        columns = []
        for u in self._offsets(lons):
            xs, ys = self._meridian(levels, u)
            for i in holes:
                xs[i] = ys[i] = None
            columns.append((xs, ys, holes))
        return columns


# ---------------------------------------------------------------------------
# azimuthal families


@dataclass(frozen=True)
class _Azimuthal(Projection):
    """Shared machinery: a point p has components a, b = p.e, p.n along east
    and north at the center (both orthogonal to it, so no tangent vector is
    formed) and its image is (a, b) scaled by r(c) / hypot(a, b), the radial
    profile at the arc distance c = atan2(hypot(a, b), p.center). A family
    is data alone: ``_radial_law = (k, f, m, f_inv)``, a builtin f, its
    inverse and constants with r(c) = k * f(m * c) (a factor 1.0 is exact);
    ``_limit``, the smallest arc distance it excludes, which ``_xy`` rejects
    for the reason ``_excluded``; and ``_rim``, the name of its image.

    ``_xy`` projects one point; the grid methods project each curve from the
    sines and cosines of its axis values, in ``_xy``'s operations and order,
    so both give the same floats. ``inverse`` rejects a radius more than 1e-9
    beyond the rim, inverts the law clamped to the rim, caps the distance
    ``LIMIT_MARGIN`` below ``_limit``, so that forward accepts the point, and
    takes its latitude by atan2, which keeps digits that asin(z) rounds away."""

    center: GeoCoord = NORTH_POLE
    _excluded: ClassVar[str]
    _rim: ClassVar[str]
    _limit: ClassVar[float]
    _radial_law: ClassVar[tuple]

    @cached_property
    def _frame(self) -> tuple[tuple[float, float, float], ...]:
        """Unit vectors of the center and of east and north at it."""
        sin_lat, cos_lat = math.sin(self.center.lat), math.cos(self.center.lat)
        sin_lon, cos_lon = math.sin(self.center.lon), math.cos(self.center.lon)
        if abs(self.center.lat) >= HALF_PI:
            return (0.0, 0.0, sin_lat), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        return ((cos_lat * cos_lon, cos_lat * sin_lon, sin_lat), (-sin_lon, cos_lon, 0.0),
                (-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat))

    def _xy(self, lat: float, lon: float) -> tuple[float, float]:
        (cx, cy, cz), (ex, ey, ez), (nx, ny, nz) = self._frame
        cos_lat = math.cos(lat)
        px, py, pz = cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat)
        dot = px * cx + py * cy + pz * cz
        a, b = px * ex + py * ey + pz * ez, px * nx + py * ny + pz * nz
        tnorm = math.sqrt(a * a + b * b)
        c = math.atan2(tnorm, dot)
        if c >= self._limit:
            raise _OutOfDomain(self, lat, lon, self._excluded)
        if tnorm < 1e-15:
            return 0.0, 0.0
        k, f, m, _ = self._radial_law
        r = k * f(m * c) / tnorm
        return r * a, r * b

    def _rows(self, lats, lons):
        cos_lons, sin_lons = list(map(math.cos, lons)), list(map(math.sin, lons))
        return [self._through(repeat(math.cos(lat)), cos_lons, sin_lons, repeat(math.sin(lat)))
                for lat in lats]

    def _columns(self, lats, lons):
        cos_lats, sin_lats = list(map(math.cos, lats)), list(map(math.sin, lats))
        return [self._through(cos_lats, repeat(math.cos(lon)), repeat(math.sin(lon)), sin_lats)
                for lon in lons]

    def _through(self, scales, us, vs, pzs) -> tuple[list, list, list[int]]:
        """The curve through the unit vectors ``(s * u, s * v, pz)`` for
        ``s, u, v, pz`` in ``zip(scales, us, vs, pzs)``, as
        :meth:`Projection._rows` gives a curve, with the far side cut by
        :data:`FAR_SIDE_MARGIN`."""
        (cx, cy, cz), (ex, ey, ez), (nx, ny, nz) = self._frame
        limit, (k, f, m, _) = self._limit, self._radial_law
        far = math.cos(limit) - FAR_SIDE_MARGIN
        atan2, sqrt = math.atan2, math.sqrt
        xs, ys, holes = [], [], []
        for j, (s, u, v, pz) in enumerate(zip(scales, us, vs, pzs)):
            px, py = s * u, s * v
            dot = px * cx + py * cy + pz * cz
            if dot < far:
                xs.append(None)
                ys.append(None)
                holes.append(j)
                continue
            a, b = px * ex + py * ey + pz * ez, px * nx + py * ny + pz * nz
            tnorm = sqrt(a * a + b * b)
            c = atan2(tnorm, dot)
            if c >= limit:
                x = y = None
                holes.append(j)
            elif tnorm < 1e-15:
                x = y = 0.0
            else:
                r = k * f(m * c) / tnorm
                x, y = r * a, r * b
            xs.append(x)
            ys.append(y)
        return xs, ys, holes

    def inverse(self, p: PlanePoint) -> GeoCoord:
        r = math.hypot(p.x, p.y)
        if not r < math.inf:  # NaN fails too
            raise DomainError(f"no preimage: {p.describe()} is not a finite point")
        k, f, m, f_inv = self._radial_law
        q, q_max = r / k, f(m * self._limit)
        if r > k * q_max + 1e-9:
            raise DomainError(f"no preimage: radius {r:.9g} beyond the {self._rim}")
        if r < 1e-15:
            return GeoCoord(self.center.lat, self.center.lon)
        dist, cap = f_inv(q if q < q_max else q_max) / m, self._limit - LIMIT_MARGIN
        dist = dist if dist < cap else cap
        (cx, cy, cz), (ex, ey, ez), (nx, ny, nz) = self._frame
        dx, dy, dz = (p.x * ex + p.y * nx) / r, (p.x * ey + p.y * ny) / r, (p.x * ez + p.y * nz) / r
        cos_d, sin_d = math.cos(dist), math.sin(dist)
        x, y = cos_d * cx + sin_d * dx, cos_d * cy + sin_d * dy
        return GeoCoord(math.atan2(cos_d * cz + sin_d * dz, math.hypot(x, y)), math.atan2(y, x))


@dataclass(frozen=True)
class Stereographic(_Azimuthal):
    """Projection from the antipode of ``center`` onto the tangent plane at
    ``center``; conformal, and sends circles on the sphere to plane circles
    or lines. Default aspect: tangent at the south pole, rays from the north
    pole (which is the one excluded point)."""

    center: GeoCoord = SOUTH_POLE
    family: ClassVar[str] = "stereographic"
    _excluded: ClassVar[str] = "the projection source maps to infinity"
    _rim: ClassVar[str] = "stereographic disc"

    _limit: ClassVar[float] = math.pi - 1e-12
    _radial_law: ClassVar[tuple] = (2.0, math.tan, 0.5, math.atan)


@dataclass(frozen=True)
class Gnomonic(_Azimuthal):
    """Projection from the sphere center onto the tangent plane at ``center``;
    valid strictly inside the open hemisphere around the tangent point, and
    sends great-circle arcs to straight lines. Default tangent point: the
    south pole."""

    center: GeoCoord = SOUTH_POLE
    family: ClassVar[str] = "gnomonic"
    _excluded: ClassVar[str] = "on or beyond the horizon of the tangent point"
    _rim: ClassVar[str] = "gnomonic disc"

    _limit: ClassVar[float] = HALF_PI - 1e-12
    _radial_law: ClassVar[tuple] = (1.0, math.tan, 1.0, math.atan)


@dataclass(frozen=True)
class CentralOnTangentPlane(Gnomonic):
    """Central projection onto a configurable tangent plane.

    Mathematically identical to :class:`Gnomonic`; kept as its own family
    because the two names carry distinct historical usage (celestial charts
    vs terrestrial maps). Default tangent point: the north pole.
    """

    center: GeoCoord = NORTH_POLE
    family: ClassVar[str] = "central"


class Orthographic(_Azimuthal):
    """Parallel projection (center of projection at infinity) onto the plane
    through the sphere center perpendicular to ``center``; valid on the
    closed near hemisphere."""

    family: ClassVar[str] = "orthographic"
    _excluded: ClassVar[str] = "on the hidden hemisphere"
    _rim: ClassVar[str] = "orthographic limb"

    _limit: ClassVar[float] = math.nextafter(HALF_PI + 1e-12, math.inf)  # the closed hemisphere
    _radial_law: ClassVar[tuple] = (1.0, math.sin, 1.0, math.asin)


class LambertAzimuthalEqualArea(_Azimuthal):
    """Area-preserving azimuthal map; covers the whole sphere except the
    antipode of the center."""

    family: ClassVar[str] = "lambert_azimuthal_equal_area"
    _excluded: ClassVar[str] = "antipode of the center is excluded"
    _rim: ClassVar[str] = "equal-area disc"

    _limit: ClassVar[float] = math.pi - 1e-12
    _radial_law: ClassVar[tuple] = (2.0, math.sin, 0.5, math.asin)


# ---------------------------------------------------------------------------
# cylindrical-like families


class _Cylindrical(_Separable):
    """Base of the cylindrical families: x = ``_x_scale`` * (lon - lon0),
    wrapped, and y = ``_level(lat, lon)``, the family's profile, which
    depends on lat alone. Its inverse ``_latitude(y)`` raises
    ``DomainError`` on an ordinate without a preimage."""

    def _xy(self, lat: float, lon: float) -> tuple[float, float]:
        return wrap_longitude(lon - self.lon0) * self._x_scale, self._level(lat, lon)

    def _parallels(self, offsets):
        xs = [u * self._x_scale for u in offsets]
        return lambda y: (xs, [y] * len(xs))

    def _meridian(self, levels, offset):
        return [offset * self._x_scale] * len(levels), list(levels)

    def inverse(self, p: PlanePoint) -> GeoCoord:
        lat = self._latitude(p.y)
        dlam = p.x / self._x_scale
        if not abs(dlam) <= math.pi + 1e-9:  # NaN fails too
            raise DomainError(f"no preimage: x = {p.x:.9g} beyond the map width")
        return GeoCoord(lat, self.lon0 + dlam)


@dataclass(frozen=True)
class _StandardParallel(_Cylindrical):
    """Base of the cylindrical families with x = cos(phi0) * (lon - lon0),
    true to scale along the standard parallel ``phi0``; declares both fields."""

    phi0: float = 0.0
    lon0: float = 0.0

    def __post_init__(self):
        if not abs(self.phi0) < HALF_PI:  # NaN fails too
            raise ParameterError("standard parallel must lie strictly between the poles")
        super().__post_init__()

    @cached_property
    def _x_scale(self) -> float:
        return math.cos(self.phi0)


class Equirectangular(_StandardParallel):
    """Straight, evenly spaced meridians and parallels; true scale along all
    meridians and along the standard parallel phi0."""

    family: ClassVar[str] = "equirectangular"

    def _level(self, lat: float, lon: float) -> float:
        return lat

    def _latitude(self, y: float) -> float:
        if not abs(y) <= HALF_PI + 1e-12:  # NaN fails too
            raise DomainError(f"no preimage: |y| = {abs(y):.9g} beyond the pole line")
        return _clamp(y, -HALF_PI, HALF_PI)


@dataclass(frozen=True)
class Mercator(_Cylindrical):
    """Conformal cylindrical map; loxodromes plot as straight lines. The
    poles are at infinite y, so a latitude cutoff bounds the domain."""

    lon0: float = 0.0
    cutoff: float = math.radians(85.0)
    family: ClassVar[str] = "mercator"
    # x is the wrapped longitude itself: multiplying and dividing by 1.0 are exact
    _x_scale: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0.0 < self.cutoff < HALF_PI:
            raise ParameterError(
                f"cutoff {_fmt(math.degrees(self.cutoff), '.4f')}° must lie in (0°, 90°)"
            )
        super().__post_init__()

    def _level(self, lat: float, lon: float) -> float:
        if abs(lat) > self.cutoff:
            raise _OutOfDomain(
                self, lat, lon, f"beyond the ±{math.degrees(self.cutoff):.4f}° cutoff"
            )
        # asinh(tan(lat)) == ln tan(pi/4 + lat/2), but exactly odd in floats
        return math.asinh(math.tan(lat))

    @cached_property
    def _y_max(self) -> float:
        # the cutoff's image, widened by 4 eps for the rounding of an ordinate
        return self._level(self.cutoff, 0.0) * (1 + 4 * sys.float_info.epsilon)

    def _latitude(self, y: float) -> float:
        # one rule: no preimage beyond _y_max, and the rest inverted into
        # [-cutoff, cutoff], which forward accepts; sinh sees |y| < 37 at most
        if not abs(y) <= self._y_max:  # NaN fails too
            raise DomainError(f"no preimage: y = {y:.9g} beyond the latitude cutoff")
        lat = math.atan(math.sinh(y))
        return lat if abs(lat) <= self.cutoff else math.copysign(self.cutoff, lat)


class LambertCylindricalEqualArea(_StandardParallel):
    """Area-preserving cylindrical map, true scale on parallel phi0."""

    family: ClassVar[str] = "lambert_cylindrical_equal_area"

    def _level(self, lat: float, lon: float) -> float:
        return math.sin(lat) / self._x_scale

    def _latitude(self, y: float) -> float:
        sin_lat = y * self._x_scale
        if not abs(sin_lat) <= 1.0 + 1e-9:  # NaN fails too
            raise DomainError(f"no preimage: y = {y:.9g} beyond the pole line")
        return math.asin(_clamp(sin_lat, -1.0, 1.0))


# ---------------------------------------------------------------------------
# conic families


@dataclass(frozen=True, slots=True, init=False)
class ConicConstants:
    """Cone constant n, radius of the reference (inner) parallel, and the
    distance of the meridian convergence point beyond the pole, all for the
    northern-aspect equidistant conic."""

    n: float
    rho_ref: float
    apex_overshoot: float

    def __init__(self, n: float, rho_ref: float, apex_overshoot: float):
        _set_n(self, n)
        _set_rho_ref(self, rho_ref)
        _set_apex_overshoot(self, apex_overshoot)


_set_n, _set_rho_ref, _set_apex_overshoot = _slot_setters(ConicConstants)


def conic_constants(phi_a: float, phi_b: float) -> ConicConstants:
    """Constants for the equidistant conic true at parallels phi_a < phi_b.

    n is fixed by requiring the map ratio of longitude degrees to latitude
    degrees to be exact on both standard parallels while meridian degrees
    keep unit length.
    """
    if not 0.0 < phi_a < phi_b < HALF_PI:
        raise ParameterError(
            "standard parallels must satisfy 0 < phi_a < phi_b < 90° "
            f"(got {_fmt(math.degrees(phi_a), '.4f')}°, {_fmt(math.degrees(phi_b), '.4f')}°)"
        )
    # (cos a - cos b) / (b - a) as a product, which does not cancel as the
    # parallels close up
    gap = phi_b - phi_a
    n = 2.0 * math.sin(0.5 * (phi_a + phi_b)) * math.sin(0.5 * gap) / gap
    rho_ref = math.cos(phi_a) / n
    return ConicConstants(n=n, rho_ref=rho_ref, apex_overshoot=rho_ref - (HALF_PI - phi_a))


@dataclass(frozen=True)
class _Conic(_Separable):
    """Base of the two-standard-parallel conics. Meridians are rays through
    the apex, at y = rho_ref, at angle n * (lon - lon0); parallels are
    circles of radius |rho(lat)| about it. As in Snyder's formulas, n,
    rho_ref and rho carry ``_sign``, -1.0 for a southern aspect (negative
    parallels), which mirrors the northern one in y.

    A family supplies ``_cone`` = (n, rho_ref), signed, and for the
    northern aspect ``_radius(phi, lat, lon)``, the radius of the parallel
    phi (raising on points outside the domain, which it names by lat, lon),
    and ``_latitude(rho)`` (its inverse, raising on radii without a
    preimage).
    """

    phi_a: float
    phi_b: float
    lon0: float = 0.0

    def __post_init__(self):
        phi_a, phi_b = self.phi_a, self.phi_b
        if not (0.0 < abs(phi_a) < HALF_PI and 0.0 < abs(phi_b) < HALF_PI):  # NaN fails too
            raise ParameterError("standard parallels must lie strictly between equator and pole")
        if (phi_a > 0.0) != (phi_b > 0.0):
            raise ParameterError("standard parallels must lie in the same hemisphere")
        if not abs(phi_a) < abs(phi_b):
            raise ParameterError(
                "standard parallels out of order: |phi_a| must be the one nearer the equator"
            )
        super().__post_init__()

    @cached_property
    def _sign(self) -> float:
        return math.copysign(1.0, self.phi_a)

    def _level(self, lat: float, lon: float) -> float:
        """The signed radius of the parallel lat."""
        sign = self._sign
        return sign * self._radius(sign * lat, lat, lon)

    def _xy(self, lat: float, lon: float) -> tuple[float, float]:
        n, rho_ref = self._cone
        rho = self._level(lat, lon)
        theta = n * wrap_longitude(lon - self.lon0)
        return rho * math.sin(theta), rho_ref - rho * math.cos(theta)

    def _parallels(self, offsets):
        n, rho_ref = self._cone
        thetas = [n * u for u in offsets]
        sines, cosines = list(map(math.sin, thetas)), list(map(math.cos, thetas))
        return lambda rho: ([rho * s for s in sines], [rho_ref - rho * c for c in cosines])

    def _meridian(self, levels, offset):
        n, rho_ref = self._cone
        theta = n * offset
        s, c = math.sin(theta), math.cos(theta)
        return [rho * s for rho in levels], [rho_ref - rho * c for rho in levels]

    def inverse(self, p: PlanePoint) -> GeoCoord:
        n, rho_ref = self._cone
        sign = self._sign
        # the northern aspect's offset below the apex; sign * (rho_ref - p.y)
        # would give the apex itself -0.0, which atan2 turns into pi
        dy = sign * rho_ref - sign * p.y
        rho = math.hypot(p.x, dy)
        if not rho < math.inf:  # NaN fails too
            raise DomainError(f"no preimage: {p.describe()} is not a finite point")
        theta = math.atan2(p.x, dy)
        dlam = sign * theta / n
        if abs(dlam) > math.pi + 1e-9:
            raise DomainError(f"no preimage: map angle {theta:.9g} outside the cone wedge")
        return GeoCoord(sign * self._latitude(rho), self.lon0 + dlam)


@dataclass(frozen=True)
class EquidistantConic(_Conic):
    """Two-standard-parallel conic with exactly true meridian scale.

    Meridians are straight rays through the apex, parallels concentric
    circular arcs spaced by their true latitude difference; the longitude
    degree / latitude degree ratio is exact on both standard parallels. The
    apex where the meridian images meet lies beyond the pole. A southern
    aspect (negative parallels) is the northern map mirrored in y.

    ``cutoff``, when set, bounds the poleward latitude the map accepts;
    otherwise the domain runs to where the parallel radius reaches zero.
    """

    cutoff: float | None = None
    family: ClassVar[str] = "equidistant_conic"

    def __post_init__(self):
        super().__post_init__()
        if self.cutoff is not None:
            apex_lat = self._rho_equator - RHO_MIN
            if not abs(self.cutoff) < min(HALF_PI + 1e-12, apex_lat):
                raise ParameterError("cutoff outside the conic's valid domain")

    @cached_property
    def constants(self) -> ConicConstants:
        return conic_constants(abs(self.phi_a), abs(self.phi_b))

    @cached_property
    def _cone(self) -> tuple[float, float]:
        return self._sign * self.constants.n, self._sign * self.constants.rho_ref

    @cached_property
    def _rho_equator(self) -> float:
        """Radius of the equator's image; rho(phi) = _rho_equator - phi."""
        return self.constants.rho_ref + abs(self.phi_a)

    def _radius(self, phi: float, lat: float, lon: float) -> float:
        if self.cutoff is not None and phi > abs(self.cutoff):
            raise _OutOfDomain(
                self, lat, lon, f"beyond the {_fmt(math.degrees(self.cutoff), '.4f')}° cutoff"
            )
        rho = self._rho_equator - phi
        if rho <= RHO_MIN:
            raise _OutOfDomain(self, lat, lon, "at or beyond the cone apex")
        return rho

    def _latitude(self, rho: float) -> float:
        if rho <= RHO_MIN:
            raise DomainError("no preimage: point at or beyond the cone apex")
        lat = self._rho_equator - rho
        if lat < -HALF_PI - 1e-9:
            raise DomainError("no preimage: radius beyond the far pole")
        if self.cutoff is not None and lat > abs(self.cutoff) + 1e-12:
            raise DomainError("no preimage: beyond the latitude cutoff")
        return _clamp(lat, -HALF_PI, HALF_PI)


class LambertConformalConic(_Conic):
    """Conformal conic with true scale on both standard parallels; poles are
    excluded (the near pole is the apex limit, the far one is at infinity).
    A southern aspect is the northern map mirrored in y."""

    family: ClassVar[str] = "lambert_conformal_conic"

    @cached_property
    def _nF(self) -> tuple[float, float, float]:
        pa, pb = abs(self.phi_a), abs(self.phi_b)
        ta = math.tan(0.25 * math.pi + 0.5 * pa)
        tb = math.tan(0.25 * math.pi + 0.5 * pb)
        n = math.log(math.cos(pa) / math.cos(pb)) / math.log(tb / ta)
        f = math.cos(pa) * ta**n / n
        rho_ref = f * ta**-n
        return n, f, rho_ref

    @cached_property
    def _cone(self) -> tuple[float, float]:
        return self._sign * self._nF[0], self._sign * self._nF[2]

    def _radius(self, phi: float, lat: float, lon: float) -> float:
        if abs(phi) >= HALF_PI - 1e-12:
            raise _OutOfDomain(self, lat, lon, "poles are excluded")
        n, f, _ = self._nF
        return f * math.tan(0.25 * math.pi + 0.5 * phi) ** -n

    def _latitude(self, rho: float) -> float:
        n, f, _ = self._nF
        try:
            lat = 2.0 * math.atan((f / rho) ** (1.0 / n)) - HALF_PI
        except (OverflowError, ZeroDivisionError):  # radius 0, or within rounding of the pole's
            lat = HALF_PI
        if abs(lat) >= HALF_PI - 1e-12:  # the pole band _radius rejects
            raise DomainError(f"no preimage: radius {rho:.9g} at the excluded pole")
        return lat


# ---------------------------------------------------------------------------
# cordiform


@dataclass(frozen=True)
class Werner(_Meridional):
    """Heart-shaped map with the pole at the origin: parallels are concentric
    circular arcs at true colatitude radius, and arc length along every
    parallel and along the central meridian is true. Continuous at the pole
    (the limit point for every longitude)."""

    lon0: float = 0.0
    family: ClassVar[str] = "werner"

    def _xy(self, lat: float, lon: float) -> tuple[float, float]:
        r = HALF_PI - lat
        if r < 1e-15:
            return 0.0, 0.0
        theta = wrap_longitude(lon - self.lon0) * math.cos(lat) / r
        return r * math.sin(theta), -r * math.cos(theta)

    def inverse(self, p: PlanePoint) -> GeoCoord:
        r = math.hypot(p.x, p.y)
        if not r < math.inf:  # NaN fails too
            raise DomainError(f"no preimage: {p.describe()} is not a finite point")
        if r < 1e-15:
            return GeoCoord(HALF_PI, 0.0)
        if r > math.pi + 1e-9:
            raise DomainError(f"no preimage: radius {r:.9g} beyond the south pole arc")
        lat = HALF_PI - _clamp(r, 0.0, math.pi)
        # the south pole's image is the tip (0, -pi); the outline check rejects the rest
        if lat <= -HALF_PI + 1e-12 and math.hypot(p.x, p.y + math.pi) <= 1e-9:
            return GeoCoord(-HALF_PI, 0.0)
        theta = math.atan2(p.x, -p.y)
        # tested before dividing: next to a pole cos(lat) is tiny, and the
        # rounding lat carries from r (under 1e-15) would blow the quotient past
        # the bound; times |dlam| <= pi that rounding stays below 4e-15
        cos_lat = math.cos(lat)
        if not abs(theta) * r <= (math.pi + 1e-9) * cos_lat + 4e-15:
            raise DomainError("no preimage: outside the cordiform outline")
        return GeoCoord(lat, self.lon0 + theta * r / cos_lat)


# ---------------------------------------------------------------------------
# plain-text spec strings

FAMILIES: dict[str, type[Projection]] = {
    cls.family: cls
    for cls in (
        Equirectangular,
        Stereographic,
        Gnomonic,
        CentralOnTangentPlane,
        Orthographic,
        Mercator,
        EquidistantConic,
        LambertConformalConic,
        LambertAzimuthalEqualArea,
        LambertCylindricalEqualArea,
        Werner,
    )
}

# spec-string keys that differ from the dataclass field they set
_SPEC_KEYS = {"phi0": "lat0", "phi_a": "lat1", "phi_b": "lat2"}


def parse_projection(text: str) -> Projection:
    """Build a projection from a plain-text spec string.

    Grammar: ``family key=value ...`` with whitespace-separated key=value
    pairs, all angles in decimal degrees. The keys of a family are the
    fields of its class, with ``phi0``, ``phi_a`` and ``phi_b`` spelled
    ``lat0``, ``lat1`` and ``lat2``; fields without a default are required,
    and no key may be given twice. The azimuthal ``center`` is given as
    ``center=LAT,LON``.

    Example: ``"equidistant_conic lat1=45 lat2=60 lon0=90"``.
    """
    tokens = text.split()
    if not tokens:
        raise UnknownFamilyError(
            "empty projection spec; valid families: " + ", ".join(sorted(FAMILIES))
        )
    name, pairs = tokens[0].lower(), tokens[1:]
    if name not in FAMILIES:
        raise UnknownFamilyError(
            f"unknown projection family {name!r}; valid families: "
            + ", ".join(sorted(FAMILIES))
        )
    cls = FAMILIES[name]
    keys = {_SPEC_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    values: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not raw:
            raise ParameterError(f"malformed parameter {pair!r}; expected key=value")
        key = key.lower()
        if key not in keys:
            raise ParameterError(
                f"parameter {key!r} not valid for {name}; allowed: "
                + ", ".join(sorted(keys))
            )
        if keys[key].name in values:
            raise ParameterError(f"parameter {key!r} given twice")
        try:
            if key == "center":
                lat_s, _, lon_s = raw.partition(",")
                values[keys[key].name] = GeoCoord.from_degrees(float(lat_s), float(lon_s or "0"))
            else:
                values[keys[key].name] = math.radians(float(raw))
        except MapError:
            raise
        except ValueError as exc:
            raise ParameterError(f"could not parse value in {pair!r}") from exc

    required = [key for key, f in keys.items() if f.default is dataclasses.MISSING]
    if any(keys[key].name not in values for key in required):
        raise ParameterError(f"{name} requires " + " and ".join(required))
    return cls(**values)

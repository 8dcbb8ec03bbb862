"""Spherical geometry on the unit sphere.

Coordinates, Cartesian embedding, great-circle distance and sampling, and the
side-side-side angle formula for spherical triangles. All angles are radians
internally; degrees appear only at I/O boundaries (``from_degrees`` /
``lat_deg`` style helpers). The sphere has unit radius throughout; a physical
radius is a pure output scale applied at rendering time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AmbiguousGeodesicError,
    DomainError,
    InconsistentTriangleError,
    ParameterError,
)

PI = math.pi
HALF_PI = PI / 2.0
TWO_PI = 2.0 * PI

# arccos arguments this close to [-1, 1] are treated as rounding of a valid
# degenerate configuration rather than an inconsistent one
COS_CLAMP_TOL = 1e-9

# from_unit_vector rejects vectors whose norm is further than this from 1
UNIT_NORM_TOL = 1e-9

# the most samples a great-circle sampling, a graticule or a distortion grid
# may hold; a larger one is refused before any sample is built
MAX_SAMPLES = 10_000_000


def wrap_longitude(lon: float) -> float:
    """Reduce a longitude to the canonical interval (-pi, pi].

    A value already inside is returned as it was passed (``fmod`` would give
    the same float back); NaN or an infinity raises :class:`DomainError`.
    """
    if -PI < lon <= PI:
        return lon
    if not math.isfinite(lon):
        raise DomainError(f"longitude {lon} is not finite")
    lon = math.fmod(lon, TWO_PI)
    if lon <= -PI:
        lon += TWO_PI
    elif lon > PI:
        lon -= TWO_PI
    return lon


def _fmt(v: float, spec: str = ".6f") -> str:
    """``format(v, spec)``, but ``format(0.0, spec)`` for a text that reads as
    zero with a minus sign, so a padded spec keeps its width. Every printed
    number that can be a negative zero goes through here; none reads -0."""
    s = format(v, spec)
    return format(0.0, spec) if "-" in s and float(s) == 0.0 else s


def _clamp(v: float, lo: float, hi: float) -> float:
    """``max(lo, min(hi, v))`` to the bit, NaN and signed zeros included,
    by comparisons: on Python 3.11 the two builtin calls cost several times
    the clamp itself."""
    v = v if v < hi else hi
    return v if v > lo else lo


def _canonical(lat: float, lon: float) -> tuple[float, float]:
    """(lat, lon) as :class:`GeoCoord` stores it, or its error. A pair with
    ``-pi/2 < lat < pi/2`` and ``-pi < lon <= pi`` comes back unchanged, so
    callers test that first and skip the call."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise DomainError("coordinates must be finite")
    if abs(lat) > HALF_PI + 1e-12:
        raise DomainError(f"latitude {math.degrees(lat):.6f}° outside [-90°, 90°]")
    lat = _clamp(lat, -HALF_PI, HALF_PI)
    return lat, (0.0 if abs(lat) == HALF_PI else wrap_longitude(lon))


def _slot_setters(cls) -> tuple:
    """The slots' own setters of a frozen slotted dataclass, in field order,
    for its ``__init__``: the class's __setattr__ refuses, and
    object.__setattr__ would look the slot up again on every call."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


@dataclass(frozen=True, slots=True, init=False)
class GeoCoord:
    """Point on the unit sphere.

    ``lat`` is geographic latitude in [-pi/2, pi/2] (positive north), ``lon``
    longitude in (-pi, pi] (positive east of the reference meridian). The
    constructor normalizes the longitude and canonicalizes it to 0 at the
    poles, where the meridian is undefined.
    """

    lat: float
    lon: float = 0.0

    def __init__(self, lat: float, lon: float = 0.0):
        lat = float(lat)
        lon = float(lon)
        if not (-HALF_PI < lat < HALF_PI and -PI < lon <= PI):
            lat, lon = _canonical(lat, lon)
        _set_lat(self, lat)
        _set_lon(self, lon)

    @classmethod
    def from_degrees(cls, lat_deg: float, lon_deg: float = 0.0) -> "GeoCoord":
        return cls(math.radians(lat_deg), math.radians(lon_deg))

    @property
    def lat_deg(self) -> float:
        return math.degrees(self.lat)

    @property
    def lon_deg(self) -> float:
        return math.degrees(self.lon)

    def describe(self) -> str:
        """Degree-formatted rendering for error messages and reports."""
        return f"(lat {_fmt(self.lat_deg)}°, lon {_fmt(self.lon_deg)}°)"


_set_lat, _set_lon = _slot_setters(GeoCoord)


NORTH_POLE = GeoCoord(HALF_PI, 0.0)
SOUTH_POLE = GeoCoord(-HALF_PI, 0.0)


@dataclass(frozen=True)
class GeoRegion:
    """Latitude/longitude rectangle; longitude interval must not wrap."""

    lat_lo: float
    lat_hi: float
    lon_lo: float
    lon_hi: float

    def __post_init__(self):
        for name in ("lat_lo", "lat_hi", "lon_lo", "lon_hi"):
            if math.isnan(getattr(self, name)):
                raise ParameterError(f"region bound {name} is not a number")
        if not (-HALF_PI <= self.lat_lo < self.lat_hi <= HALF_PI):
            raise ParameterError("latitude bounds must satisfy -90 <= lo < hi <= 90")
        if not self.lon_lo < self.lon_hi:
            raise ParameterError("longitude bounds must satisfy lo < hi")
        if self.lon_hi - self.lon_lo > TWO_PI + 1e-12:
            raise ParameterError("longitude span exceeds 360°")

    @classmethod
    def from_degrees(cls, lat_lo, lat_hi, lon_lo, lon_hi) -> "GeoRegion":
        return cls(*(math.radians(v) for v in (lat_lo, lat_hi, lon_lo, lon_hi)))


def to_unit_vector(c: GeoCoord) -> tuple[float, float, float]:
    """Cartesian embedding: x toward (0,0), y toward (0,90E), z toward the north pole."""
    cos_lat = math.cos(c.lat)
    return cos_lat * math.cos(c.lon), cos_lat * math.sin(c.lon), math.sin(c.lat)


def from_unit_vector(v) -> GeoCoord:
    """Inverse of :func:`to_unit_vector`; rejects anything but three numbers
    (:class:`ParameterError`) and clearly non-unit input (:class:`DomainError`),
    and reads the rest as it is, by atan2, which does not depend on the length."""
    try:
        if isinstance(v, str):  # its characters would read as three numbers
            raise TypeError
        x, y, z = map(float, v)
    except (TypeError, ValueError):
        raise ParameterError(f"not three numbers: {v!r}") from None
    norm = math.sqrt(x * x + y * y + z * z)
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # NaN fails too
        raise DomainError(f"not a unit vector: |v| = {norm:.12g}")
    return GeoCoord(math.atan2(z, math.hypot(x, y)), math.atan2(y, x))


def great_circle_distance(a: GeoCoord, b: GeoCoord) -> float:
    """Arc length between two points, in [0, pi].

    Uses the cross/dot atan2 form, which stays accurate for near-coincident
    and near-antipodal pairs where plain arccos loses digits.
    """
    return _angle(to_unit_vector(a), to_unit_vector(b))


def _angle(u: tuple[float, float, float], v: tuple[float, float, float]) -> float:
    """:func:`great_circle_distance` between two unit 3-tuples."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    cx, cy, cz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), ux * vx + uy * vy + uz * vz)


def spherical_angle_from_sides(ab: float, ac: float, bc: float) -> float:
    """Vertex angle at A of a spherical triangle with side arcs ab, ac, bc.

    Sides must lie strictly in (0, pi). cos A values within COS_CLAMP_TOL of
    [-1, 1] are clamped (valid degenerate triangles); anything further out is
    rejected as inconsistent.
    """
    for name, side in (("ab", ab), ("ac", ac), ("bc", bc)):
        if not 0.0 < side < math.pi:
            raise DomainError(
                f"side {name} = {_fmt(math.degrees(side))}° not in (0°, 180°)"
            )
    cos_a = (math.cos(bc) - math.cos(ab) * math.cos(ac)) / (
        math.sin(ab) * math.sin(ac)
    )
    if abs(cos_a) > 1.0 + COS_CLAMP_TOL:
        raise InconsistentTriangleError(
            f"sides admit no spherical triangle (cos A = {cos_a:.9g})"
        )
    return math.acos(_clamp(cos_a, -1.0, 1.0))


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, bit for bit numpy's linspace."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def sample_great_circle(a: GeoCoord, b: GeoCoord, n: int) -> list[GeoCoord]:
    """n points from a to b, equally spaced in arc length along the minor arc.

    Spherical linear interpolation of the unit vectors; endpoints are returned
    exactly. Antipodal endpoints are rejected (no unique minor arc), and so
    is n above :data:`MAX_SAMPLES`. Each sample is read by atan2, which does
    not depend on the length of the interpolated vector: close to antipodal
    endpoints the rounding of omega over sin(omega) moves that length off 1.
    """
    if n < 2:
        raise ParameterError(f"need at least 2 samples, got {n}")
    if n > MAX_SAMPLES:
        raise ParameterError(f"{n} samples exceed the cap of {MAX_SAMPLES} samples")
    u, v = to_unit_vector(a), to_unit_vector(b)
    omega = _angle(u, v)
    if omega < 1e-15:
        raise ParameterError("endpoints coincide; the arc is degenerate")
    if omega > math.pi - 1e-9:
        raise AmbiguousGeodesicError(
            f"endpoints {a.describe()} and {b.describe()} are antipodal"
        )
    sin_omega = math.sin(omega)
    (ux, uy, uz), (vx, vy, vz) = u, v
    points = [a]
    for i in range(1, n - 1):
        t = i / (n - 1)
        su, sv = math.sin((1.0 - t) * omega), math.sin(t * omega)
        wx = (su * ux + sv * vx) / sin_omega
        wy = (su * uy + sv * vy) / sin_omega
        wz = (su * uz + sv * vz) / sin_omega
        points.append(GeoCoord(math.atan2(wz, math.hypot(wx, wy)), math.atan2(wy, wx)))
    points.append(b)
    return points

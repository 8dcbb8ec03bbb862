"""Independent reference formulas the benchmark checks the library against.

Pure ``math``, no import of the library: forward maps and scale factors in
closed form after Snyder 1987 (*Map Projections: A Working Manual*, USGS
Professional Paper 1395), domain predicates for every family, and
great-circle distance. Plane conventions follow the library's (unit sphere,
x east, y north on the central meridian, conic origin on the inner standard
parallel, Werner origin at the pole, azimuthal axes east/north at an oblique
centre).
"""

from __future__ import annotations

import math

HALF_PI = math.pi / 2.0

# A point closer than this (radians) to a domain boundary may fall either way.
BOUNDARY_SLACK = 1e-9


def wrap(lon: float) -> float:
    lon = math.fmod(lon, 2.0 * math.pi)
    if lon <= -math.pi:
        lon += 2.0 * math.pi
    elif lon > math.pi:
        lon -= 2.0 * math.pi
    return lon


def gc_distance(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance; the same point at lon +180 and -180 reads 0."""
    dlon = lon2 - lon1
    c1, c2 = math.cos(lat1), math.cos(lat2)
    s1, s2 = math.sin(lat1), math.sin(lat2)
    cross = math.hypot(c2 * math.sin(dlon), c1 * s2 - s1 * c2 * math.cos(dlon))
    return math.atan2(cross, s1 * s2 + c1 * c2 * math.cos(dlon))


def destination(lat: float, lon: float, dist: float, azimuth: float) -> tuple[float, float]:
    """Point ``dist`` radians from (lat, lon) along the initial ``azimuth``."""
    s = math.sin(lat) * math.cos(dist) + math.cos(lat) * math.sin(dist) * math.cos(azimuth)
    lat2 = math.asin(max(-1.0, min(1.0, s)))
    lon2 = lon + math.atan2(
        math.sin(azimuth) * math.sin(dist) * math.cos(lat),
        math.cos(dist) - math.sin(lat) * s,
    )
    return lat2, wrap(lon2)


def conic_n_equidistant(pa: float, pb: float) -> float:
    return (math.cos(pa) - math.cos(pb)) / (pb - pa)


def conic_n_conformal(pa: float, pb: float) -> float:
    ta = math.tan(math.pi / 4 + pa / 2)
    tb = math.tan(math.pi / 4 + pb / 2)
    return math.log(math.cos(pa) / math.cos(pb)) / math.log(tb / ta)


class Reference:
    """Closed-form model of one projection spec (angles in radians)."""

    # Snyder's radial profiles r(c) at distance c from the centre, written as
    # g(c) = r(c) / sin(c) in half-angle form, which stays accurate near the
    # antipode (2 / (1 + cos c) = 2 tan(c/2) / sin c, and so on)
    _AZIMUTHAL = {
        "stereographic": lambda c: 2.0 * math.tan(0.5 * c) / math.sin(c),
        "gnomonic": lambda c: 1.0 / math.cos(c),
        "central": lambda c: 1.0 / math.cos(c),
        "orthographic": lambda c: 1.0,
        "lambert_azimuthal_equal_area": lambda c: 2.0 * math.sin(0.5 * c) / math.sin(c),
    }
    # largest accepted distance from the centre, and whether it is included
    _AZ_LIMIT = {
        "stereographic": (math.pi, False),
        "gnomonic": (HALF_PI, False),
        "central": (HALF_PI, False),
        "orthographic": (HALF_PI, True),
        "lambert_azimuthal_equal_area": (math.pi, False),
    }
    CONFORMAL = {"mercator", "stereographic", "lambert_conformal_conic"}
    EQUAL_AREA = {"lambert_azimuthal_equal_area", "lambert_cylindrical_equal_area", "werner"}

    def __init__(self, family: str, params: dict):
        self.family = family
        self.lat0 = math.radians(params.get("lat0", 0.0))
        self.lon0 = wrap(math.radians(params.get("lon0", 0.0)))
        self.cutoff = math.radians(params.get("cutoff", 85.0 if family == "mercator" else 90.0))
        clat, clon = params.get("center", (0.0, 0.0))
        self.clat, self.clon = math.radians(clat), math.radians(clon)
        if family in ("equidistant_conic", "lambert_conformal_conic"):
            pa, pb = math.radians(params["lat1"]), math.radians(params["lat2"])
            self.south = pa < 0.0
            self.pa, self.pb = abs(pa), abs(pb)
            if family == "equidistant_conic":
                self.n = conic_n_equidistant(self.pa, self.pb)
            else:
                self.n = conic_n_conformal(self.pa, self.pb)
                self.f = math.cos(self.pa) * math.tan(math.pi / 4 + self.pa / 2) ** self.n / self.n
            self.rho0 = self.rho(self.pa)

    @property
    def has_cut(self) -> bool:
        return self.family not in self._AZIMUTHAL

    def rho(self, lat: float) -> float:
        if self.family == "equidistant_conic":
            return math.cos(self.pa) / self.n + self.pa - lat
        return self.f / math.tan(math.pi / 4 + lat / 2) ** self.n

    def in_domain(self, lat: float, lon: float) -> bool | None:
        """True inside, False outside, None within BOUNDARY_SLACK of an edge."""
        fam = self.family
        if fam in self._AZIMUTHAL:
            limit, closed = self._AZ_LIMIT[fam]
            margin = gc_distance(self.clat, self.clon, lat, lon) - limit
        elif fam == "mercator":
            margin = abs(lat) - self.cutoff
            closed = True
        elif fam == "lambert_conformal_conic":
            margin = abs(lat) - HALF_PI
            closed = False
        elif fam == "equidistant_conic":
            latn = -lat if self.south else lat
            margin = latn - self.cutoff if self.cutoff < HALF_PI else -1.0
            margin = max(margin, -(self.rho(latn)))
            closed = True
        else:
            return True
        if abs(margin) <= BOUNDARY_SLACK:
            return None
        return margin < 0.0 or (closed and margin == 0.0)

    def forward(self, lat: float, lon: float, dlam: float | None = None) -> tuple[float, float]:
        fam = self.family
        if dlam is None:
            dlam = wrap(lon - self.lon0)
        if fam == "equirectangular":
            return dlam * math.cos(self.lat0), lat
        if fam == "mercator":
            return dlam, math.log(math.tan(math.pi / 4 + lat / 2))
        if fam == "lambert_cylindrical_equal_area":
            return dlam * math.cos(self.lat0), math.sin(lat) / math.cos(self.lat0)
        if fam == "werner":
            r = HALF_PI - lat
            if r < 1e-15:
                return 0.0, 0.0
            e = dlam * math.cos(lat) / r
            return r * math.sin(e), -r * math.cos(e)
        if fam in ("equidistant_conic", "lambert_conformal_conic"):
            latn = -lat if self.south else lat
            rho = self.rho(latn)
            theta = self.n * dlam
            y = self.rho0 - rho * math.cos(theta)
            return rho * math.sin(theta), (-y if self.south else y)
        dl = lon - self.clon
        c = gc_distance(self.clat, self.clon, lat, lon)
        g = self._AZIMUTHAL[fam](c) if c > 0.0 else 1.0
        return (
            g * math.cos(lat) * math.sin(dl),
            g * (math.cos(self.clat) * math.sin(lat) - math.sin(self.clat) * math.cos(lat) * math.cos(dl)),
        )

    def forward_candidates(self, lat: float, lon: float) -> list[tuple[float, float]]:
        """Reference images; two when the point sits on the tear, where
        either side is a valid image. Poles take longitude 0, the library's
        documented convention for the undefined meridian."""
        if abs(lat) >= HALF_PI:
            lon = 0.0
        if self.has_cut and abs(wrap(lon - self.lon0)) > math.pi - 1e-9:
            return [self.forward(lat, lon, math.pi), self.forward(lat, lon, -math.pi)]
        return [self.forward(lat, lon)]

    def tissot_axes(self, lat: float, lon: float) -> tuple[float, float] | None:
        """Closed-form Tissot semi-axes (a >= b), where Snyder gives them."""
        fam = self.family
        if fam == "mercator":
            return 1.0 / math.cos(lat), 1.0 / math.cos(lat)
        if fam in ("equirectangular", "lambert_cylindrical_equal_area"):
            cos0, cos_lat = math.cos(self.lat0), max(math.cos(lat), 1e-300)
            h = 1.0 if fam == "equirectangular" else cos_lat / cos0
            k = cos0 / cos_lat
            return max(h, k), min(h, k)
        if fam in ("equidistant_conic", "lambert_conformal_conic"):
            latn = -lat if self.south else lat
            k = self.n * self.rho(latn) / math.cos(latn)
            h = 1.0 if fam == "equidistant_conic" else k
            return max(h, k), min(h, k)
        if fam in self._AZIMUTHAL:
            c = gc_distance(self.clat, self.clon, lat, lon)
            if fam == "stereographic":
                k = 2.0 / (1.0 + math.cos(c))
                return k, k
            if fam == "lambert_azimuthal_equal_area":
                k = math.sqrt(2.0 / (1.0 + math.cos(c)))
                return k, 1.0 / k
            if fam == "orthographic":
                return 1.0, math.cos(c)
            return 1.0 / math.cos(c) ** 2, 1.0 / math.cos(c)
        return None

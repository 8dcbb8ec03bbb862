"""Seeded inputs for the four workloads (standard library only).

Everything here is a pure function of (workload, seed, size): the same seed
gives the same inputs, and the library never sees the seed. Inputs are
stratified so that two seeds give the same mix of cheap and costly jobs,
which keeps throughput comparable across seeds. This module must not import
numpy or the library: the child process uses it before it times the import.

A job is a dict with at least ``kind``, ``spec`` (projection spec string or
None) and ``items`` (input items it feeds the program, counted from the
inputs alone). ``known_defect`` names a documented library defect that
explains some of the job's failed checks (jobs.py says which ones); the job
still counts as failed when it does, and any other failure is unexpected.
"""

from __future__ import annotations

import math
import random

from oracle import HALF_PI, Reference, destination, gc_distance, wrap

WORKLOADS = ("transform", "analysis", "atlas", "design")

ITEM_UNIT = {
    "transform": "points",
    "analysis": "grid samples",
    "atlas": "graticule, geodesic and place samples",
    "design": "bands",
}

TEAR_DEFECT = (
    "central differences straddle the antimeridian tear "
    "(ROADMAP open item 3): Mercator over -60:60,-180:180"
)


def _num(v: float) -> float:
    """Round through the text form so the reference sees what the library parses."""
    return float(f"{v:.6f}")


def spec_text(family: str, params: dict) -> str:
    parts = [family]
    for key, value in params.items():
        if key == "center":
            parts.append(f"center={value[0]:.6f},{value[1]:.6f}")
        else:
            parts.append(f"{key}={value:.6f}")
    return " ".join(parts)


def _rand_center(rng: random.Random) -> tuple[float, float]:
    lat = rng.uniform(15.0, 70.0) * rng.choice((-1.0, 1.0))
    return (_num(lat), _num(rng.uniform(-180.0, 180.0)))


# ---------------------------------------------------------------------------
# transform


def _transform_specs(rng: random.Random) -> list[tuple[str, dict]]:
    u = rng.uniform
    return [
        ("equirectangular", {"lat0": _num(u(0, 50)), "lon0": _num(u(-180, 180))}),
        ("mercator", {"lon0": _num(u(-180, 180)), "cutoff": _num(u(80, 86))}),
        ("lambert_cylindrical_equal_area", {"lat0": _num(u(0, 45)), "lon0": _num(u(-180, 180))}),
        ("stereographic", {"center": _rand_center(rng)}),
        ("gnomonic", {"center": _rand_center(rng)}),
        ("central", {"center": _rand_center(rng)}),
        ("orthographic", {"center": _rand_center(rng)}),
        ("lambert_azimuthal_equal_area", {"center": _rand_center(rng)}),
        ("equidistant_conic", {"lat1": _num(u(30, 45)), "lat2": _num(u(55, 65)), "lon0": _num(u(-180, 180))}),
        ("equidistant_conic", {"lat1": _num(-u(20, 35)), "lat2": _num(-u(45, 60)),
                               "lon0": _num(u(-180, 180)), "cutoff": _num(u(75, 85))}),
        ("lambert_conformal_conic", {"lat1": _num(u(20, 35)), "lat2": _num(u(45, 60)), "lon0": _num(u(-180, 180))}),
        ("werner", {"lon0": _num(u(-180, 180))}),
    ]


def _edge_points(ref: Reference, params: dict, rng: random.Random) -> list[tuple[float, float]]:
    """Points on the family's domain edges: poles, the tear, the latitude
    cutoff, the hemisphere limb and antipode, and the cone apex."""
    lon = lambda: rng.uniform(-math.pi, math.pi)  # noqa: E731
    pts = [(HALF_PI, lon()), (-HALF_PI, lon())]
    fam = ref.family
    if ref.has_cut:
        cut = ref.lon0 + math.pi
        lat_max = min(ref.cutoff, HALF_PI) - 1e-6
        for d in (-1e-12, 0.0, 1e-12):
            pts.append((rng.uniform(-lat_max, lat_max), wrap(cut + d)))
    if fam == "mercator":
        for sign in (1.0, -1.0):
            for d in (0.0, -1e-12, 1e-12, 1e-6):
                pts.append((sign * (ref.cutoff + d), lon()))
    if fam in ("equidistant_conic", "lambert_conformal_conic"):
        sign = -1.0 if ref.south else 1.0
        for d in (1e-12, 1e-9, 1e-6):
            pts.append((sign * (HALF_PI - d), lon()))
        if "cutoff" in params:
            for d in (0.0, -1e-12, 1e-12, 1e-6):
                pts.append((sign * (ref.cutoff + d), lon()))
    if not ref.has_cut:
        for dist in (0.0, 1e-12, HALF_PI - 1e-7, HALF_PI - 1e-12, HALF_PI, HALF_PI + 1e-12,
                     HALF_PI + 1e-7, math.pi - 1e-6, math.pi):
            pts.append(destination(ref.clat, ref.clon, dist, rng.uniform(-math.pi, math.pi)))
    return pts


def _plane_probes(ref: Reference) -> list[tuple[float, float]]:
    """Plane points outside the family's image: inverse must reject them."""
    fam = ref.family
    if fam in ("equirectangular", "lambert_cylindrical_equal_area"):
        cos0 = math.cos(ref.lat0)
        top = HALF_PI if fam == "equirectangular" else 1.0 / cos0
        return [(math.pi * cos0 + 0.1, 0.0), (0.0, -(top + 0.1))]
    if fam == "mercator":
        return [(-(math.pi + 0.1), 0.0), (0.0, math.asinh(math.tan(ref.cutoff)) + 0.1)]
    if fam in ("equidistant_conic", "lambert_conformal_conic"):
        y = ref.rho0 + 0.5
        return [(0.0, -y if ref.south else y)]
    radius = {"orthographic": 1.05, "lambert_azimuthal_equal_area": 2.05, "werner": math.pi + 0.1}
    if fam in radius:
        return [(radius[fam] * math.cos(a), radius[fam] * math.sin(a)) for a in (0.7, 3.9)]
    return []


def _transform(rng: random.Random, size: str) -> list[dict]:
    batches, uniform = (9, 96) if size == "full" else (1, 8)
    jobs = []
    for family, params in _transform_specs(rng):
        ref = Reference(family, params)
        edges = _edge_points(ref, params, rng)
        probes = _plane_probes(ref)
        for _ in range(batches):
            # stratified in sin(lat), so every batch covers the sphere evenly
            pts = [
                (math.asin(-1.0 + 2.0 * (i + rng.random()) / uniform), rng.uniform(-math.pi, math.pi))
                for i in range(uniform)
            ]
            pts += edges
            jobs.append({
                "kind": "transform", "spec": spec_text(family, params), "family": family,
                "params": params, "points": pts, "probes": probes,
                "items": len(pts) + len(probes),
            })
    return jobs


# ---------------------------------------------------------------------------
# analysis


def _band_region(rng: random.Random) -> tuple[float, float, float, float]:
    """The paper's northern band 45-70N x 30-150E, jittered per seed."""
    u = rng.uniform
    return (_num(45 + u(-3, 3)), _num(70 + u(-3, 3)), _num(30 + u(-10, 10)), _num(150 + u(-10, 10)))


def _analysis(rng: random.Random, size: str) -> list[dict]:
    variants, n = (9, 11) if size == "full" else (1, 3)
    u = rng.uniform
    jobs = []
    for _ in range(variants):
        band = _band_region(rng)
        mid = (_num(0.5 * (band[0] + band[1])), _num(0.5 * (band[2] + band[3])))
        werner = (_num(20 + u(-3, 3)), _num(50 + u(-3, 3)), _num(-40 + u(-5, 5)), _num(40 + u(-5, 5)))
        cases = [
            ("equidistant_conic", {"lat1": 45.0, "lat2": 60.0, "lon0": mid[1]}, band, None),
            ("stereographic", {"center": mid}, band, None),
            ("lambert_conformal_conic", {"lat1": 45.0, "lat2": 60.0, "lon0": mid[1]}, band, None),
            ("lambert_azimuthal_equal_area", {"center": mid}, band, None),
            ("werner", {}, werner, None),
            # kept although it fails: the region's edge columns sit on the tear
            ("mercator", {}, (-60.0, 60.0, -180.0, 180.0), TEAR_DEFECT),
        ]
        for family, params, region, defect in cases:
            for kind in ("grid", "report"):
                jobs.append({
                    "kind": kind, "spec": spec_text(family, params), "family": family,
                    "params": params, "region": region, "nlat": n, "nlon": n,
                    "items": n * n, "known_defect": defect,
                })
    return jobs


# ---------------------------------------------------------------------------
# atlas

# graticule density of every scene: the CLI's --samples-per-degree default,
# also build_graticule's default and the criterion-12 scene's
SAMPLES_PER_DEGREE = 4.0

_PRIME_MERIDIANS = (0.0, 2.337229, -17.666667, 30.308611)  # Greenwich, Paris, Ferro, Pulkovo

GOLDEN_GAZETTEER = """\
# criterion-12 scene; degree-minute values
name,lat,lon
Moscow,55°45′,37°36′
Okhotsk,59°24′,143°12′
"""


def _dm(value: float) -> str:
    sign = "-" if value < 0 else ""
    minutes = round(abs(value) * 60.0, 1)
    return f"{sign}{int(minutes // 60)}°{minutes % 60:.1f}′"


def _parse_dm(text: str) -> float:
    sign = -1.0 if text.startswith("-") else 1.0
    deg, minutes = text.lstrip("-").rstrip("′").split("°")
    return sign * (float(deg) + float(minutes) / 60.0)


def graticule_samples(region, step_lat, step_lon, spd) -> int:
    """Sample count of build_graticule's documented layout, from its inputs."""
    lat_lo, lat_hi, lon_lo, lon_hi = region
    cap = 90.0 - math.degrees(1e-6)
    lats = [k * step_lat for k in range(math.ceil(lat_lo / step_lat - 1e-9), math.floor(lat_hi / step_lat + 1e-9) + 1)]
    n_par = sum(1 for v in lats if abs(v) < cap) or len({max(lat_lo, -cap), min(lat_hi, cap)})
    lons = [k * step_lon for k in range(math.ceil(lon_lo / step_lon - 1e-9), math.floor(lon_hi / step_lon + 1e-9) + 1)]
    n_mer = len({round(((v + 180.0) % 360.0), 9) for v in lons}) or 2
    lon_samples = max(2, int(round((lon_hi - lon_lo) * spd)) + 1)
    lat_samples = max(2, int(round((min(lat_hi, cap) - max(lat_lo, -cap)) * spd)) + 1)
    return n_par * lon_samples + n_mer * lat_samples


def _places(rng: random.Random, ref: Reference, count: int, lat_range: tuple[float, float]):
    """Gazetteer rows kept at least 0.5° away from the domain edge, with
    their expected coordinates in degrees and domain membership."""
    rows = []
    while len(rows) < count:
        lat = rng.uniform(*lat_range)
        lon = rng.uniform(-180.0, 180.0)
        inside = {ref.in_domain(math.radians(lat + d), math.radians(lon + e))
                  for d in (-0.5, 0.0, 0.5) for e in (-0.5, 0.0, 0.5)}
        if len(inside) == 1 and None not in inside:
            rows.append((f"Station {len(rows) + 1:02d}", lat, lon, inside.pop()))
    return rows


def _gazetteer_csv(rows, pm: float):
    """CSV text mixing decimal and degree-minute values, referenced to the
    prime meridian ``pm``; returns the text and the expected entries."""
    lines = [f"# referenced to a prime meridian {pm:+.6f}° east of Greenwich", "name,lat,lon"]
    expected = []
    for i, (name, lat, lon, inside) in enumerate(rows):
        rel = math.degrees(wrap(math.radians(lon - pm)))
        if i % 2:
            lat_s, lon_s = _dm(lat), _dm(rel)
            lat_v, lon_v = _parse_dm(lat_s), _parse_dm(lon_s)
        else:
            lat_s, lon_s = f"{lat:.5f}", f"{rel:.5f}"
            lat_v, lon_v = float(lat_s), float(lon_s)
        lines.append(f"{name},{lat_s},{lon_s}")
        expected.append((name, lat_v, lon_v + pm, inside))
    return "\n".join(lines) + "\n", expected


GOLDEN_SCENE = {
    "kind": "scene", "golden": True, "spec": "equidistant_conic lat1=45 lat2=60 lon0=90",
    "family": "equidistant_conic", "params": {"lat1": 45.0, "lat2": 60.0, "lon0": 90.0},
    "region": (45.0, 70.0, 30.0, 150.0), "step": (5.0, 10.0), "spd": SAMPLES_PER_DEGREE,
    "csv": GOLDEN_GAZETTEER, "pm": 0.0, "geodesics": ((0, 1, 65),),
    "places": [("Moscow", 55.75, 37.6, True), ("Okhotsk", 59.4, 143.2, True)],
}


def _scene(rng, family, params, region, step, lat_range, places, arcs) -> dict:
    ref = Reference(family, params)
    rows = _places(rng, ref, places, lat_range)
    pm = rng.choice(_PRIME_MERIDIANS)
    csv_text, expected = _gazetteer_csv(rows, pm)
    pairs = []
    while len(pairs) < arcs:
        i, j = rng.sample(range(len(expected)), 2)
        d = gc_distance(*(math.radians(v) for v in (*expected[i][1:3], *expected[j][1:3])))
        if math.radians(5.0) < d < math.radians(170.0):
            pairs.append((i, j, 65))
    return {
        "kind": "scene", "golden": False, "spec": spec_text(family, params), "family": family,
        "params": params, "region": region, "step": step, "spd": SAMPLES_PER_DEGREE, "csv": csv_text,
        "pm": pm, "geodesics": tuple(pairs), "places": expected,
    }


def _atlas(rng: random.Random, size: str) -> list[dict]:
    # at the CLI's default density a world scene feeds 50-100 thousand
    # samples (0.4-0.9 s), so a round holds only a few of each kind
    golden, variants, places, arcs = (10, 3, 12, 3) if size == "full" else (1, 1, 3, 1)
    coarse = size != "full"
    jobs = [dict(GOLDEN_SCENE) for _ in range(golden)]
    for _ in range(variants):
        jobs += [
            # global 5-degree conic: the antimeridian tear splits every parallel
            _scene(rng, "equidistant_conic", {"lat1": 45.0, "lat2": 60.0, "lon0": _num(rng.uniform(-180, 180))},
                   (-90.0, 90.0, -180.0, 180.0), (30.0, 30.0) if coarse else (5.0, 5.0),
                   (-85.0, 85.0), places, arcs),
            # Mercator world map; places beyond the cutoff are dropped
            _scene(rng, "mercator", {"lon0": _num(rng.uniform(-180, 180))},
                   (-80.0, 80.0, -180.0, 180.0), (30.0, 30.0) if coarse else (10.0, 10.0),
                   (-89.0, 89.0), places, arcs),
            # whole-globe orthographic: about half of every curve is hidden
            _scene(rng, "orthographic", {"center": _rand_center(rng)},
                   (-90.0, 90.0, -180.0, 180.0), (30.0, 30.0) if coarse else (10.0, 10.0),
                   (-89.0, 89.0), places, arcs),
        ]
    for job in jobs:
        job["items"] = (graticule_samples(job["region"], *job["step"], job["spd"])
                        + sum(n for _, _, n in job["geodesics"]) + len(job["places"]))
    return jobs


# ---------------------------------------------------------------------------
# design


def _design(rng: random.Random, size: str) -> list[dict]:
    regular, thin = (96, 4) if size == "full" else (3, 1)
    bands = []
    # Latin hypercube over (width 2-70 degrees, position up to 85N): the
    # optimizer's cost depends on both, so every seed gets the same spread
    positions = list(range(regular))
    rng.shuffle(positions)
    for i, k in enumerate(positions):
        width = 2.0 + 68.0 * (i + rng.random()) / regular
        lo = (85.0 - width) * (k + rng.random()) / regular
        bands.append((math.radians(lo), math.radians(lo + width)))
    for _ in range(thin):
        # 1e-4 rad or narrower: the optimizer falls back to the quarter rule
        lo = rng.uniform(0.1, 1.3)
        bands.append((lo, lo + rng.uniform(2e-6, 5e-5)))
    return [{"kind": "band", "spec": None, "band": b, "items": 1} for b in bands]


_MAKERS = {"transform": _transform, "analysis": _analysis, "atlas": _atlas, "design": _design}


def make_jobs(workload: str, seed: int, size: str = "full") -> list[dict]:
    """One round of the workload: the job pool the closed loop cycles through."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _MAKERS[workload](rng, size)
    for i, job in enumerate(jobs):
        job["id"] = i
        job.setdefault("known_defect", None)
    return jobs


def specs(jobs: list[dict]) -> list[str]:
    """Distinct projection specs of a job pool, in first-use order."""
    return list(dict.fromkeys(j["spec"] for j in jobs if j["spec"]))

"""Job runners and output checks for the four workloads.

Runners call the library only through public names that the ROADMAP keeps
(spec strings via ``parse_projection``, ``forward``/``inverse``,
``distortion_grid``, ``euler_property_report``, ``load_gazetteer``,
``build_graticule``, ``render_svg``, the conic-design functions), and look
each one up on its module at call time so the traced run can wrap them.
Checks compare against the independent formulas in ``oracle`` and return
failure messages, split into those a job's ``known_defect`` explains and the
rest; they run outside the timed part of a job.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

from oracle import Reference, conic_n_equidistant, gc_distance, wrap

EPS = 2.0**-52
ROUND_TRIP_TOL = 1e-9  # radians of great-circle distance, well-conditioned points
FORWARD_TOL = 1e-9  # relative to max(1, |image|)
SCALE_TOL = 1e-6  # finite-difference Tissot quantities
BAND_RESIDUAL_TOL = 1e-4


def load_api() -> SimpleNamespace:
    from mapproj import atlas, conic_design, distortion, errors, geo, geodesics, projections

    return SimpleNamespace(
        atlas=atlas, conic_design=conic_design, distortion=distortion, geo=geo,
        geodesics=geodesics, projections=projections, DomainError=errors.DomainError,
    )


class Runner:
    """Runs and checks jobs of one pool against prebuilt projections."""

    def __init__(self, api: SimpleNamespace, projections: dict, golden_svg: bytes | None):
        self.api = api
        self.projections = projections
        self.golden_svg = golden_svg
        self.refs: dict[str, Reference] = {}
        self.svg_digests: dict[int, str] = {}

    def run(self, job: dict):
        return getattr(self, "_run_" + job["kind"])(job)

    def check(self, job: dict, out) -> tuple[list[str], list[str]]:
        """Failed checks: those the job's known defect does not explain, and
        those it does."""
        if job.get("family") and job["spec"] not in self.refs:
            self.refs[job["spec"]] = Reference(job["family"], job["params"])
        explained: list[str] = []
        return getattr(self, "_check_" + job["kind"])(job, out, explained), explained

    def _on_tear(self, job, lon_deg: float) -> bool:
        """Whether a longitude sits on the tear of a job that declares the
        tear defect (ROADMAP open item 3: finite differences straddle it)."""
        ref = self.refs[job["spec"]]
        return bool(job["known_defect"]) and ref.has_cut and abs(
            wrap(math.radians(lon_deg) - ref.lon0 - math.pi)) < 1e-9

    # -- transform: forward then inverse per point, plus inverse-only probes

    def _run_transform(self, job):
        api = self.api
        proj = self.projections[job["spec"]]
        GeoCoord, PlanePoint, DomainError = api.geo.GeoCoord, api.projections.PlanePoint, api.DomainError
        images = []
        for lat, lon in job["points"]:
            c = GeoCoord(lat, lon)
            try:
                p = proj.forward(c)
            except DomainError:
                images.append(None)
                continue
            try:
                back = proj.inverse(p)
            except DomainError:
                images.append((p.x, p.y, None, None))
                continue
            images.append((p.x, p.y, back.lat, back.lon))
        probes = []
        for x, y in job["probes"]:
            try:
                back = proj.inverse(PlanePoint(x, y))
            except DomainError:
                probes.append(None)
                continue
            probes.append((back.lat, back.lon))
        return images, probes

    def _check_transform(self, job, out, explained):
        ref = self.refs[job["spec"]]
        images, probes = out
        errors = []
        for (lat, lon), image in zip(job["points"], images):
            where = f"{job['spec']} at ({math.degrees(lat):.9f}, {math.degrees(lon):.9f})"
            expected = ref.in_domain(lat, lon)
            if image is None:
                if expected:
                    errors.append(f"{where}: rejected inside the domain")
                continue
            if expected is False:
                errors.append(f"{where}: accepted outside the domain")
                continue
            x, y, blat, blon = image
            scale = max(1.0, abs(x), abs(y))
            # the map's extreme local scales bound what rounding can do: an
            # input rounding error grows by up to a, a plane one by up to 1/b
            a, b = ref.tissot_axes(lat, lon) or (1.0, 1.0)
            fwd_tol = FORWARD_TOL * scale + 8 * EPS * math.pi * a
            if not any(abs(x - rx) <= fwd_tol and abs(y - ry) <= fwd_tol
                       for rx, ry in ref.forward_candidates(lat, lon)):
                errors.append(f"{where}: forward ({x!r}, {y!r}) disagrees with Snyder")
            plane_rounding = 8 * EPS * scale
            rt_tol = ROUND_TRIP_TOL + min(plane_rounding / b if b > 0 else math.inf,
                                          math.sqrt(plane_rounding))
            if blat is None:
                errors.append(f"{where}: inverse rejected the forward image")
            elif (d := gc_distance(lat, lon, blat, blon)) > rt_tol:
                errors.append(f"{where}: round trip off by {d:.3g} rad (allowed {rt_tol:.3g})")
        errors += [f"{job['spec']}: inverse accepted probe {xy} outside the image"
                   for xy, back in zip(job["probes"], probes) if back is not None]
        return errors

    # -- analysis: distortion grid + CSV, and the P1-P4 report

    def _region(self, job):
        return self.api.geo.GeoRegion.from_degrees(*job["region"])

    def _run_grid(self, job):
        d = self.api.distortion
        rows = d.distortion_grid(self.projections[job["spec"]], self._region(job), job["nlat"], job["nlon"])
        return rows, d.grid_to_csv(rows)

    def _run_report(self, job):
        return self.api.distortion.euler_property_report(
            self.projections[job["spec"]], self._region(job), job["nlat"], job["nlon"])

    def _check_grid(self, job, out, explained):
        rows, text = out
        ref = self.refs[job["spec"]]
        nlat, nlon = job["nlat"], job["nlon"]
        lat_lo, lat_hi, lon_lo, lon_hi = job["region"]
        table = list(csv.reader(io.StringIO(text)))
        if table[0] != ["lat_deg", "lon_deg", "h", "k", "theta_prime_deg", "a", "b", "omega_deg", "s"]:
            return [f"{job['spec']}: CSV header {table[0]}"]
        if len(rows) != nlat * nlon or len(table) != nlat * nlon + 1:
            return [f"{job['spec']}: {len(rows)} samples, {len(table) - 1} CSV rows, want {nlat * nlon}"]
        errors = []
        for idx, ((c, s), line) in enumerate(zip(rows, table[1:])):
            i, j = divmod(idx, nlon)
            lat = lat_lo + (lat_hi - lat_lo) * i / (nlat - 1)
            lon = lon_lo + (lon_hi - lon_lo) * j / (nlon - 1)
            where = f"{job['spec']} at ({lat:.6f}, {lon:.6f})"
            values = [float(v) for v in line]
            if abs(values[0] - lat) > 1e-6 or abs(wrap(math.radians(values[1] - lon))) > 1e-8:
                errors.append(f"{where}: CSV row {idx} at ({line[0]}, {line[1]})")
            if any(abs(v - w) > 1e-11 * max(1.0, abs(w))
                   for v, w in zip(values[2:], (s.h, s.k, math.degrees(s.theta_prime), s.a, s.b,
                                                math.degrees(s.omega), s.s))):
                errors.append(f"{where}: CSV row {idx} differs from the sample")
            scale_errors = self._scale_errors(ref, where, math.radians(lat), math.radians(lon), s)
            (explained if self._on_tear(job, lon) else errors).extend(scale_errors)
        return errors

    @staticmethod
    def _scale_errors(ref: Reference, where: str, lat: float, lon: float, s) -> list[str]:
        errors = []
        if ref.family in Reference.CONFORMAL and abs(s.omega) > SCALE_TOL:
            errors.append(f"{where}: conformal family has omega {s.omega:.3g}")
        if ref.family in Reference.EQUAL_AREA and abs(s.s - 1.0) > SCALE_TOL:
            errors.append(f"{where}: equal-area family has s {s.s!r}")
        if ref.family == "equidistant_conic" and abs(s.h - 1.0) > SCALE_TOL:
            errors.append(f"{where}: equidistant conic has h {s.h!r}")
        axes = ref.tissot_axes(lat, lon)
        if axes and any(abs(v - w) > SCALE_TOL * w for v, w in zip((s.a, s.b), axes)):
            errors.append(f"{where}: Tissot axes ({s.a!r}, {s.b!r}), Snyder {axes}")
        return errors

    def _check_report(self, job, out, explained):
        fam, where = job["family"], f"{job['spec']} over {job['region']}"
        p = (out.p1, out.p2, out.p3, out.p4)
        if not all(math.isfinite(v) and v >= 0.0 for v in p):
            return [f"{where}: report {p}"]
        errors = []
        # Euler: no map of a band keeps P2, P3 and P4 all at zero
        if max(p[1:]) <= 1e-4:
            errors.append(f"{where}: P2-P4 all vanish {p}")
        if fam in Reference.CONFORMAL and max(out.p3, out.p4) > SCALE_TOL:
            # the region's edge samples carry the tear's Tissot axes into P3/P4
            tear = any(self._on_tear(job, lon) for lon in job["region"][2:])
            (explained if tear else errors).append(
                f"{where}: conformal family has P3 {out.p3:.3g}, P4 {out.p4:.3g}")
        if fam == "equidistant_conic" and out.p2 > SCALE_TOL:
            errors.append(f"{where}: equidistant conic has P2 {out.p2:.3g}")
        if fam in ("equidistant_conic", "lambert_conformal_conic", "mercator") and out.p1 > 1e-9:
            errors.append(f"{where}: straight-meridian family has P1 {out.p1:.3g}")
        return errors

    # -- atlas: gazetteer, graticule, SVG

    def _run_scene(self, job):
        a = self.api.atlas
        places = a.load_gazetteer(job["csv"], job["pm"])
        step_lat, step_lon = job["step"]
        graticule = a.build_graticule(
            self._region(job), math.radians(step_lat), math.radians(step_lon), job["spd"])
        arcs = tuple((places[i].coord, places[j].coord, n) for i, j, n in job["geodesics"])
        scene = a.MapScene(projection=self.projections[job["spec"]], graticule=graticule,
                           places=tuple(places), geodesics=arcs)
        return places, graticule, a.render_svg(scene)

    def _check_scene(self, job, out, explained):
        places, graticule, svg = out
        where = job["spec"]
        errors = []
        expected = job["places"]
        if [p.name for p in places] != [e[0] for e in expected]:
            return [f"{where}: gazetteer names {[p.name for p in places]}"]
        for p, (name, lat, lon, _) in zip(places, expected):
            d = gc_distance(p.coord.lat, p.coord.lon, math.radians(lat), math.radians(lon))
            if d > 1e-12:
                errors.append(f"{where}: {name} parsed {d:.3g} rad off")
        samples = sum(len(c) for c in graticule.parallels + graticule.meridians)
        want = job["items"] - sum(n for *_, n in job["geodesics"]) - len(expected)
        if samples != want:
            errors.append(f"{where}: graticule has {samples} samples, want {want}")
        digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
        if self.svg_digests.setdefault(job["id"], digest) != digest:
            errors.append(f"{where}: second render differs from the first")
        if job["golden"] and svg.encode("utf-8") != self.golden_svg:
            errors.append(f"{where}: criterion-12 scene differs from the golden SVG")
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as exc:
            return errors + [f"{where}: SVG is not well-formed: {exc}"]
        ns = "{http://www.w3.org/2000/svg}"
        layers = [g.get("id") for g in root.findall(ns + "g")]
        if layers != ["parallels", "meridians", "geodesics", "points", "labels"]:
            errors.append(f"{where}: SVG layers {layers}")
        shown = [e[0] for e in expected if e[3]]
        labels = [t.text for t in root.iter(ns + "text")]
        if labels != shown or len(list(root.iter(ns + "circle"))) != len(shown):
            errors.append(f"{where}: SVG marks {labels}, want the in-domain places {shown}")
        return errors

    # -- design: conic standard parallels for a band

    def _run_band(self, job):
        cd = self.api.conic_design
        band = cd.LatBand(*job["band"])
        quarter = cd.quarter_rule(band)
        best = cd.minimax_parallels(band)
        residual = cd.equioscillation_residual(band, best)
        apex = cd.apex_overshoot_degrees(best.phi_a, best.phi_b)
        span = cd.semicircle_longitude_span(best.phi_a, best.phi_b)
        return quarter, best, residual, apex, span

    def _check_band(self, job, out, explained):
        quarter, best, residual, apex, span = out
        lo, hi = job["band"]
        a, b = best.phi_a, best.phi_b
        where = f"band [{math.degrees(lo):.6f}, {math.degrees(hi):.6f}]"
        if not lo <= a < b <= hi:
            return [f"{where}: parallels {a!r}, {b!r} outside the band"]
        errors = []
        if best.max_error > quarter.max_error * (1.0 + 1e-12) + 1e-15:
            errors.append(f"{where}: minimax {best.max_error!r} worse than quarter rule {quarter.max_error!r}")
        if not residual <= BAND_RESIDUAL_TOL:
            errors.append(f"{where}: equioscillation residual {residual!r}")
        n = conic_n_equidistant(a, b)
        scan = max(abs((math.cos(a) + n * (a - phi)) / math.cos(phi) - 1.0)
                   for phi in (lo + (hi - lo) * i / 2000 for i in range(2001)))
        if abs(best.max_error - scan) > 1e-6 * scan + 1e-13:
            errors.append(f"{where}: max error {best.max_error!r}, independent scan {scan!r}")
        want_apex = math.degrees(math.cos(a) / n - (math.pi / 2 - a))
        if abs(apex - want_apex) > 1e-9 * abs(want_apex) or abs(span - 180.0 / n) > 1e-9 * span:
            errors.append(f"{where}: apex {apex!r} / span {span!r}, want {want_apex!r} / {180.0 / n!r}")
        return errors

"""Span tracing of the library's public callables, installed from outside.

``Tracer.install`` replaces each traced callable, wherever a ``mapproj``
module binds it, with a wrapper that records one span per call: name, start,
end, parent span and the job it belongs to. Spans stay in memory in flat
arrays and are written out once at the end. A layer's self time is a span's
duration minus the time its child spans cover; spans nest strictly because
the loop runs on one thread.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module, attribute) for module-level functions
FUNCTIONS = [
    ("geo.sample_great_circle", "geo", "sample_great_circle"),
    ("projections.parse_projection", "projections", "parse_projection"),
    ("distortion.tissot", "distortion", "tissot"),
    ("distortion.local_jacobian", "distortion", "local_jacobian"),
    ("distortion.distortion_grid", "distortion", "distortion_grid"),
    ("distortion.euler_property_report", "distortion", "euler_property_report"),
    ("distortion.grid_to_csv", "distortion", "grid_to_csv"),
    ("conic_design.minimax_parallels", "conic_design", "minimax_parallels"),
    ("conic_design.band_max_error", "conic_design", "band_max_error"),
    ("conic_design.quarter_rule", "conic_design", "quarter_rule"),
    ("conic_design.equioscillation_residual", "conic_design", "equioscillation_residual"),
    ("geodesics.fit_circular_arc", "geodesics", "fit_circular_arc"),
    ("geodesics.straightness", "geodesics", "straightness"),
    ("atlas.build_graticule", "atlas", "build_graticule"),
    ("atlas.load_gazetteer", "atlas", "load_gazetteer"),
    ("atlas.project_polyline", "atlas", "project_polyline"),
    ("atlas.render_svg", "atlas", "render_svg"),
]

# per-layer metrics: (name, unit, span, field); field is calls, busy, self or
# rejected, or None for metrics derived in Tracer.metrics
PER_LAYER = [
    ("geo.GeoCoord.calls", "count", "geo.GeoCoord", "calls"),
    ("geo.GeoCoord.self_s", "s", "geo.GeoCoord", "self"),
    ("geo.sample_great_circle.calls", "count", "geo.sample_great_circle", "calls"),
    ("geo.sample_great_circle.busy_s", "s", "geo.sample_great_circle", "busy"),
    ("projections.forward.calls", "count", "projections.forward", "calls"),
    ("projections.forward.busy_s", "s", "projections.forward", "busy"),
    ("projections.forward.self_s", "s", "projections.forward", "self"),
    ("projections.forward.rejected", "count", "projections.forward", "rejected"),
    ("projections.inverse.calls", "count", "projections.inverse", "calls"),
    ("projections.inverse.busy_s", "s", "projections.inverse", "busy"),
    ("projections.inverse.self_s", "s", "projections.inverse", "self"),
    ("projections.inverse.rejected", "count", "projections.inverse", "rejected"),
    ("projections.parse_projection.busy_s", "s", "projections.parse_projection", "busy"),
    ("distortion.tissot.calls", "count", "distortion.tissot", "calls"),
    ("distortion.tissot.busy_s", "s", "distortion.tissot", "busy"),
    ("distortion.tissot.self_s", "s", "distortion.tissot", "self"),
    ("distortion.local_jacobian.calls", "count", "distortion.local_jacobian", "calls"),
    ("distortion.local_jacobian.self_s", "s", "distortion.local_jacobian", "self"),
    ("distortion.distortion_grid.busy_s", "s", "distortion.distortion_grid", "busy"),
    ("distortion.euler_property_report.busy_s", "s", "distortion.euler_property_report", "busy"),
    ("distortion.euler_property_report.self_s", "s", "distortion.euler_property_report", "self"),
    ("distortion.grid_to_csv.busy_s", "s", "distortion.grid_to_csv", "busy"),
    ("distortion.forward_per_sample", "ratio", None, None),
    ("conic_design.minimax_parallels.calls", "count", "conic_design.minimax_parallels", "calls"),
    ("conic_design.minimax_parallels.busy_s", "s", "conic_design.minimax_parallels", "busy"),
    ("conic_design.minimax_parallels.self_s", "s", "conic_design.minimax_parallels", "self"),
    ("conic_design.band_max_error.calls", "count", "conic_design.band_max_error", "calls"),
    ("conic_design.band_max_error.busy_s", "s", "conic_design.band_max_error", "busy"),
    ("conic_design.quarter_rule.busy_s", "s", "conic_design.quarter_rule", "busy"),
    ("conic_design.equioscillation_residual.busy_s", "s", "conic_design.equioscillation_residual", "busy"),
    ("geodesics.fit_circular_arc.calls", "count", "geodesics.fit_circular_arc", "calls"),
    ("geodesics.fit_circular_arc.busy_s", "s", "geodesics.fit_circular_arc", "busy"),
    ("geodesics.straightness.calls", "count", "geodesics.straightness", "calls"),
    ("geodesics.straightness.busy_s", "s", "geodesics.straightness", "busy"),
    ("atlas.build_graticule.busy_s", "s", "atlas.build_graticule", "busy"),
    ("atlas.load_gazetteer.busy_s", "s", "atlas.load_gazetteer", "busy"),
    ("atlas.project_polyline.calls", "count", "atlas.project_polyline", "calls"),
    ("atlas.project_polyline.busy_s", "s", "atlas.project_polyline", "busy"),
    ("atlas.project_polyline.self_s", "s", "atlas.project_polyline", "self"),
    ("atlas.render_svg.busy_s", "s", "atlas.render_svg", "busy"),
    ("atlas.render_svg.self_s", "s", "atlas.render_svg", "self"),
    ("atlas.tear_splits", "count", None, None),
    ("atlas.svg_bytes", "bytes", None, None),
    ("atlas.arc_hit_ratio", "ratio", None, None),
    ("cli.import_s", "s", None, None),
    ("cli.import_numpy_s", "s", None, None),
    ("trace.overhead_s", "s", None, None),
]

# taken from the set-up spans (building the workload's projections once)
FROM_SETUP = {"projections.parse_projection.busy_s"}

# not divided by the number of rounds: set-up, ratio and import-time metrics
NOT_PER_ROUND = FROM_SETUP | {
    "distortion.forward_per_sample", "atlas.arc_hit_ratio", "cli.import_s", "cli.import_numpy_s",
}


class Tracer:
    def __init__(self, domain_error: type):
        self.domain_error = domain_error
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = -1
        self.job_scale: list[float] = []  # reference-speed factor per job id
        self.rejected: dict[str, int] = {}
        self.counters = {"tear_splits": 0, "svg_bytes": 0, "arc_paths": 0}
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.rejected[name] = 0
        return self.name_ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._id(name)
        name_of, start, end, parent, job, stack = (
            self.name_of, self.start, self.end, self.parent, self.job, self.stack)
        rejected, domain_error, clock = self.rejected, self.domain_error, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and name_of[stack[-1]] == nid:
                # an override delegating to its base class: one call, one span
                return fn(*args, **kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except domain_error:
                rejected[name] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, api) -> None:
        """Wrap every traced callable wherever a mapproj module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "mapproj" or n.startswith("mapproj.")]
        observers = {
            "atlas.project_polyline": self._observe_polyline,
            "atlas.render_svg": self._observe_svg,
        }
        for name, module, attr in FUNCTIONS:
            original = getattr(getattr(api, module, None), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        GeoCoord = api.geo.GeoCoord
        self._patch(GeoCoord, "__init__", self.wrap("geo.GeoCoord", GeoCoord.__init__))
        seen = set()
        for family in api.projections.FAMILIES.values():
            for cls in family.__mro__:
                for method in ("forward", "inverse"):
                    if method in vars(cls) and (cls, method) not in seen:
                        seen.add((cls, method))
                        self._patch(cls, method, self.wrap("projections." + method, vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _observe_polyline(self, poly) -> None:
        self.counters["tear_splits"] += max(0, len(poly.segments) - 1)

    def _observe_svg(self, svg: str) -> None:
        self.counters["svg_bytes"] += len(svg.encode("utf-8"))
        self.counters["arc_paths"] += svg.count(" A ")

    def _arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name_of, dtype=np.uint16),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.job, dtype=np.int32),
        )

    def span_totals(self, setup: bool = False) -> dict[str, dict[str, float]]:
        """calls, busy seconds and self seconds per span name, over the spans
        of jobs, or with ``setup`` over those recorded before the first job.
        Times are scaled to the reference host speed by their job's factor
        (set-up spans by the median factor)."""
        import numpy as np

        name_of, start, end, parent, job = self._arrays()
        factors = np.array(self.job_scale + [float(np.median(self.job_scale)) if self.job_scale else 1.0])
        dur = (end - start) * factors[job]  # job -1 picks the median, appended last
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_ns = dur - covered
        in_job = (job < 0) if setup else (job >= 0)
        n = len(self.names)
        calls = np.bincount(name_of[in_job], minlength=n)
        busy = np.bincount(name_of[in_job], weights=dur[in_job], minlength=n)
        own = np.bincount(name_of[in_job], weights=self_ns[in_job], minlength=n)
        return {
            name: {"calls": int(calls[i]), "busy": busy[i] * 1e-9, "self": own[i] * 1e-9,
                   "rejected": self.rejected[name]}
            for i, name in enumerate(self.names)
        }

    def forward_per_sample(self) -> float:
        """Forward calls made inside local_jacobian, per tissot call."""
        import numpy as np

        ids = self.name_ids
        if not {"distortion.local_jacobian", "distortion.tissot"} <= ids.keys():
            return 0.0
        name_of, _, _, parent, _ = self._arrays()
        tissot = int(np.count_nonzero(name_of == ids["distortion.tissot"]))
        fwd = name_of == ids["projections.forward"]
        has_parent = parent >= 0
        in_jacobian = np.zeros(len(name_of), dtype=bool)
        in_jacobian[has_parent] = name_of[parent[has_parent]] == ids["distortion.local_jacobian"]
        return float(np.count_nonzero(fwd & in_jacobian)) / tissot if tissot else 0.0

    def metrics(self, rounds: int, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics, per round; ``extra`` supplies measured values
        the spans cannot give (the cli import times are added by run.py)."""
        totals = self.span_totals()
        setup = self.span_totals(setup=True)
        fit_calls = totals.get("geodesics.fit_circular_arc", {}).get("calls", 0)
        derived = {
            "distortion.forward_per_sample": self.forward_per_sample(),
            "atlas.tear_splits": self.counters["tear_splits"],
            "atlas.svg_bytes": self.counters["svg_bytes"],
            "atlas.arc_hit_ratio": self.counters["arc_paths"] / fit_calls if fit_calls else 0.0,
            **extra,
        }
        out = {}
        for name, _, span, field in PER_LAYER:
            if span is None and name not in derived:
                continue
            source = setup if name in FROM_SETUP else totals
            value = derived[name] if span is None else source.get(span, {}).get(field, 0)
            out[name] = value if name in NOT_PER_ROUND else value / rounds
        return out

    def save(self, path: str) -> None:
        import numpy as np

        name_of, start, end, parent, job = self._arrays()
        np.savez(path, names=np.array(self.names), name=name_of, start_ns=start,
                 end_ns=end, parent=parent, job=job)

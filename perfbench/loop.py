"""Closed loop over a workload's job pool, inside the child interpreter.

One client on one thread: the next job starts when the previous one has
finished and been checked. A round is the whole pool, so every round does
identical work; the loop stops at the first round boundary past the time
budget. The first round is a warm-up (lazy set-up such as cached projection
constants, and the first render of every scene for the render-twice check).
It is checked and counted but not timed.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback

import gen
import jobs
import speed
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_SVG = os.path.join(ROOT, "tests", "data", "delisle_map.svg")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
MAX_ERRORS = 8


class Tally:
    """Job outcomes: attempted, failed, failures not explained by a known defect."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = 0
        self.errors: list[str] = []
        self.known: set[str] = set()

    def record(self, job: dict, problems: list[str], explained: list[str] = ()) -> None:
        """``explained``: failed checks that the job's known defect accounts
        for; every other problem makes the run incorrect."""
        self.attempted += 1
        if not problems and not explained:
            return
        self.failed += 1
        if explained:
            self.known.add(job["known_defect"])
        if not problems:
            return
        self.unexpected += 1
        for p in problems[:2]:
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(p)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "unexpected": self.unexpected,
                "errors": self.errors, "known_defects": sorted(self.known)}


def run_round(runner: jobs.Runner, pool: list[dict], tally: Tally, tracer: Tracer | None = None):
    """Run and check every job once. Returns per-job wall times in ns and the
    factors that scale them to the reference host speed (speed.py); the
    reference loop runs between jobs, outside the job times."""
    times, scales = [], []
    clock = time.perf_counter_ns
    before = speed.sample()
    for job in pool:
        if tracer is not None:
            tracer.job_id += 1
        t0 = clock()
        try:
            out, error = runner.run(job), None
        except Exception:  # a job that raises counts as failed; the loop goes on
            out, error = None, _last_error()
        times.append(clock() - t0)
        after = speed.sample()
        scales.append(speed.scale(before, after))
        before = after
        if tracer is not None:
            tracer.job_scale.append(scales[-1])
        if error is not None:
            tally.record(job, [f"{job['kind']} job raised {error}"])
            continue
        try:
            tally.record(job, *runner.check(job, out))
        except Exception:  # output too malformed for its check
            tally.record(job, [f"{job['kind']} check raised {_last_error()}"])
    return times, scales


def _last_error() -> str:
    return traceback.format_exc(limit=2).strip().splitlines()[-1]


def quantile_ms(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank quantile in milliseconds."""
    k = max(0, min(len(sorted_ns) - 1, -(-len(sorted_ns) * q // 1) - 1))
    return sorted_ns[int(k)] * 1e-6


def run(mode: str, workload: str, seed: int, seconds: float, size: str, projections: dict) -> dict:
    pool = gen.make_jobs(workload, seed, size)
    golden = None
    if any(j.get("golden") for j in pool):
        with open(GOLDEN_SVG, "rb") as fh:
            golden = fh.read()
    api = jobs.load_api()
    runner = jobs.Runner(api, projections, golden)
    tally = Tally()
    run_round(runner, pool, tally)  # warm-up
    items_per_round = sum(j["items"] for j in pool)
    if mode == "run":
        result = _timed(runner, pool, tally, seconds)
    else:
        result = _traced(api, runner, pool, tally, seconds, projections, workload)
    result.update(tally.as_dict())
    result["jobs_per_round"] = len(pool)
    result["items_per_round"] = items_per_round
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def _timed(runner, pool, tally, seconds) -> dict:
    """Rounds until the budget is spent. Job times are scaled to the reference
    host speed (speed.py), and a job's latency is its median over the
    rounds, which stays put when the neighbours' load swings."""
    per_job: list[list[float]] = [[] for _ in pool]
    raw_per_job: list[list[int]] = [[] for _ in pool]
    raw_ns = 0
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        times, scales = run_round(runner, pool, tally)
        raw_ns += sum(times)
        for samples, raw, ns, k in zip(per_job, raw_per_job, times, scales):
            samples.append(ns * k)
            raw.append(ns)
        rounds += 1
    typical = sorted(statistics.median(samples) for samples in per_job)
    raw_typical = sorted(statistics.median(raw) for raw in raw_per_job)
    return {
        "rounds": rounds, "jobs": len(typical), "busy_s": sum(typical) * 1e-9,
        "raw_busy_s": raw_ns * 1e-9 / rounds,
        "job_ms_p50": quantile_ms(typical, 0.5), "job_ms_p90": quantile_ms(typical, 0.9),
        "raw_job_ms_p50": quantile_ms(raw_typical, 0.5), "raw_job_ms_p90": quantile_ms(raw_typical, 0.9),
        "beyond_p90": len(typical) - int(-(-len(typical) * 0.9 // 1)),
    }


def _scaled_ns(runner, pool, tally, tracer=None) -> float:
    times, scales = run_round(runner, pool, tally, tracer)
    return sum(ns * k for ns, k in zip(times, scales))


def _traced(api, runner, pool, tally, seconds, projections, workload) -> dict:
    """Traced rounds for half the budget, then as many rounds untraced; the
    difference in job time is the tracing overhead. Span times are scaled to
    the reference host speed with their job's factor."""
    tracer = Tracer(api.DomainError)
    tracer.install(api)
    try:
        for spec in projections:  # the set-up's parse step, traced once
            api.projections.parse_projection(spec)
        rounds, traced_ns = 0, 0.0
        deadline = time.perf_counter() + seconds / 2
        while rounds == 0 or time.perf_counter() < deadline:
            traced_ns += _scaled_ns(runner, pool, tally, tracer)
            rounds += 1
    finally:
        tracer.uninstall()
    untraced_ns = sum(_scaled_ns(runner, pool, tally) for _ in range(rounds))
    overhead = (traced_ns - untraced_ns) * 1e-9
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}.npz")
    tracer.save(path)
    return {
        "rounds": rounds, "spans": len(tracer.start), "trace_file": os.path.relpath(path, ROOT),
        "traced_s": traced_ns * 1e-9, "untraced_s": untraced_ns * 1e-9, "missing": tracer.missing,
        "per_layer": tracer.metrics(rounds, {"trace.overhead_s": overhead}),
    }

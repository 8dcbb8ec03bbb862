#!/usr/bin/env python3
"""mapproj benchmark: one workload, one seed, closed loop, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload {transform,analysis,atlas,design}
                             --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` in fresh child interpreters (see
child.py), one client running one job at a time. ``--trace 0`` prints the
end-to-end metrics from untraced runs: ``setup_s`` is the median of several
set-ups (each a fresh interpreter importing ``mapproj.cli`` and building the
workload's projections), the rest come from a closed loop of ``S`` seconds.
``--trace 1`` prints the per-layer metrics of a traced run instead, with the
tracing overhead and ``cli.import_*`` from ``python -X importtime``. Every
job's output is checked; the last stdout line is one JSON object, and with
``--trace 0`` the line before it gives the time metrics unscaled. Exit code
0 means the checks passed, 1 that a check or a child failed, 2 that the
library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

SETUP_RUNS = 9  # set-up-only children, besides the workload child's own set-up
IMPORTTIME_RUNS = 3
BUDGET_S = 170.0  # every child must be done by then

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
]


class ChildError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("time budget exhausted")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out: {' '.join(argv[:4])}") from exc
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def run_child(mode, args, specs, deadline, size="full") -> str:
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, args.workload,
            str(args.seed), str(args.seconds), size, ";".join(specs)]
    return _spawn(argv, deadline).stdout.strip().splitlines()[-1]


def _import_times(deadline) -> tuple[float, float]:
    """Cumulative import seconds of mapproj.cli and of numpy, from -X importtime."""
    cli, numpy = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = _spawn([sys.executable, "-X", "importtime", "-c", "import mapproj.cli"], deadline)
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line.split("|")
                try:
                    cumulative[name.strip()] = int(cum) * 1e-6
                except ValueError:
                    continue  # the column header line
        cli.append(cumulative["mapproj.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


def _print_run(args, res: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Prints the end-to-end metrics; returns them, and the time metrics
    unscaled by the host speed reference (wall time as measured)."""
    unit = gen.ITEM_UNIT[args.workload]
    failed_frac = res["failed"] / res["attempted"]
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "items_per_s": res["items_per_round"] / res["busy_s"],
        "job_ms_p50": res["job_ms_p50"],
        "job_ms_p90": res["job_ms_p90"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - failed_frac,
    }
    rounds = res["rounds"]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, 1 thread, "
          f"{rounds} rounds of the same {res['jobs_per_round']} jobs")
    print("  times at the reference host speed (speed.py); a job's time is its median round")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of {len(setups)} fresh set-ups; "
          f"raw {statistics.median(raw for _, raw in setups):.4f} s)")
    print(f"  items_per_s  {metrics['items_per_s']:.1f} {unit}/s  ({res['items_per_round']} {unit} per round, "
          f"{res['busy_s']:.3f} s; raw mean {res['items_per_round'] / res['raw_busy_s']:.1f}/s)")
    print(f"  job_ms_p50   {metrics['job_ms_p50']:.4f} ms  (n={res['jobs']} jobs x {rounds} rounds; "
          f"raw {res['raw_job_ms_p50']:.4f} ms)")
    print(f"  job_ms_p90   {metrics['job_ms_p90']:.4f} ms  (n={res['jobs']} jobs x {rounds} rounds, "
          f"{res['beyond_p90']} jobs beyond p90; raw {res['raw_job_ms_p90']:.4f} ms)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  (workload child)")
    print(f"  failed_frac  {failed_frac:.4f}  ({res['failed']} of {res['attempted']} jobs; "
          f"ok_frac {metrics['ok_frac']:.4f})")
    if res["beyond_p90"] < 10:
        print(f"  note: only {res['beyond_p90']} jobs beyond p90 (each job's time is its median "
              f"over {rounds} rounds)")
    raw = {
        "setup_s": statistics.median(raw for _, raw in setups),
        "items_per_s": res["items_per_round"] / res["raw_busy_s"],
        "job_ms_p50": res["raw_job_ms_p50"],
        "job_ms_p90": res["raw_job_ms_p90"],
    }
    units = dict(END_TO_END)
    return ({name: {"value": metrics[name], "unit": unit_} for name, unit_ in END_TO_END},
            {name: {"value": value, "unit": units[name]} for name, value in raw.items()})


def _print_trace(args, res: dict, imports: tuple[float, float]) -> dict:
    layer = dict(res["per_layer"])
    layer["cli.import_s"], layer["cli.import_numpy_s"] = imports
    print(f"workload {args.workload}, seed {args.seed}: traced, {res['rounds']} rounds of "
          f"{res['jobs_per_round']} jobs, {res['spans']} spans -> {res['trace_file']}")
    print(f"  tracing overhead: {res['traced_s']:.3f} s traced - {res['untraced_s']:.3f} s untraced "
          f"= {res['traced_s'] - res['untraced_s']:.3f} s over {res['rounds']} rounds "
          "(times at the reference host speed, speed.py)")
    if res["missing"]:
        print(f"  not traced (absent from the library): {', '.join(res['missing'])}")
    print("  per round unless a ratio, a whole-run count or an import time:")
    for name, unit, _, _ in PER_LAYER:
        print(f"  {name:<46} {layer[name]:.6g} {unit}")
    return {name: {"value": layer[name], "unit": unit} for name, unit, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mapproj", "cli.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    specs = gen.specs(gen.make_jobs(args.workload, args.seed))
    try:
        run_child("setup", args, specs, deadline)  # compiles bytecode; not measured
        if args.trace:
            imports = _import_times(deadline)
            res = json.loads(run_child("trace", args, specs, deadline))
            metrics, unscaled = _print_trace(args, res, imports), None
        else:
            # set-ups before and after the loop, so a slow spell skews few
            setups = [run_child("setup", args, specs, deadline) for _ in range(SETUP_RUNS // 2)]
            res = json.loads(run_child("run", args, specs, deadline))
            setups += [run_child("setup", args, specs, deadline) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
            setups = [tuple(map(float, line.split())) for line in setups]
            setups.append((res["setup_s"], res["setup_raw_s"]))
            metrics, unscaled = _print_run(args, res, setups)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for defect in res["known_defects"]:
        print(f"  known defect, counted as failed: {defect}")
    for err in res["errors"]:
        print(f"  check failed: {err}")
    correct = res["unexpected"] == 0
    if unscaled:
        # the same time metrics as wall time, without the host speed scaling,
        # so that a change of the scaled figures can be checked against them
        print(json.dumps({"unscaled": unscaled}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

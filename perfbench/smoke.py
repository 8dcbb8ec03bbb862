#!/usr/bin/env python3
"""Smoke mode: every workload once at a tiny size, with all its checks.

Usage (from the repository root): python3 perfbench/smoke.py

Runs each workload's untraced loop and its traced run for a single round of
a tiny job pool (the criterion-12 scene keeps its full size, since it is
compared byte for byte with the golden SVG), and checks that BENCHMARK.json
names exactly the metrics the benchmark prints. Exit code 0 when everything
passes. Takes a few seconds, so the harness cannot rot unnoticed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

import run
import gen
from tracing import PER_LAYER


def main() -> int:
    deadline = time.monotonic() + run.BUDGET_S
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    ok = True
    for key, printed in (("end_to_end", run.END_TO_END), ("per_layer", [m[:2] for m in PER_LAYER])):
        names = [(m["name"], m["unit"]) for m in declared[key]]
        if names != [tuple(m) for m in printed]:
            print(f"FAIL BENCHMARK.json {key} does not match the printed metrics")
            ok = False
    if sorted(w["name"] for w in declared["workloads"]) != sorted(gen.WORKLOADS):
        print("FAIL BENCHMARK.json workloads do not match gen.WORKLOADS")
        ok = False
    for workload in gen.WORKLOADS:
        args = SimpleNamespace(workload=workload, seed=0, seconds=0)
        specs = gen.specs(gen.make_jobs(workload, 0, "tiny"))
        for mode in ("run", "trace"):
            try:
                res = json.loads(run.run_child(mode, args, specs, deadline, size="tiny"))
            except run.ChildError as exc:
                print(f"FAIL {workload} {mode}: {exc}")
                ok = False
                continue
            passed = res["unexpected"] == 0
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {workload} {mode}: {res['attempted']} jobs, "
                  f"{res['failed']} failed ({len(res['known_defects'])} known defect)")
            for err in res["errors"]:
                print(f"     {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

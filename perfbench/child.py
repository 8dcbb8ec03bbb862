"""One workload in a fresh interpreter (started by run.py, one thread).

Usage: child.py MODE WORKLOAD SEED SECONDS SIZE SPECS

MODE is ``setup`` (time the set-up and exit), ``run`` (untraced closed loop)
or ``trace`` (traced rounds, then the same rounds untraced). SPECS is the
workload's projection spec strings joined by ``;``. Until set-up is timed
this file imports nothing beyond what the interpreter has already loaded and
the standard-library-only ``speed`` module, so ``setup_s`` covers exactly
``import mapproj.cli`` plus building the projections with
``parse_projection``. The last stdout line is a JSON object.
"""

import sys
import time

import speed


def _setup(specs):
    """Set-up seconds, raw and scaled to the reference host speed, and the
    projections; the speed loop runs just before and after the timed part."""
    cal = [speed.sample() for _ in range(3)]
    t0 = time.perf_counter()
    import mapproj.cli  # noqa: F401  (what a CLI user pays before any work)
    from mapproj.projections import parse_projection

    projections = {spec: parse_projection(spec) for spec in specs}
    raw = time.perf_counter() - t0
    cal += [speed.sample() for _ in range(3)]
    return raw, raw * speed.factor(cal), projections


def main() -> int:
    mode, workload, seed, seconds, size, spec_arg = sys.argv[1:7]
    raw, scaled, projections = _setup([s for s in spec_arg.split(";") if s])
    if mode == "setup":
        print(f"{scaled!r} {raw!r}")
        return 0

    import json

    import loop

    result = loop.run(mode, workload, int(seed), float(seconds), size, projections)
    result["setup_s"], result["setup_raw_s"] = scaled, raw
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

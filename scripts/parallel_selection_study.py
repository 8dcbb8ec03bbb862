#!/usr/bin/env python3
"""Compare standard-parallel selection rules for the equidistant conic.

For a set of latitude bands, place the standard parallels by the quarter
rule and by minimax optimization, and tabulate the worst parallel-scale
error of each. Optionally dump the error profile of one band as CSV for
plotting.

Usage: python scripts/parallel_selection_study.py [--profile-band 45:70 --csv out/profile.csv]
"""

import argparse
import math
import os

from mapproj.conic_design import (
    LatBand,
    equioscillation_residual,
    error_profile,
    minimax_parallels,
    quarter_rule,
)
from mapproj.errors import ParameterError

BANDS = [(45, 70), (40, 70), (30, 60), (45, 68), (10, 80), (50, 65)]


def _band(text: str) -> LatBand:
    """The band of an LO:HI argument in degrees; a usage error otherwise."""
    try:
        lo, hi = (float(v) for v in text.split(":"))
        return LatBand.from_degrees(lo, hi)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI in degrees, got {text!r}") from None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile-band", type=_band, default=None, metavar="LO:HI")
    parser.add_argument("--csv", default="out/parallel_profile.csv")
    args = parser.parse_args()

    print(f"{'band':>10} {'quarter pair':>18} {'max err':>9} "
          f"{'minimax pair':>18} {'max err':>9} {'gain':>6} {'resid':>9}")
    for lo, hi in BANDS:
        band = LatBand.from_degrees(lo, hi)
        q = quarter_rule(band)
        m = minimax_parallels(band)
        gain = 1.0 - m.max_error / q.max_error
        print(
            f"{lo:4.0f}-{hi:3.0f}N "
            f"({math.degrees(q.phi_a):7.3f},{math.degrees(q.phi_b):8.3f}) "
            f"{q.max_error:9.5f} "
            f"({math.degrees(m.phi_a):7.3f},{math.degrees(m.phi_b):8.3f}) "
            f"{m.max_error:9.5f} {100 * gain:5.1f}% "
            f"{equioscillation_residual(band, m):9.2e}"
        )

    if args.profile_band:
        band = args.profile_band
        q, m = quarter_rule(band), minimax_parallels(band)
        os.makedirs(os.path.dirname(args.csv) or ".", exist_ok=True)
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("lat_deg,quarter_error,minimax_error\n")
            lats, q_errors = error_profile(band, q)
            _, m_errors = error_profile(band, m)
            for lat, eq, em in zip(lats, q_errors, m_errors):
                fh.write(f"{math.degrees(lat):.6f},{eq:.10g},{em:.10g}\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: project, inverse, distance, distortion, properties, optimize,
geodesic, render. All user-facing angles are decimal degrees. Exit codes:
0 success, 1 domain or parse errors, 2 usage errors. Diagnostics go to
stderr, results to stdout or to --out.

The heavier modules (distortion, geodesics, atlas) are imported by the
commands that use them, which keeps ``import mapproj.cli`` light.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import conic_design
from .errors import MapError
from .geo import GeoCoord, GeoRegion, _fmt, great_circle_distance, wrap_longitude
from .projections import PlanePoint, UnknownFamilyError, parse_projection


def _parse_latlon(text: str) -> tuple[float, float]:
    try:
        lat_s, lon_s = text.split(",")
        return float(lat_s), float(lon_s)
    except ValueError:
        raise MapError(f"expected LAT,LON in degrees, got {text!r}") from None


def _parse_region(text: str) -> GeoRegion:
    try:
        lat_part, lon_part = text.split(",")
        lat_lo, lat_hi = (float(v) for v in lat_part.split(":"))
        lon_lo, lon_hi = (float(v) for v in lon_part.split(":"))
    except ValueError:
        raise MapError(
            f"expected LATLO:LATHI,LONLO:LONHI in degrees, got {text!r}"
        ) from None
    return GeoRegion.from_degrees(lat_lo, lat_hi, lon_lo, lon_hi)


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n_s, m_s = text.lower().split("x")
        return int(n_s), int(m_s)
    except ValueError:
        raise MapError(f"expected NxM, got {text!r}") from None


def _coord(args, lat_deg: float, lon_deg: float) -> GeoCoord:
    return GeoCoord.from_degrees(lat_deg, lon_deg + args.prime_meridian)


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_project(args) -> int:
    proj = parse_projection(args.proj)
    p = proj.forward(_coord(args, args.lat, args.lon))
    print(f"x={_fmt(p.x)} y={_fmt(p.y)}")
    return 0


def _cmd_inverse(args) -> int:
    proj = parse_projection(args.proj)
    c = proj.inverse(PlanePoint(args.x, args.y))
    lon_out = math.degrees(wrap_longitude(c.lon - math.radians(args.prime_meridian)))
    print(f"lat={_fmt(c.lat_deg)} lon={_fmt(lon_out)}")
    return 0


def _cmd_distance(args) -> int:
    a = _coord(args, *_parse_latlon(args.src))
    b = _coord(args, *_parse_latlon(args.dst))
    print(f"distance_deg={math.degrees(great_circle_distance(a, b)):.6f}")
    return 0


def _cmd_distortion(args) -> int:
    from . import distortion

    proj = parse_projection(args.proj)
    nlat, nlon = _parse_grid(args.grid)
    rows = distortion.distortion_grid(proj, _parse_region(args.region), nlat, nlon)
    if args.out:
        _write(args.out, distortion.grid_to_csv(rows))
        return 0
    header = f"{'lat':>10} {'lon':>10} {'h':>10} {'k':>10} {'theta':>10} {'omega':>10} {'s':>10}"
    print(header)
    for c, s in rows:
        print(
            f"{_fmt(c.lat_deg, '10.4f')} {_fmt(c.lon_deg, '10.4f')} {s.h:10.6f} {s.k:10.6f} "
            f"{math.degrees(s.theta_prime):10.4f} {math.degrees(s.omega):10.6f} {s.s:10.6f}"
        )
    return 0


def _cmd_properties(args) -> int:
    from . import distortion

    proj = parse_projection(args.proj)
    nlat, nlon = _parse_grid(args.grid)
    report = distortion.euler_property_report(proj, _parse_region(args.region), nlat, nlon)
    print(f"P1 meridian straightness (sagitta/chord): {report.p1:.9e}")
    print(f"P2 meridian scale error max|h-1|:         {report.p2:.9e}")
    print(f"P3 right-angle violation max|t-90°| rad:  {report.p3:.9e}")
    print(f"P4 degree-ratio error max|k/h-1|:         {report.p4:.9e}")
    return 0


def _cmd_optimize(args) -> int:
    try:
        lo, hi = (float(v) for v in args.band.split(":"))
    except ValueError:
        raise MapError(f"expected LO:HI in degrees, got {args.band!r}") from None
    band = conic_design.LatBand.from_degrees(lo, hi)
    quarter = conic_design.quarter_rule(band)
    best = conic_design.minimax_parallels(band, tol=args.tol)
    print(f"{'method':<10} {'phi_a_deg':>12} {'phi_b_deg':>12} {'max|k-1|':>14}")
    for label, choice in (("quarter", quarter), ("minimax", best)):
        print(
            f"{label:<10} {math.degrees(choice.phi_a):12.6f} "
            f"{math.degrees(choice.phi_b):12.6f} {choice.max_error:14.9f}"
        )
    residual = conic_design.equioscillation_residual(band, best)
    print(f"equioscillation residual: {residual:.3e}")
    if args.profile:
        lines = ["lat_deg,quarter_error,minimax_error"]
        lats, quarter_errors = conic_design.error_profile(band, quarter)
        _, best_errors = conic_design.error_profile(band, best)
        for lat, eq, em in zip(lats, quarter_errors, best_errors):
            lines.append(f"{math.degrees(lat):.6f},{eq:.12g},{em:.12g}")
        _write(args.profile, "\n".join(lines) + "\n")
    return 0


def _cmd_geodesic(args) -> int:
    from . import geodesics

    proj = parse_projection(args.proj)
    a = _coord(args, *_parse_latlon(args.src))
    b = _coord(args, *_parse_latlon(args.dst))
    poly = geodesics.project_geodesic(proj, a, b, args.samples)
    fit = geodesics.fit_circular_arc(poly)
    print(f"chord={fit.chord:.6f} sagitta={fit.sagitta:.6f} ratio={fit.sagitta / fit.chord:.9f}")
    if fit.collinear:
        print("arc: collinear (infinite radius)")
    else:
        print(
            f"arc: radius={fit.radius:.6f} max_residual={fit.max_residual:.9f} "
            f"radius/chord={fit.radius / fit.chord:.3f}"
        )
    if args.csv:
        lines = ["x,y"]
        for seg in poly.segments:
            lines.extend(f"{_fmt(p.x, '.12g')},{_fmt(p.y, '.12g')}" for p in seg)
        _write(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_render(args) -> int:
    from . import atlas

    proj = parse_projection(args.proj)
    region = _parse_region(args.region)
    steps = args.step.split(",")
    try:
        if len(steps) > 2:
            raise ValueError
        dphi = math.radians(float(steps[0]))
        dlam = math.radians(float(steps[1])) if len(steps) > 1 else dphi
    except ValueError:
        raise MapError(f"expected DPHI[,DLAM] in degrees, got {args.step!r}") from None
    graticule = atlas.build_graticule(region, dphi, dlam, args.samples_per_degree)
    places: tuple = ()
    if args.gazetteer:
        with open(args.gazetteer, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MapError(f"{args.gazetteer}: not UTF-8 at byte offset {exc.start}") from None
        places = tuple(atlas.load_gazetteer(text, args.prime_meridian))
    arcs = []
    for spec in args.geodesic or ():
        try:
            a_s, b_s = spec.split(":")
        except ValueError:
            raise MapError(f"expected LAT,LON:LAT,LON, got {spec!r}") from None
        arcs.append(
            (_coord(args, *_parse_latlon(a_s)), _coord(args, *_parse_latlon(b_s)), 65)
        )
    scene = atlas.MapScene(
        projection=proj, graticule=graticule, places=places,
        geodesics=tuple(arcs), scale=args.scale, margin=args.margin,
    )
    _write(args.out, atlas.render_svg(scene))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with "-" and a digit, ".digit", "inf"
    or "nan" (any case) as a value, so "--lat -1e-3", "--region
    -30:40,-10:20", "--prime-meridian -infinity" and "--region
    -inf:10,0:10" parse and reach the command's own checks; argparse's own
    test accepts only plain negative numbers. No option name starts that
    way. Subparsers are built with the class of their parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # whole-token pattern, whether argparse applies match or fullmatch
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|(?i:inf|nan)).*", re.DOTALL)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mapproj",
        description="Map projections of the sphere: transforms, distortion, conic design, rendering.",
    )
    parser.add_argument(
        "--prime-meridian", type=float, default=0.0, metavar="DEG",
        help="prime-meridian offset added to all input longitudes (degrees east of Greenwich)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("project", _cmd_project, "project one coordinate to the plane")
    p.add_argument("--proj", required=True, help='projection spec, e.g. "mercator lon0=0"')
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--lon", type=float, required=True)

    p = add("inverse", _cmd_inverse, "invert one plane point back to the sphere")
    p.add_argument("--proj", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)

    p = add("distance", _cmd_distance, "great-circle distance between two points")
    p.add_argument("--from", dest="src", required=True, metavar="LAT,LON")
    p.add_argument("--to", dest="dst", required=True, metavar="LAT,LON")

    p = add("distortion", _cmd_distortion, "distortion grid scan (table or CSV)")
    p.add_argument("--proj", required=True)
    p.add_argument("--region", required=True, metavar="LATLO:LATHI,LONLO:LONHI")
    p.add_argument("--grid", default="11x11", metavar="NxM")
    p.add_argument("--out", help="write CSV here instead of printing a table")

    p = add("properties", _cmd_properties, "report on the four classical map desiderata")
    p.add_argument("--proj", required=True)
    p.add_argument("--region", required=True, metavar="LATLO:LATHI,LONLO:LONHI")
    p.add_argument("--grid", default="21x21", metavar="NxM")

    p = add("optimize", _cmd_optimize, "standard-parallel selection for a latitude band")
    p.add_argument("--band", required=True, metavar="LO:HI")
    p.add_argument("--tol", type=float, default=conic_design.DEFAULT_TOL)
    p.add_argument("--profile", help="write the error profile CSV here")

    p = add("geodesic", _cmd_geodesic, "straightness and arc fit of a projected geodesic")
    p.add_argument("--proj", required=True)
    p.add_argument("--from", dest="src", required=True, metavar="LAT,LON")
    p.add_argument("--to", dest="dst", required=True, metavar="LAT,LON")
    p.add_argument("-n", "--samples", type=int, default=101)
    p.add_argument("--csv", help="write projected samples here")

    p = add("render", _cmd_render, "render a graticule map scene to SVG")
    p.add_argument("--proj", required=True)
    p.add_argument("--region", required=True, metavar="LATLO:LATHI,LONLO:LONHI")
    p.add_argument("--step", default="10", metavar="DPHI[,DLAM]", help="graticule spacing, degrees")
    p.add_argument("--samples-per-degree", type=float, default=4.0)
    p.add_argument("--gazetteer", help="CSV of named places to mark")
    p.add_argument("--geodesic", action="append", metavar="LAT,LON:LAT,LON",
                   help="overlay a great-circle arc (repeatable)")
    p.add_argument("--scale", type=float, default=200.0)
    p.add_argument("--margin", type=float, default=20.0)
    p.add_argument("--out", help="write the SVG here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UnknownFamilyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

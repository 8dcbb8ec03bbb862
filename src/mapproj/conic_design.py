"""Standard-parallel selection for the equidistant conic.

For a latitude band the parallel-scale error k(phi) - 1 vanishes at both
standard parallels, dips below zero between them, and grows positive toward
the band edges, so the choice of parallels is a 1-D minimax problem (meridian
scale is exactly 1 for this family, and k does not depend on longitude). Two
selectors are provided: the classical quarter-width rule, and a minimax
solver whose optimum equioscillates, i.e. the error magnitudes at the two
band edges and at the interior dip all agree.

The minimax optimum is found by Remez exchange (Snyder 1987, section 16).
Writing k(phi) = (A - B*phi)/cos(phi) with B = n the cone constant, the error
is linear in (A, B). On the reference {lo, t, hi} (both band edges and the
interior dip t) the conditions e(lo) = e(hi) = +E, e(t) = -E are linear in
(A, B, E). The exchange then moves t to the dip of the new error, the root of
the dip equation (A/B - phi) sin(phi) = cos(phi), whose left side minus its
right side strictly increases on (0, pi/2). The two edge conditions alone fix
A/B, so the dip equation does not depend on the old t and the exchange
settles after a single step. The standard parallels are then the two roots
of A - B*phi - cos(phi), which is convex, in the sign-changing brackets
[lo, t] and [t, hi]. Every root is found by Newton's method inside its
bracket.

A choice holds its two parallels and its worst error; :func:`error_profile`
samples its error k(phi) - 1 across the band on demand, for plots and CSV.

Every caller asks for a choice's worst error, then its equioscillation
residual, apex and span, in that order. So the one memo here,
``_cone_dip`` (``lru_cache(maxsize=1)``), keeps the cone and the dip of the
most recent pair of parallels: the residual, apex and span of the choice
just computed reuse them instead of solving the cone again. The key is the
pair alone, and the band's errors are computed on every call. A kept result
is the same float the call would compute; nothing older than the last call
is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ConvergenceError, DomainError, ParameterError
from .geo import HALF_PI, _fmt, _slot_setters, linspace
from .projections import ConicConstants, RHO_MIN, conic_constants

SCAN_POINTS = 10_001
MAX_NEWTON_STEPS = 100
DEFAULT_TOL = 1e-6

# positions of the dip when it only refines an error value: the value is
# stationary there, so an error of x in position moves it by about x**2
_DIP_TOL = 1e-10


@dataclass(frozen=True, slots=True, init=False)
class LatBand:
    """Northern latitude band 0 <= phi_lo < phi_hi < pi/2."""

    phi_lo: float
    phi_hi: float

    def __init__(self, phi_lo: float, phi_hi: float):
        if not 0.0 <= phi_lo < phi_hi < HALF_PI:
            lo, hi = (_fmt(math.degrees(phi), ".4f") for phi in (phi_lo, phi_hi))
            raise ParameterError(f"band must satisfy 0 <= lo < hi < 90°, got [{lo}°, {hi}°]")
        if phi_hi - phi_lo <= 1e-6:
            raise ParameterError("band narrower than 1e-6 rad")
        _set_phi_lo(self, phi_lo)
        _set_phi_hi(self, phi_hi)

    @classmethod
    def from_degrees(cls, lo_deg: float, hi_deg: float) -> "LatBand":
        return cls(math.radians(lo_deg), math.radians(hi_deg))

    @property
    def width(self) -> float:
        return self.phi_hi - self.phi_lo


@dataclass(frozen=True, slots=True, init=False)
class ParallelChoice:
    """A pair of standard parallels with its worst error max |k - 1| over
    the band."""

    phi_a: float
    phi_b: float
    max_error: float

    def __init__(self, phi_a: float, phi_b: float, max_error: float):
        _set_phi_a(self, phi_a)
        _set_phi_b(self, phi_b)
        _set_max_error(self, max_error)


_set_phi_lo, _set_phi_hi = _slot_setters(LatBand)
_set_phi_a, _set_phi_b, _set_max_error = _slot_setters(ParallelChoice)


def _scale_error(constants: ConicConstants, phi_a: float, phi: float) -> float:
    """k(phi) - 1 = n*rho/cos(phi) - 1 for the conic whose inner standard
    parallel is phi_a."""
    return constants.n * (constants.rho_ref + phi_a - phi) / math.cos(phi) - 1.0


def parallel_scale(constants: ConicConstants, phi_a: float, phi: float) -> float:
    """Scale along the parallel at phi for the conic whose inner standard
    parallel is phi_a; exactly 1 at both standard parallels."""
    if constants.rho_ref + phi_a - phi <= RHO_MIN:
        raise DomainError(
            f"latitude {math.degrees(phi):.4f}° lies at or beyond the cone apex"
        )
    return 1.0 + _scale_error(constants, phi_a, phi)


def _newton(f, lo: float, hi: float, tol: float, what: str) -> float:
    """Root of f in the ordered bracket lo <= hi, as every caller passes it,
    where f(phi) returns (value, slope) and the values at lo and hi differ
    in sign. Newton steps that would leave the bracket are replaced by
    bisection; stops once a step is within tol."""
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ConvergenceError(f"no sign change bracketing the {what}")
    # the bracket stays ordered; each x replaces the end whose value has
    # its sign, which is hi for a negative value when f falls
    falling = f_lo > 0.0
    x = 0.5 * (lo + hi)
    for _ in range(MAX_NEWTON_STEPS):
        value, slope = f(x)
        if value == 0.0:
            return x
        if (value < 0.0) != falling:
            lo = x
        else:
            hi = x
        nxt = x - value / slope if slope != 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= tol:
            return nxt
        x = nxt
    raise ConvergenceError(f"{what} did not converge in {MAX_NEWTON_STEPS} steps")


def _dip(apex: float, lo: float, hi: float, tol: float) -> float:
    """Latitude of the minimum of k in (lo, hi) for the cone whose meridians
    meet at latitude ``apex``: the root of (apex - phi) sin(phi) = cos(phi).
    The difference of the two sides has slope (apex - phi) cos(phi) > 0
    below the apex, so the root is unique, and it is evaluated without
    cot(phi), which a band starting at the equator would blow up."""
    def equation(phi: float) -> tuple[float, float]:
        ray, cos_phi = apex - phi, math.cos(phi)
        return ray * math.sin(phi) - cos_phi, ray * cos_phi
    return _newton(equation, lo, hi, tol, "interior dip")


@lru_cache(maxsize=1)
def _cone_dip(phi_a: float, phi_b: float) -> tuple[ConicConstants, float | None]:
    """The cone true at phi_a < phi_b and the latitude of its dip between
    them, or None for the dip when that bracket fails: by Rolle the dip lies
    between the standard parallels, but for parallels closer than about
    1e-10 rad the rounding of the apex rho_ref + phi_a and of the dip
    equation can move the computed dip off it."""
    constants = conic_constants(phi_a, phi_b)
    try:
        return constants, _dip(constants.rho_ref + phi_a, phi_a, phi_b, _DIP_TOL)
    except ConvergenceError:
        return constants, None


def _extremal_errors(phi_a: float, phi_b: float,
                     lo: float, hi: float) -> tuple[list[float], float]:
    """k - 1 at the lower and upper edge of the band [lo, hi] and at the
    interior dip, and the latitude of the dip. A dip off the standard
    parallels' bracket is sought in the band; when the band holds none and k
    is monotone over it, the band edge where k is lower stands in for it."""
    constants, t = _cone_dip(phi_a, phi_b)
    if t is None:
        try:
            t = _dip(constants.rho_ref + phi_a, lo, hi, _DIP_TOL)
        except ConvergenceError:
            t = min(lo, hi, key=lambda phi: _scale_error(constants, phi_a, phi))
    return [_scale_error(constants, phi_a, phi) for phi in (lo, hi, t)], t


def band_max_error(phi_a: float, phi_b: float, band: LatBand) -> float:
    """max |k(phi) - 1| over the band, exactly.

    k - 1 has one interior extremum, the dip between the standard parallels,
    and is monotone on either side of it. So the worst error over the band
    is the largest of |e(lo)|, |e(hi)| and, when the dip lies inside the
    band, |e(dip)|.

    The three errors of the most recent call are kept, so that
    :func:`equioscillation_residual` of the choice just computed does not
    solve its dip again; every result is the float a fresh call gives.
    """
    errors, t = _extremal_errors(phi_a, phi_b, band.phi_lo, band.phi_hi)
    if not band.phi_lo < t < band.phi_hi:
        errors = errors[:2]
    return max(map(abs, errors))


def error_profile(band: LatBand, choice: ParallelChoice) -> tuple[list[float], list[float]]:
    """k(phi) - 1 of a choice at SCAN_POINTS evenly spaced latitudes from
    the band's lower to its upper edge: (latitudes, errors)."""
    lats = linspace(band.phi_lo, band.phi_hi, SCAN_POINTS)
    constants = conic_constants(choice.phi_a, choice.phi_b)
    return lats, [_scale_error(constants, choice.phi_a, phi) for phi in lats]


def quarter_rule(band: LatBand) -> ParallelChoice:
    """Parallels at one quarter of the band width in from each edge, i.e.
    equally far from the middle parallel and from the outermost edges."""
    quarter = 0.25 * band.width
    phi_a, phi_b = band.phi_lo + quarter, band.phi_hi - quarter
    return ParallelChoice(phi_a, phi_b, band_max_error(phi_a, phi_b, band))


def minimax_parallels(band: LatBand, tol: float = DEFAULT_TOL) -> ParallelChoice:
    """Parallels minimizing the worst |k - 1| over the band.

    Remez exchange on the reference {band edges, interior dip} (see module
    docstring). ``tol`` bounds the Newton steps on the dip and the parallel
    positions. A failed bracket raises :class:`ConvergenceError` with the
    quarter-rule fallback attached, except on a band 1e-4 rad wide or
    narrower, which returns the quarter rule instead.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ParameterError("tol must be positive and finite")
    lo, hi = band.phi_lo, band.phi_hi
    pos_tol = min(tol, 0.05 * band.width)
    cos_lo = math.cos(lo)
    # with e(lo) = e(hi), A - B*phi is (1 + E) times the chord of cos over
    # the band, so A/B is where that chord reaches zero
    slope = (cos_lo - math.cos(hi)) / band.width
    try:
        t = _dip(lo + cos_lo / slope, lo, hi, pos_tol)
        chord_t = cos_lo + slope * (lo - t)
        one_plus_e = 2.0 * math.cos(t) / (math.cos(t) + chord_t)  # from e(t) = -E

        def standard(phi: float) -> tuple[float, float]:
            """A - B*phi - cos(phi): zero at the standard parallels."""
            return (one_plus_e * (cos_lo + slope * (lo - phi)) - math.cos(phi),
                    math.sin(phi) - one_plus_e * slope)

        phi_a = _newton(standard, lo, t, pos_tol, "inner parallel")
        phi_b = _newton(standard, t, hi, pos_tol, "outer parallel")
    except ConvergenceError as exc:
        # hair-thin bands drown the balance equations in rounding noise;
        # every interior choice is equivalent there, so fall back to the
        # quarter rule
        if band.width <= 1e-4:
            return quarter_rule(band)
        raise ConvergenceError(str(exc), best=quarter_rule(band)) from exc
    return ParallelChoice(phi_a, phi_b, band_max_error(phi_a, phi_b, band))


def equioscillation_residual(band: LatBand, choice: ParallelChoice) -> float:
    """How far a choice is from a true equioscillating optimum.

    Evaluates the error magnitude at the three extremal latitudes (both band
    edges, where k - 1 is positive, and the interior dip, where it is
    negative) and returns the largest deviation from the reported max_error.
    The cone and dip of the choice just computed are the ones its worst
    error solved.
    """
    e_lo, e_hi, e_dip = _extremal_errors(choice.phi_a, choice.phi_b, band.phi_lo, band.phi_hi)[0]
    return max(abs(m - choice.max_error) for m in (e_lo, e_hi, -e_dip))


def apex_overshoot_degrees(phi_a: float, phi_b: float) -> float:
    """Distance of the meridian convergence point beyond the pole, degrees."""
    return math.degrees(_cone_dip(phi_a, phi_b)[0].apex_overshoot)


def semicircle_longitude_span(phi_a: float, phi_b: float) -> float:
    """Longitude degrees spanned by a half-circle of parallels on the map:
    180/n, always more than 180 since the cone constant is below 1."""
    return 180.0 / _cone_dip(phi_a, phi_b)[0].n

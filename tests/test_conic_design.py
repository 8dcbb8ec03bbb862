import dataclasses
import hashlib
import math
import pickle
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapproj import EquidistantConic, GeoCoord, conic_constants, conic_design
from mapproj.conic_design import (
    SCAN_POINTS,
    LatBand,
    ParallelChoice,
    apex_overshoot_degrees,
    band_max_error,
    equioscillation_residual,
    error_profile,
    minimax_parallels,
    parallel_scale,
    quarter_rule,
    semicircle_longitude_span,
)
from mapproj.distortion import tissot
from mapproj.errors import ConvergenceError, DomainError, ParameterError
from mapproj.geo import HALF_PI
from mapproj.projections import ConicConstants


class TestParallelScale:
    def test_unit_at_standard_parallels(self):
        pa, pb = math.radians(45), math.radians(60)
        k = conic_constants(pa, pb)
        assert parallel_scale(k, pa, pa) == pytest.approx(1.0, abs=1e-12)
        assert parallel_scale(k, pa, pb) == pytest.approx(1.0, abs=1e-12)

    def test_interior_dip(self):
        pa, pb = math.radians(45), math.radians(60)
        k = conic_constants(pa, pb)
        assert parallel_scale(k, pa, math.radians(52.5)) == pytest.approx(
            0.9914448613738105, abs=1e-12
        )

    def test_edge_value_matches_distortion_module(self):
        # independent route: finite-difference Tissot k at the same point
        pa, pb = math.radians(45), math.radians(60)
        k = conic_constants(pa, pb)
        closed = parallel_scale(k, pa, math.radians(70))
        assert closed == pytest.approx(1.0582090546569827, abs=1e-12)
        fd = tissot(EquidistantConic(pa, pb), GeoCoord.from_degrees(70, 0)).k
        assert fd == pytest.approx(closed, abs=1e-8)

    def test_beyond_apex(self):
        pa, pb = math.radians(45), math.radians(60)
        k = conic_constants(pa, pb)
        with pytest.raises(DomainError):
            parallel_scale(k, pa, k.rho_ref + pa)


class TestLatBand:
    def test_validation(self):
        with pytest.raises(ParameterError):
            LatBand.from_degrees(70, 45)
        with pytest.raises(ParameterError):
            LatBand.from_degrees(-5, 45)
        with pytest.raises(ParameterError):
            LatBand.from_degrees(45, 90)
        with pytest.raises(ParameterError):
            LatBand(1.0, 1.0 + 1e-8)


_VALUE_TYPES = [
    (LatBand, ("phi_lo", "phi_hi"), (0.5, 1.0)),
    (ParallelChoice, ("phi_a", "phi_b", "max_error"), (0.6, 0.9, 0.01)),
    (ConicConstants, ("n", "rho_ref", "apex_overshoot"), (0.7, 1.1, 0.2)),
]


class TestSlottedValueTypes:
    """LatBand, ParallelChoice and ConicConstants set their slots
    themselves; they still behave as the frozen dataclasses they were."""

    @pytest.mark.parametrize("cls, fields, values", _VALUE_TYPES)
    def test_dataclass_behaviour(self, cls, fields, values):
        value = cls(*values)
        assert cls.__slots__ == fields and not hasattr(value, "__dict__")
        assert tuple(f.name for f in dataclasses.fields(cls)) == fields
        assert tuple(getattr(value, f) for f in fields) == values
        assert cls(**dict(zip(fields, values))) == value
        assert repr(value) == f"{cls.__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
        assert value != cls(*values[:-1], 1.25) and hash(value) == hash(values)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0.0)
        assert dataclasses.replace(value, **{fields[-1]: 1.25}) == cls(*values[:-1], 1.25)
        assert pickle.loads(pickle.dumps(value)) == value
        assert dataclasses.astuple(value) == values
        with pytest.raises(TypeError):
            cls(*values[:-1])

    def test_band_validates_on_replace(self):
        band = LatBand(0.5, 1.0)
        with pytest.raises(ParameterError, match=r"^band must satisfy 0 <= lo < hi < 90°, got "
                                                 r"\[28\.6479°, 14\.3239°\]$"):
            dataclasses.replace(band, phi_hi=0.5 * band.phi_lo)
        with pytest.raises(ParameterError, match=r"^band narrower than 1e-6 rad$"):
            dataclasses.replace(band, phi_hi=band.phi_lo + 1e-7)
        with pytest.raises(ParameterError, match="must satisfy"):
            LatBand(phi_lo=math.nan, phi_hi=1.0)


class TestQuarterRule:
    def test_45_70(self):
        choice = quarter_rule(LatBand.from_degrees(45, 70))
        assert math.degrees(choice.phi_a) == pytest.approx(51.25, abs=1e-12)
        assert math.degrees(choice.phi_b) == pytest.approx(63.75, abs=1e-12)

    def test_40_70(self):
        choice = quarter_rule(LatBand.from_degrees(40, 70))
        assert math.degrees(choice.phi_a) == pytest.approx(47.5, abs=1e-12)
        assert math.degrees(choice.phi_b) == pytest.approx(62.5, abs=1e-12)

    def test_max_error_regression_baseline(self):
        # frozen from the 10^4-point dense scan
        choice = quarter_rule(LatBand.from_degrees(45, 70))
        assert choice.max_error == pytest.approx(0.02470952683847205, abs=1e-12)

    def test_profile_spans_band(self):
        band = LatBand.from_degrees(45, 70)
        lats, errs = error_profile(band, quarter_rule(band))
        assert lats[0] == pytest.approx(band.phi_lo)
        assert lats[-1] == pytest.approx(band.phi_hi)
        assert len(lats) == len(errs)


class TestMinimax:
    def test_dominates_quarter_rule(self):
        for lo, hi in ((45, 70), (40, 70), (30, 60)):
            band = LatBand.from_degrees(lo, hi)
            assert minimax_parallels(band).max_error <= quarter_rule(band).max_error

    def test_equioscillation(self):
        band = LatBand.from_degrees(45, 70)
        choice = minimax_parallels(band)
        assert equioscillation_residual(band, choice) < 1e-4

    def test_against_grid_search_oracle(self):
        # coarse 2-D grid search over parallel pairs cannot beat the solver
        # by more than its own resolution allows
        band = LatBand.from_degrees(45, 70)
        best = minimax_parallels(band).max_error
        lo, hi = band.phi_lo, band.phi_hi
        grid_best = min(
            band_max_error(pa, pb, band)
            for pa in np.linspace(lo + 0.01, hi - 0.02, 40)
            for pb in np.linspace(lo + 0.02, hi - 0.01, 40)
            if pa < pb
        )
        assert best <= grid_best + 1e-6

    def test_interior_sign_structure(self):
        # positive at both edges, one negative region between the parallels
        band = LatBand.from_degrees(45, 70)
        choice = minimax_parallels(band)
        lats, errs = map(np.array, error_profile(band, choice))
        assert errs[0] > 0 and errs[-1] > 0
        inside = errs[(lats > choice.phi_a) & (lats < choice.phi_b)]
        assert inside.min() < 0
        signs = np.sign(errs[np.abs(errs) > 1e-12])
        flips = int(np.sum(signs[1:] != signs[:-1]))
        assert flips == 2

    def test_monotone_in_nested_bands(self):
        widths = [(50, 55), (47.5, 57.5), (45, 60), (42.5, 62.5), (40, 65)]
        errors = [minimax_parallels(LatBand.from_degrees(*w)).max_error for w in widths]
        assert all(b >= a for a, b in zip(errors, errors[1:]))

    def test_degenerate_band_collapses_to_quarter_rule(self):
        # the exchange converges on this hair-thin band at 50°, without the
        # quarter-rule fallback, to parallels near the quarter rule's
        band = LatBand(math.radians(50), math.radians(50) + 2e-6)
        q = quarter_rule(band)
        m = minimax_parallels(band)
        assert abs(m.phi_a - q.phi_a) < 10 * band.width
        assert abs(m.phi_b - q.phi_b) < 10 * band.width

    def test_thin_band_at_the_pole_falls_back_to_the_quarter_rule(self, monkeypatch):
        # on a band of 1e-4 rad or less that ends within about 1e-6 rad of
        # the pole, rounding hides the sign change of the dip equation; the
        # failed bracket returns the quarter rule itself
        band = LatBand(HALF_PI - 1e-9 - 2e-6, HALF_PI - 1e-9)
        calls = []
        monkeypatch.setattr(conic_design, "quarter_rule",
                            lambda b: calls.append(b) or quarter_rule(b))
        assert minimax_parallels(band) == quarter_rule(band)
        assert calls == [band]

    @pytest.mark.xfail(
        strict=True,
        raises=ConvergenceError,
        reason=(
            "known defect: a band 1e-3 to 0.5 rad wide whose upper edge lies "
            "within about 1e-10 rad of the pole loses the sign of the dip "
            "equation at that edge to rounding, and the exchange raises "
            "'no sign change bracketing the interior dip'"
        ),
    )
    @pytest.mark.parametrize("lo, hi", [
        (math.radians(89.9), math.radians(89.99999999999)),
        (HALF_PI - 1e-3, HALF_PI - 5e-11),
    ], ids=["cli band 89.9:89.99999999999", "1e-3 rad band"])
    def test_band_ending_at_the_pole_is_optimized(self, lo, hi):
        band = LatBand(lo, hi)
        assert minimax_parallels(band).max_error <= quarter_rule(band).max_error

    def test_deterministic(self):
        band = LatBand.from_degrees(45, 70)
        one = minimax_parallels(band)
        two = minimax_parallels(band)
        assert one.phi_a == two.phi_a
        assert one.phi_b == two.phi_b
        assert one.max_error == two.max_error
        q1, q2 = quarter_rule(band), quarter_rule(band)
        assert (q1.phi_a, q1.phi_b, q1.max_error) == (q2.phi_a, q2.phi_b, q2.max_error)

    def test_choices_compare_by_value(self):
        band = LatBand.from_degrees(45, 70)
        assert quarter_rule(band) == quarter_rule(band)
        assert minimax_parallels(band) == minimax_parallels(band)
        assert quarter_rule(band) != minimax_parallels(band)

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            minimax_parallels(LatBand.from_degrees(45, 70), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_non_finite_or_negative_tol(self, tol):
        with pytest.raises(ParameterError, match="tol must be positive and finite"):
            minimax_parallels(LatBand.from_degrees(45, 70), tol=tol)

    def test_45_70_no_worse_than_nested_bisection(self):
        # the nested-bisection solver this one replaced reached 0.012164594363393455
        assert minimax_parallels(LatBand.from_degrees(45, 70)).max_error <= 0.012164594363393455


class TestNewton:
    @pytest.mark.parametrize("root, lo, hi", [(1.0, 1.0, 3.0), (3.0, 1.0, 3.0)])
    def test_a_zero_at_a_bracket_end_is_the_root(self, root, lo, hi):
        calls = []

        def f(x):
            calls.append(x)
            return x - root, 1.0

        assert conic_design._newton(f, lo, hi, 1e-12, "root") == root
        assert calls == [lo, hi]

    def test_step_cap(self):
        # no float squares to exactly 2, and no step is within a negative tol
        calls = []

        def f(x):
            calls.append(x)
            return x * x - 2.0, 2.0 * x

        with pytest.raises(ConvergenceError) as err:
            conic_design._newton(f, 1.0, 2.0, -1.0, "root of x*x - 2")
        assert str(err.value) == (
            f"root of x*x - 2 did not converge in {conic_design.MAX_NEWTON_STEPS} steps")
        assert len(calls) == 2 + conic_design.MAX_NEWTON_STEPS


class TestBandMaxError:
    @staticmethod
    def _scan(phi_a, phi_b, band):
        lats = np.linspace(band.phi_lo, band.phi_hi, 200_001)
        k = conic_constants(phi_a, phi_b)
        return float(np.abs(k.n * (k.rho_ref + phi_a - lats) / np.cos(lats) - 1.0).max())

    @pytest.mark.parametrize("lo, hi", [(45, 70), (0, 30), (80, 89.5)])
    def test_equals_dense_scan(self, lo, hi):
        band = LatBand.from_degrees(lo, hi)
        for choice in (quarter_rule(band), minimax_parallels(band)):
            exact = band_max_error(choice.phi_a, choice.phi_b, band)
            assert exact == choice.max_error
            scan = self._scan(choice.phi_a, choice.phi_b, band)
            assert scan <= exact <= scan + 1e-12

    def test_dip_outside_band(self):
        # parallels 55/65 dip near 60, beyond a 45-50 band: the edges decide
        band = LatBand.from_degrees(45, 50)
        pa, pb = math.radians(55), math.radians(65)
        exact = band_max_error(pa, pb, band)
        assert exact == self._scan(pa, pb, band)
        assert exact == abs(parallel_scale(conic_constants(pa, pb), pa, band.phi_lo) - 1.0)

    @pytest.mark.parametrize("gap", [1e-9, 1e-10, 1e-12])
    def test_near_coincident_parallels(self, gap):
        # rounding erases the sign change of the dip equation between
        # parallels this close; the worst error is still well defined
        pa = math.radians(50)
        band = LatBand(pa - 5e-4, pa + 5e-4)
        exact = band_max_error(pa, pa + gap, band)
        scan = self._scan(pa, pa + gap, band)
        assert math.isfinite(exact) and scan <= exact <= scan + 1e-12
        residual = equioscillation_residual(band, ParallelChoice(pa, pa + gap, exact))
        assert math.isfinite(residual)

    def test_thin_band_sweep(self):
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            width = rng.uniform(1.1e-6, 1e-4)
            lo = rng.uniform(0.01, 1.5705)
            band = LatBand(lo, lo + width)
            pa = lo + rng.uniform(0.0, 0.9) * width
            pb = pa + min(10.0 ** rng.uniform(-14.0, -6.0), band.phi_hi - pa)
            exact = band_max_error(pa, pb, band)
            lats = np.linspace(band.phi_lo, band.phi_hi, 2001)
            k = conic_constants(pa, pb)
            scan = float(np.abs(k.n * (k.rho_ref + pa - lats) / np.cos(lats) - 1.0).max())
            # k - 1 is a difference from 1, so its rounding noise is absolute
            assert math.isfinite(exact) and abs(exact - scan) <= 1e-15, (pa, pb, band)
            residual = equioscillation_residual(band, ParallelChoice(pa, pb, exact))
            assert math.isfinite(residual)


# SHA-256 of the float.hex of every latitude, then every error, of the
# profile: the bits the 10 001-point numpy linspace profile had, except that
# five moved when n took its product form (TestConeConstantAccuracy)
_PROFILE_DIGESTS = {
    ((45, 70), "quarter"): "ca94b01ff541c2c160ca00aceb13bf3f03a75e4f4eac4eb339770fded9a780a3",
    ((45, 70), "minimax"): "a9b2c75804510c0f13b3b40ed365882ebb3e5f0343c8d68ee9b97fa8ad81a2be",
    ((0, 30), "quarter"): "eb65d0acbcbec0bc50084d076ab7792764c7140e72ba8ec742c5fba440e0c7e5",
    ((0, 30), "minimax"): "8ce07ba80ea7c04d55a27a187ea950e5a61c03d7762088174b384271f5479be7",
    ((80, 89.5), "quarter"): "0f649ed37eb9a96e9a793a2992ebfd5f360d3efe1e25379c12044ee6a267afe0",
    ((80, 89.5), "minimax"): "ff4f97ad7d6a5dc859a926b1eafbc705cb023430634eab737f557d188b4fc09e",
    ("thin", "quarter"): "eb4c4b5d8d371a77b6be34d16a0c92df2aba24528a2a28c15ffcc066d833436f",
    ("thin", "minimax"): "65a99190c21e20d82f8cf95e11dc19428252dd01db7b2b1bbeb012564307bde0",
}


def _profile_band(key) -> LatBand:
    if key == "thin":  # narrower than 1e-4 rad, where minimax may fall back
        return LatBand(math.radians(50), math.radians(50) + 2e-6)
    return LatBand.from_degrees(*key)


def _profile_choice(key, rule) -> ParallelChoice:
    return (quarter_rule if rule == "quarter" else minimax_parallels)(_profile_band(key))


def _cos_decimal(x: float) -> Decimal:
    """cos x to 60 significant digits, by its Taylor series (|x| < 2)."""
    x2 = Decimal(x) * Decimal(x)
    term = total = Decimal(1)
    k = 0
    while abs(term) > Decimal("1e-62"):
        k += 2
        term = -term * x2 / (k * (k - 1))
        total += term
    return total


def _n_error_ulps(n: float, phi_a: float, phi_b: float) -> float:
    """|n - exact n| in units in the last place of the exact cone constant
    (cos phi_a - cos phi_b) / (phi_b - phi_a) of the two floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (_cos_decimal(phi_a) - _cos_decimal(phi_b)) / (Decimal(phi_b) - Decimal(phi_a))
        return float(abs(Decimal(n) - exact) / Decimal(math.ulp(float(exact))))


def _difference_n(phi_a: float, phi_b: float) -> float:
    """The difference-of-cosines form of n, which cancels as the parallels
    close up; conic_constants used it before the product form."""
    return (math.cos(phi_a) - math.cos(phi_b)) / (phi_b - phi_a)


# the product form 2 sin((a+b)/2) sin((b-a)/2) / (b-a) rounds its two sines,
# two products and one quotient, each by at most half an ulp
N_ULPS = 3.0


class TestConeConstantAccuracy:
    """conic_constants' n against a 60-digit decimal reference: no less
    accurate than the difference form anywhere, far more accurate for close
    parallels."""

    @pytest.mark.parametrize("key, rule", _PROFILE_DIGESTS)
    def test_pinned_bands(self, key, rule):
        choice = _profile_choice(key, rule)
        pa, pb = choice.phi_a, choice.phi_b
        new = _n_error_ulps(conic_constants(pa, pb).n, pa, pb)
        assert new <= _n_error_ulps(_difference_n(pa, pb), pa, pb)
        assert new <= N_ULPS

    def test_random_pairs(self):
        rng = random.Random(20261018)
        new, old = [], []
        for _ in range(300):
            pa, pb = sorted(rng.uniform(1e-3, math.pi / 2 - 1e-3) for _ in range(2))
            new.append(_n_error_ulps(conic_constants(pa, pb).n, pa, pb))
            old.append(_n_error_ulps(_difference_n(pa, pb), pa, pb))
        assert max(new) <= min(max(old), N_ULPS)

    @pytest.mark.parametrize("gap", [10.0 ** e for e in range(-12, -5)])
    def test_close_parallels(self, gap):
        for pa in (0.1, 0.5, 0.7853981633974483, 1.2, 1.55):
            pb = pa + gap
            new = _n_error_ulps(conic_constants(pa, pb).n, pa, pb)
            old = _n_error_ulps(_difference_n(pa, pb), pa, pb)
            assert new <= N_ULPS < 1000.0 * N_ULPS < old, (pa, gap, new, old)


class TestErrorProfile:
    @pytest.mark.parametrize("key, rule", _PROFILE_DIGESTS)
    def test_pinned(self, key, rule):
        band = _profile_band(key)
        choice = _profile_choice(key, rule)
        lats, errs = error_profile(band, choice)
        assert len(lats) == len(errs) == SCAN_POINTS
        assert all(type(v) is float for v in (*lats, *errs))
        text = " ".join(float.hex(v) for v in (*lats, *errs))
        assert hashlib.sha256(text.encode()).hexdigest() == _PROFILE_DIGESTS[key, rule]


def _check_minimax(band):
    choice = minimax_parallels(band)
    lats, errs = error_profile(band, choice)
    dip = lats[int(np.argmin(errs))]
    assert band.phi_lo <= choice.phi_a < dip < choice.phi_b <= band.phi_hi
    assert choice.max_error <= quarter_rule(band).max_error
    return choice


class TestMinimaxSweep:
    @given(st.floats(0.5, 70.0), st.floats(0.0, 1.0))
    @example(30.0, 0.0)  # starts at the equator, where cot(phi) is infinite
    @settings(max_examples=150, deadline=None)
    def test_wide_bands_equioscillate(self, width_deg, where):
        lo_deg = where * (89.5 - width_deg)
        band = LatBand.from_degrees(lo_deg, lo_deg + width_deg)
        choice = _check_minimax(band)
        assert equioscillation_residual(band, choice) <= 1e-9

    @given(st.floats(2e-6, 5e-5), st.floats(0.0, 1.0))
    @example(2e-6, 0.0)
    @settings(max_examples=100, deadline=None)
    def test_thin_bands(self, width, where):
        lo = where * (math.radians(89.5) - width)
        _check_minimax(LatBand(lo, lo + width))


class TestApexOvershoot:
    def test_45_60(self):
        assert apex_overshoot_degrees(math.radians(45), math.radians(60)) == pytest.approx(
            6.21320343559643, abs=1e-10
        )

    def test_tangent_cone_limit(self):
        pa = math.radians(45)
        want = math.degrees(math.cos(pa) / math.sin(pa) - (math.pi / 2 - pa))
        got = apex_overshoot_degrees(pa, pa + 1e-6)
        assert got == pytest.approx(want, abs=1e-4)

    def test_low_latitude_pair_large_but_positive(self):
        over = apex_overshoot_degrees(math.radians(10), math.radians(20))
        assert over > 90.0

    @given(
        st.floats(1.0, 80.0),
        st.floats(1.0, 8.0),
    )
    @settings(max_examples=100)
    def test_always_positive(self, lo_deg, gap_deg):
        pa = math.radians(lo_deg)
        pb = math.radians(min(lo_deg + gap_deg, 89.5))
        if pb <= pa:
            return
        assert apex_overshoot_degrees(pa, pb) > 0.0


class TestSemicircleSpan:
    def test_45_60(self):
        assert semicircle_longitude_span(
            math.radians(45), math.radians(60)
        ) == pytest.approx(227.53426775244478, abs=1e-9)

    def test_polar_limit_approaches_180(self):
        # n -> 1 as the parallels approach the pole (the cone flattens to a
        # tangent plane with no longitude defect)
        span = semicircle_longitude_span(math.radians(89.0), math.radians(89.5))
        assert span == pytest.approx(180.0, abs=0.1)

    def test_equatorial_limit_diverges(self):
        # toward the equator the cone degenerates to a cylinder: n -> 0
        assert semicircle_longitude_span(math.radians(0.5), math.radians(1.0)) > 1e4

    @given(st.floats(1.0, 80.0), st.floats(0.5, 9.0))
    @settings(max_examples=100)
    def test_always_wider_than_180(self, lo_deg, gap_deg):
        pa = math.radians(lo_deg)
        pb = math.radians(min(lo_deg + gap_deg, 89.5))
        if pb <= pa:
            return
        assert semicircle_longitude_span(pa, pb) > 180.0


def _seeded_bands(n: int, seed: int) -> list[LatBand]:
    """n bands: widths log-uniform from 1e-4 rad to 86°, every eighth one
    under 1e-4 rad, and every sixteenth starting at the equator. The thin
    ones end too far from the pole to take minimax_parallels' quarter-rule
    fallback (see test_thin_band_at_the_pole_falls_back_to_the_quarter_rule)."""
    rng = random.Random(seed)
    bands = []
    for i in range(n):
        if i % 8 == 0:
            width = rng.uniform(2e-6, 1e-4)
        else:
            width = math.exp(rng.uniform(math.log(1e-4), math.log(1.5)))
        lo = 0.0 if i % 16 == 1 else rng.uniform(0.0, math.pi / 2 - 1e-6 - width)
        bands.append(LatBand(lo, lo + width))
    return bands


def _design_line(band: LatBand) -> str:
    """Every conic_design output for one band, as float.hex text: each rule's
    parallels, worst error and residual, and its cone's apex and span; an
    error as its type and message (and a fallback's parallels)."""
    fields = []
    for rule in (quarter_rule, minimax_parallels):
        try:
            choice = rule(band)
        except ConvergenceError as exc:
            fields.append(f"{type(exc).__name__}:{exc}")
            choice = exc.best
        for value in (choice.phi_a, choice.phi_b, choice.max_error,
                      equioscillation_residual(band, choice),
                      apex_overshoot_degrees(choice.phi_a, choice.phi_b),
                      semicircle_longitude_span(choice.phi_a, choice.phi_b)):
            fields.append(float.hex(value))
    return " ".join(fields)


DESIGN_DIGEST = "4551189ba584783a3a11129e2512a54536697df707184ddf6cd84a02ed1f0b0f"


class TestDesignDigest:
    """Every conic_design output over 2400 seeded bands, to the bit."""

    def test_pinned(self):
        bands = _seeded_bands(2400, 20261019)
        assert sum(band.width < 1e-4 for band in bands) == 300
        text = "\n".join(_design_line(band) for band in bands)
        assert hashlib.sha256(text.encode()).hexdigest() == DESIGN_DIGEST


def _clear_memos():
    conic_design._cone_dip.cache_clear()


class TestLastCallMemo:
    """_cone_dip keeps the most recent pair of parallels' cone and dip: the
    band's errors are computed on every call, a kept result is the float a
    fresh call gives, and a design job still solves each cone once."""

    def test_a_kept_cone_reads_each_calls_band_edges(self):
        pa, pb = math.radians(45), math.radians(60)
        band_a, band_b = LatBand.from_degrees(40, 70), LatBand.from_degrees(30, 75)

        def outputs(band):
            worst = band_max_error(pa, pb, band)
            return worst, equioscillation_residual(band, ParallelChoice(pa, pb, worst))

        cold = {}
        for band in (band_a, band_b):
            _clear_memos()
            cold[band] = outputs(band)
        assert cold[band_a][0] != cold[band_b][0] and cold[band_a][1] != cold[band_b][1]
        for band in (band_a, band_b, band_a):
            assert outputs(band) == cold[band]

    def test_warm_equals_cold(self, monkeypatch):
        bands = _seeded_bands(200, 20261020) + [LatBand(0.0, 0.5), LatBand(-0.0, 0.5)]

        def outputs():
            lines = [_design_line(band) for band in bands]
            # the residual on the -0.0 band reads the cone and dip kept for
            # the same parallels on the +0.0 band
            best = minimax_parallels(bands[-2])
            return lines + [float.hex(equioscillation_residual(bands[-1], best))]

        warm = outputs()
        monkeypatch.setattr(conic_design, "_cone_dip", conic_design._cone_dip.__wrapped__)
        assert outputs() == warm

    def test_one_band_solves_each_cone_once(self, monkeypatch):
        counts = {"solves": 0, "cones": 0}
        newton, build = conic_design._newton, ConicConstants.__init__

        def counting_newton(*args):
            counts["solves"] += 1
            return newton(*args)

        def counting_build(self, *args, **kwargs):
            counts["cones"] += 1
            build(self, *args, **kwargs)

        monkeypatch.setattr(conic_design, "_newton", counting_newton)
        monkeypatch.setattr(ConicConstants, "__init__", counting_build)
        for band in [LatBand.from_degrees(45, 70)] + _seeded_bands(20, 20261021):
            _clear_memos()
            counts.update(solves=0, cones=0)
            # the five calls of a design job
            quarter_rule(band)
            best = minimax_parallels(band)
            equioscillation_residual(band, best)
            apex_overshoot_degrees(best.phi_a, best.phi_b)
            semicircle_longitude_span(best.phi_a, best.phi_b)
            assert counts == {"solves": 5, "cones": 2}, band

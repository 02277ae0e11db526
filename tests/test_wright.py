"""Tests for the Fox-Wright series evaluator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kstruve import (
    ConvergenceError,
    DomainError,
    PoleError,
    WrightSpec,
    convergence_index,
    wright_eval,
)

# sum_m 1/(m!)^2 = I_0(2), bessel reduction of 0Psi1
I0_AT_2 = 2.279585302336067267437


def gamma_ratio(spec: WrightSpec) -> float:
    num = math.prod(math.gamma(a) for a, _ in spec.upper)
    den = math.prod(math.gamma(b) for b, _ in spec.lower)
    return num / den


class TestWrightSpec:
    def test_tuple_normalization(self):
        spec = WrightSpec(upper=[(1.0, 2.0)], lower=[(0.5, 1.0), (1.5, 1.0)])
        assert spec.upper == ((1.0, 2.0),)
        assert spec.lower == ((0.5, 1.0), (1.5, 1.0))

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_nonpositive_weights_rejected(self, weight):
        with pytest.raises(DomainError):
            WrightSpec(upper=[(1.0, weight)], lower=[(1.0, 1.0)])
        with pytest.raises(DomainError):
            WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, weight)])


class TestConvergenceIndex:
    def test_balanced_pair(self):
        assert convergence_index(WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])) == 0.0

    def test_identity_engine_shape(self):
        # the 2Psi3 shape used by the theorem right-hand sides
        spec = WrightSpec(
            upper=[(2.5, 2.0), (1.0, 1.0)],
            lower=[(3.5, 1.0), (1.5, 1.0), (4.0, 2.0)],
        )
        assert convergence_index(spec) == 1.0

    def test_empty_spec(self):
        assert convergence_index(WrightSpec(upper=[], lower=[])) == 0.0


class TestZeroArgument:
    def test_single_pair(self):
        spec = WrightSpec(upper=[(2.5, 1.0)], lower=[(1.25, 1.0)])
        res = wright_eval(spec, 0.0)
        assert res.value == pytest.approx(math.gamma(2.5) / math.gamma(1.25), rel=1e-14)
        assert res.terms_used == 1

    def test_random_specs_match_gamma_ratio(self):
        rng = random.Random(20260815)
        checked = 0
        while checked < 20:
            p, q = rng.randint(0, 2), rng.randint(1, 3)
            spec = WrightSpec(
                upper=[(rng.uniform(0.2, 4.0), rng.uniform(0.3, 2.0)) for _ in range(p)],
                lower=[(rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.0)) for _ in range(q)],
            )
            if convergence_index(spec) <= -0.9:
                continue
            value = wright_eval(spec, 0.0).value
            assert abs(value - gamma_ratio(spec)) / abs(gamma_ratio(spec)) <= 1e-13
            checked += 1

    def test_negative_upper_parameter(self):
        # Gamma(-0.5)/Gamma(0.5) = -2, exercising the reflection sign path
        spec = WrightSpec(upper=[(-0.5, 1.0)], lower=[(0.5, 1.0)])
        assert wright_eval(spec, 0.0).value == pytest.approx(-2.0, rel=1e-13)


class TestReductions:
    @pytest.mark.parametrize("z", [-2.0, -0.5, 0.5, 2.0])
    def test_exponential(self, z):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
        res = wright_eval(spec, z, tol=1e-14)
        assert res.value == pytest.approx(math.exp(z), rel=1e-12)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_exponential_property(self, z):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
        assert wright_eval(spec, z, tol=1e-14).value == pytest.approx(
            math.exp(z), rel=1e-11, abs=1e-13
        )

    def test_bessel_value(self):
        # 0Psi1 with lower (1,1) at z=1 is sum 1/(m!)^2 = I_0(2)
        spec = WrightSpec(upper=[], lower=[(1.0, 1.0)])
        res = wright_eval(spec, 1.0, tol=1e-14)
        assert res.value == pytest.approx(I0_AT_2, rel=1e-12)

    def test_entire_shape_evaluates_everywhere(self):
        spec = WrightSpec(
            upper=[(3.0, 2.0), (1.0, 1.0)],
            lower=[(3.5, 1.0), (1.5, 1.0), (5.0, 2.0)],
        )
        assert convergence_index(spec) == 1.0
        for z in (-50.0, -1.0, 0.25, 50.0):
            res = wright_eval(spec, z, tol=1e-12)
            assert math.isfinite(res.value)


class TestErrorPaths:
    def test_divergent_index_refused(self):
        spec = WrightSpec(upper=[(1.0, 2.0)], lower=[(1.0, 1.0)])  # index -1
        with pytest.raises(ConvergenceError):
            wright_eval(spec, 0.5)
        spec = WrightSpec(upper=[(1.0, 2.5)], lower=[(1.0, 1.0)])  # index -1.5
        with pytest.raises(ConvergenceError):
            wright_eval(spec, 0.5)

    @pytest.mark.parametrize("b", [0.0, -1.0, -2.0])
    def test_lower_pole_detected_exactly(self, b):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(b, 1.0)])
        with pytest.raises(PoleError):
            wright_eval(spec, 0.5)

    def test_lower_pole_detected_by_proximity(self):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1e-10, 1.0)])
        with pytest.raises(PoleError):
            wright_eval(spec, 0.5)

    def test_near_pole_outside_window_is_finite(self):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1e-8, 1.0)])
        res = wright_eval(spec, 0.5)
        assert math.isfinite(res.value)

    def test_pole_reached_mid_series(self):
        # lower argument walks -1.5, -1.0, ... and hits the pole at m = 1
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(-1.5, 0.5)])
        with pytest.raises(PoleError):
            wright_eval(spec, 0.5)

    def test_bad_z_rejected(self):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
        with pytest.raises(DomainError):
            wright_eval(spec, float("nan"))
        with pytest.raises(DomainError):
            wright_eval(spec, 1.0, tol=-1e-10)


class TestErrorBound:
    @pytest.mark.parametrize("z", [-3.0, 0.5, 4.0])
    def test_soundness_by_tightening(self, z):
        spec = WrightSpec(
            upper=[(1.5, 2.0), (1.0, 1.0)],
            lower=[(2.5, 1.0), (1.5, 1.0), (3.0, 2.0)],
        )
        loose = wright_eval(spec, z, tol=1e-8)
        tight = wright_eval(spec, z, tol=1e-10)
        assert abs(loose.value - tight.value) <= loose.error_bound

    def test_stopping_rule_is_relative_below_unit_scale(self):
        # sum_m 1/Gamma(40 + m) is about 5e-47, far below any absolute target
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(40.0, 1.0)])
        res = wright_eval(spec, 1.0, tol=1e-12)
        exact = math.fsum(math.exp(-math.lgamma(40.0 + m)) for m in range(40))
        assert 0.0 < res.error_bound <= 1e-12 * abs(res.value)
        assert res.value == pytest.approx(exact, rel=1e-12)

    def test_tail_waits_for_positive_arguments(self):
        # Gamma(-2.3 + m/2) changes sign until m = 5; mpmath nsum at 30 digits
        spec = WrightSpec(upper=[(-2.3, 0.5)], lower=[(1.0, 0.7)])
        res = wright_eval(spec, 0.8, tol=1e-10)
        assert abs(res.value - 1.979766626757970525) <= res.error_bound

    def test_shifted_factors_are_exact(self):
        # Gamma(a + 2(m + 1)) / Gamma(a + 2m) = (2m + a)(2m + a + 1), and
        # a + 1 is not a double here: the fixed-point ratio takes the exact sum
        a = 0.7000000000000001
        an, ad = a.as_integer_ratio()
        assert (a + 1.0).as_integer_ratio() != (an + ad, ad)
        spec = WrightSpec(upper=[(a, 2.0), (1.0, 1.0)], lower=[(1.5, 1.0), (3.25, 2.0)])
        table = spec._plan.table
        table.grow(2)
        q = Fraction(an, ad)
        for m in range(2):
            exact = (2 * m + q) * (2 * m + q + 1) / (
                (m + Fraction(3, 2)) * (2 * m + Fraction(13, 4)) * (2 * m + Fraction(17, 4))
            )
            assert Fraction(table.nums[m], table.dens[m]) / Fraction(2) ** table.shift == exact

    def test_terms_bounded(self):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
        res = wright_eval(spec, 3.0, tol=1e-13, max_terms=1000)
        assert 0 < res.terms_used <= 1000
        assert res.error_bound >= 0.0

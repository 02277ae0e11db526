"""Tests for the gamma kernel: classical, signed, and k-deformed."""

import math

import pytest
from hypothesis import given, strategies as st

from kstruve import (
    ConvergenceError,
    DomainError,
    OverflowRangeError,
    PoleError,
    gamma,
    k_gamma,
    log_abs_gamma,
    log_gamma,
)
from kstruve.gamma import log_k_gamma

from oracles import k_gamma_integral_oracle

SQRT_PI = math.sqrt(math.pi)

# mpmath at 30 significant digits, rounded to double precision
LOG_GAMMA_GOLDEN = {
    1e-6: 13.81550998074943166921,
    0.007: 4.957844784368177026291,
    3.7: 1.428072326665387921872,
    123.456: 469.6055471299294687301,
    1e6: 12815504.56914761165998,
}
LOG_ABS_GAMMA_GOLDEN = {
    -0.5: (1.265512123484645396489, -1.0),
    -1.5: (0.8600470153764810145109, 1.0),
    -2.5: (-0.05624371649767405067259, -1.0),
    -4.2: (-1.807516661419290317262, -1.0),
}


class TestGamma:
    def test_factorials(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma(1.0) == 1.0
        assert gamma(11.0) == pytest.approx(3628800.0, rel=1e-14)

    def test_half_integer_values(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        assert gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)
        assert gamma(1.5) == pytest.approx(SQRT_PI / 2.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_overflow_is_policed(self):
        with pytest.raises(OverflowRangeError):
            gamma(200.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            gamma(float("nan"))
        with pytest.raises(DomainError):
            gamma(float("inf"))

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.5, 10.5])
    def test_recurrence(self, x):
        # Gamma(x+1) = x Gamma(x)
        lhs = gamma(x + 1.0)
        rhs = x * gamma(x)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-13

    @given(st.floats(min_value=0.05, max_value=80.0))
    def test_recurrence_property(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


class TestLogGamma:
    def test_exact_zeros(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-14)

    @pytest.mark.parametrize("x, want", sorted(LOG_GAMMA_GOLDEN.items()))
    def test_golden_values(self, x, want):
        assert log_gamma(x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestLogAbsGamma:
    @pytest.mark.parametrize("x, want", sorted(LOG_ABS_GAMMA_GOLDEN.items()))
    def test_negative_arguments(self, x, want):
        log_mag, sign = log_abs_gamma(x)
        assert log_mag == pytest.approx(want[0], rel=1e-13, abs=1e-13)
        assert sign == want[1]

    def test_positive_arguments_match_log_gamma(self):
        for x in (0.25, 1.0, 7.5):
            log_mag, sign = log_abs_gamma(x)
            assert sign == 1.0
            assert log_mag == log_gamma(x)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            log_abs_gamma(-3.0)

    @given(st.floats(min_value=-30.0, max_value=-0.01))
    def test_sign_has_floor_parity(self, x):
        # sign of Gamma(x) on (-n-1, -n) alternates, + for even floor
        if abs(x - round(x)) < 1e-6:
            return
        _, sign = log_abs_gamma(x)
        expected = 1.0 if math.floor(x) % 2 == 0 else -1.0
        assert sign == expected


class TestKGamma:
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5])
    def test_unit_value_at_z_equals_k(self, k):
        assert k_gamma(k, k) == pytest.approx(1.0, rel=1e-14)

    def test_small_integer_case(self):
        assert k_gamma(4.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("z", [0.3, 1.0, 4.5])
    def test_reduction_at_k_one(self, z):
        assert k_gamma(z, 1.0) == pytest.approx(gamma(z), rel=1e-14)

    @pytest.mark.parametrize("z", [0.3, 0.9, 1.7, 4.2])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5])
    def test_recurrence_grid(self, z, k):
        lhs = k_gamma(z + k, k)
        rhs = z * k_gamma(z, k)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-12

    @given(
        st.floats(min_value=0.05, max_value=40.0),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_recurrence_property(self, z, k):
        # z/k <= 80 keeps Gamma(z/k) comfortably inside the double range
        assert k_gamma(z + k, k) == pytest.approx(z * k_gamma(z, k), rel=1e-11)

    @pytest.mark.parametrize("z, k", [(0.0, 1.0), (-2.0, 2.0), (-1.5, 0.5)])
    def test_poles_raise(self, z, k):
        with pytest.raises(PoleError):
            k_gamma(z, k)

    def test_overflow_is_policed(self):
        with pytest.raises(OverflowRangeError):
            k_gamma(400.0, 1.0)

    def test_bad_k_rejected(self):
        with pytest.raises(DomainError):
            k_gamma(1.0, 0.0)
        with pytest.raises(DomainError):
            k_gamma(1.0, -2.0)

    def test_log_k_gamma_consistency(self):
        for z, k in ((0.7, 0.5), (3.0, 2.0), (12.0, 3.5)):
            assert math.exp(log_k_gamma(z, k)) == pytest.approx(k_gamma(z, k), rel=1e-13)


class TestDoubleRangeEdge:
    """Gamma_k and its logarithm where a factor nears the edge of the double range (mpmath, 40 digits)."""

    @pytest.mark.parametrize("z", [1e-305, 3e-306, 171.5])
    def test_k_gamma_keeps_the_direct_products_digits(self, z):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = mp.gamma(mp.mpf(z))
            assert abs((k_gamma(z, 1.0) - want) / want) <= 4e-16

    @pytest.mark.parametrize(
        "z, k", [(1.0, 3e-306), (100.0, 1e-304), (3.0, 1e-305), (1.2e-18, 5e-324)]
    )
    def test_log_k_gamma_beyond_lgammas_range(self, z, k):
        # log Gamma(z/k), or at the last point (z/k - 1) log k, overflows on
        # its own, log Gamma_k(z) is a double
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            t = mp.mpf(z) / mp.mpf(k)
            want = (t - 1) * mp.log(mp.mpf(k)) + mp.loggamma(t)
            assert abs((log_k_gamma(z, k) - want) / want) <= 1e-15

    @pytest.mark.parametrize("z, k", [(1e308, 100.0), (1.797e308, 704.8)])
    def test_log_k_gamma_beyond_the_double_range_raises(self, z, k):
        # without and with a finite log Gamma(z/k)
        with pytest.raises(OverflowRangeError):
            log_k_gamma(z, k)


class TestKGammaIntegralOracle:
    def test_exact_cases(self):
        assert k_gamma_integral_oracle(1.0, 1.0) == pytest.approx(1.0, rel=1e-9)
        assert k_gamma_integral_oracle(2.0, 2.0) == pytest.approx(1.0, rel=1e-9)
        assert k_gamma_integral_oracle(3.0, 1.0) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_consistency_with_k_gamma(self, z, k):
        direct = k_gamma(z, k)
        oracle = k_gamma_integral_oracle(z, k, tol=1e-10)
        assert abs(direct - oracle) / direct <= 1e-8

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            k_gamma_integral_oracle(0.0, 1.0)

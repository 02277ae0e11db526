"""Tests for the k-Struve series and its classical specializations."""

import math
import time

import pytest
from hypothesis import given, strategies as st

from kstruve import (
    ConvergenceError,
    DomainError,
    StruveParams,
    k_struve,
    struve_h,
    struve_l,
    struve_ode_residual,
)

# mpmath struveh/struvel at 40 digits, rounded to double precision
STRUVE_H_GOLDEN = {
    (0.0, 0.5): 0.3095559145837547181641,
    (0.0, 1.0): 0.5686566270482879509864,
    (0.0, 2.0): 0.7908588495080958925517,
    (0.0, 4.0): 0.1350145734224863971619,
    (1.0, 0.5): 0.0521737442423410703756,
    (1.0, 1.0): 0.1984573362019443989353,
    (1.0, 2.0): 0.6467637282835621171228,
    (1.0, 4.0): 1.069726661308919359307,
}
STRUVE_L0_AT_1 = 0.7102431859378908887385
# S at (nu=1, c=4, k=4, x=2); equals 4**(-3/4) * H_{1/4}(2) by scaling
SK_GOLDEN = 0.2910163945269233393972


class TestStruveParams:
    def test_valid_construction(self):
        p = StruveParams(nu=2.0, c=1.0, k=0.5)
        assert p.power == pytest.approx(5.0)

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            StruveParams(nu=1.0, c=1.0, k=0.0)
        with pytest.raises(DomainError):
            StruveParams(nu=1.0, c=1.0, k=-1.0)

    def test_nu_lower_bound(self):
        with pytest.raises(DomainError):
            StruveParams(nu=-1.5, c=1.0, k=1.0)
        with pytest.raises(DomainError):
            StruveParams(nu=-4.0, c=1.0, k=2.0)
        # just inside the domain is fine
        StruveParams(nu=-1.499, c=1.0, k=1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            StruveParams(nu=float("nan"), c=1.0, k=1.0)


class TestGoldenValues:
    @pytest.mark.parametrize("nu_x, want", sorted(STRUVE_H_GOLDEN.items()))
    def test_struve_h(self, nu_x, want):
        nu, x = nu_x
        res = struve_h(nu, x, tol=1e-14)
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert res.error_bound <= 1e-14 * max(1.0, abs(res.value))

    def test_struve_l_at_one(self):
        res = struve_l(0.0, 1.0, tol=1e-14)
        assert res.value == pytest.approx(STRUVE_L0_AT_1, rel=1e-12)

    def test_k_struve_scaled_point(self):
        res = k_struve(StruveParams(nu=1.0, c=4.0, k=4.0), 2.0, tol=1e-14)
        assert res.value == pytest.approx(SK_GOLDEN, rel=1e-12)

    def test_l_dominates_h(self):
        # all-positive terms dominate the alternating series
        assert struve_l(0.0, 1.0).value > struve_h(0.0, 1.0).value

    def test_l_direct_series(self):
        # L_0(1) = sum_r (1/2)^(2r+1) / Gamma(r+3/2)^2
        direct = math.fsum(
            0.5 ** (2 * r + 1) / math.gamma(r + 1.5) ** 2 for r in range(30)
        )
        assert struve_l(0.0, 1.0, tol=1e-14).value == pytest.approx(direct, rel=1e-13)


class TestZeroArgument:
    def test_positive_leading_power_gives_zero(self):
        res = k_struve(StruveParams(nu=1.0, c=1.0, k=1.0), 0.0)
        assert res.value == 0.0
        assert res.error_bound == 0.0
        assert res.terms_used == 0
        assert struve_h(0.5, 0.0).value == 0.0
        assert struve_l(1.0, 0.0).value == 0.0

    def test_zero_leading_power_keeps_first_term(self):
        # nu/k + 1 = 0: only r = 0 survives, 1/(Gamma(1/2) Gamma(3/2)) = 2/pi
        res = k_struve(StruveParams(nu=-1.0, c=1.0, k=1.0), 0.0)
        assert res.value == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert res.terms_used == 1

    def test_negative_leading_power_diverges(self):
        with pytest.raises(DomainError):
            k_struve(StruveParams(nu=-1.25, c=1.0, k=1.0), 0.0)


class TestReductions:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_h_reduction_is_bit_identical(self, nu, x):
        direct = k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x)
        via_h = struve_h(nu, x)
        assert direct == via_h

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
    def test_l_reduction_is_bit_identical(self, nu, x):
        direct = k_struve(StruveParams(nu=nu, c=-1.0, k=1.0), x)
        via_l = struve_l(nu, x)
        assert direct == via_l

    @given(
        st.floats(min_value=-0.99, max_value=8.0),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_reduction_property(self, nu, x):
        # nu >= -0.99 keeps the leading power nonnegative so x = 0 is legal
        assert k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x) == struve_h(nu, x)


class TestScalingIdentity:
    @pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("order", [0.5, 1.5])  # this is nu/k
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_reduces_to_classical_h(self, k, c, order, x):
        # S^k_{nu,c}(x) = k^-(nu/k+1/2) (c/k)^-((nu/k+1)/2) H_{nu/k}(x sqrt(c/k))
        nu = order * k
        lhs = k_struve(StruveParams(nu=nu, c=c, k=k), x, tol=1e-13).value
        scale = k ** -(order + 0.5) * (c / k) ** (-(order + 1.0) / 2.0)
        rhs = scale * struve_h(order, x * math.sqrt(c / k), tol=1e-13).value
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


class TestNegativeArgument:
    def test_odd_leading_power_flips_sign(self):
        # nu = 0 -> nu/k + 1 = 1 (odd): H_0 is odd
        pos = struve_h(0.0, 2.0)
        neg = struve_h(0.0, -2.0)
        assert neg.value == -pos.value
        assert neg.error_bound == pos.error_bound

    def test_even_leading_power_is_symmetric(self):
        # nu = 1 -> nu/k + 1 = 2 (even): H_1 is even
        assert struve_h(1.0, -2.0).value == struve_h(1.0, 2.0).value

    def test_fractional_power_rejects_negative(self):
        with pytest.raises(DomainError):
            struve_h(0.5, -1.0)


class TestSeriesBehavior:
    def test_stopping_rule_is_relative_below_unit_scale(self):
        # S is about 4.2e-11 here; an absolute target would stop at a bound
        # near 2e-18, some 5e-8 of the value
        res = k_struve(StruveParams(nu=2.0, c=1.0, k=1.0), 1e-3, tol=1e-12)
        assert 0.0 < res.error_bound <= 1e-12 * abs(res.value)

    def test_l_partial_sums_increase_with_terms(self):
        # all L terms are positive, so tighter tolerances only add mass
        evals = [struve_l(0.0, 2.0, tol=tol) for tol in (1e-3, 1e-6, 1e-9, 1e-12)]
        values = [e.value for e in evals]
        terms = [e.terms_used for e in evals]
        assert values == sorted(values)
        assert terms == sorted(terms)
        assert terms[0] < terms[-1]

    @pytest.mark.parametrize(
        "params, x",
        [
            (StruveParams(nu=0.0, c=1.0, k=1.0), 1.0),
            (StruveParams(nu=2.0, c=-1.0, k=1.0), 3.0),
            (StruveParams(nu=1.0, c=1.0, k=2.0), 0.7),
            (StruveParams(nu=3.0, c=2.0, k=0.5), 2.0),
        ],
    )
    def test_error_bound_soundness(self, params, x):
        loose = k_struve(params, x, tol=1e-8)
        tight = k_struve(params, x, tol=1e-10)
        assert abs(loose.value - tight.value) <= loose.error_bound

    def test_extreme_argument_fails_loudly(self):
        with pytest.raises(ConvergenceError):
            k_struve(StruveParams(nu=0.0, c=1.0, k=1.0), 1e8)

    def test_extreme_argument_is_refused_before_summing(self):
        # the terms peak near r = x/2: the term count is checked before the
        # fixed-point path allocates anything
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="more than 500 terms"):
            k_struve(StruveParams(nu=0.0, c=1.0, k=1.0), 1e8)
        assert time.perf_counter() - start < 1.0

    def test_bad_tol_rejected(self):
        with pytest.raises(DomainError):
            struve_h(0.0, 1.0, tol=0.0)

    def test_terms_used_bounded(self):
        res = k_struve(StruveParams(nu=0.0, c=1.0, k=1.0), 10.0, tol=1e-12)
        assert 0 < res.terms_used <= 500


class TestOdeResidual:
    @pytest.mark.parametrize("nu", [0.0, 1.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 4.0])
    def test_h_satisfies_its_ode(self, nu, x):
        # x^2 y'' + x y' + (x^2 - nu^2) y = 4 (x/2)^(nu+1) / (sqrt(pi) Gamma(nu+1/2))
        residual = struve_ode_residual(nu, x, step=1e-4, tol=1e-12)
        assert residual >= 0.0
        assert residual <= 1e-6

    def test_stencil_must_stay_in_domain(self):
        with pytest.raises(DomainError):
            struve_ode_residual(0.0, 1e-5, step=1e-4)

    def test_bad_step_rejected(self):
        with pytest.raises(DomainError):
            struve_ode_residual(0.0, 1.0, step=0.0)

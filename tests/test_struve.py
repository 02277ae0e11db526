"""Tests for the k-Struve series and its classical specializations."""

import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from kstruve import (
    ConvergenceError,
    DomainError,
    StruveParams,
    WrightSpec,
    k_struve,
    struve_h,
    struve_l,
    wright_eval,
)
from kstruve import struve as struve_module
from kstruve.fixedpoint import UNIT
from kstruve.struve import k_struve_poly

from oracles import struve_ode_residual

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


class TestFoxWrightForm:
    # S(x) = (x/2)**(nu/k + 1) k**-(nu/k + 1/2)
    #        * 1Psi2[(1, 1); (nu/k + 3/2, 1), (3/2, 1); -c x**2/(4k)]

    @staticmethod
    def _points(seed, c_choices, wmin, wmax, count):
        # nu/k a multiple of 1/8 and k a power of two, so that nu/k + 3/2 and
        # the exponents are exact doubles; w = x sqrt(|c|/k)
        rng = random.Random(seed)
        for _ in range(count):
            k = rng.choice([0.25, 0.5, 1.0, 2.0])
            nuk = rng.randint(-11, 160) / 8.0
            c = rng.choice(c_choices)
            x = rng.uniform(wmin, wmax) * math.sqrt(k / abs(c))
            yield StruveParams(nu=nuk * k, c=c, k=k), nuk, x

    @pytest.mark.parametrize(
        "seed, c_choices, wmin, wmax",
        [
            (1, (-2.0, -1.0, -0.5), 0.01, 12.0),  # c < 0
            (2, (0.5, 1.0, 2.0), 0.01, 7.99),  # c > 0 below the fixed-point switch
            (3, (0.5, 1.0, 2.0), 8.0, 40.0),  # c > 0 from x sqrt(c/k) = 8 on
        ],
    )
    def test_k_struve_equals_its_fox_wright_form(self, seed, c_choices, wmin, wmax):
        for params, nuk, x in self._points(seed, c_choices, wmin, wmax, 30):
            k, c = params.k, params.c
            series = k_struve(params, x, tol=1e-12)
            spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(nuk + 1.5, 1.0), (1.5, 1.0)])
            psi = wright_eval(spec, -c * x * x / (4.0 * k), tol=1e-12)
            front = (0.5 * x) ** (nuk + 1.0) * k ** -(nuk + 0.5)
            form = front * psi.value
            # two powers and two products, each within an ulp
            slack = series.error_bound + abs(front) * psi.error_bound + 8.0 * UNIT * abs(form)
            assert abs(series.value - form) <= slack, (params, x)


class TestPolynomial:
    """k_struve_poly: the series on (0, W] built once, evaluated by Horner."""

    @pytest.mark.parametrize("c, k", [(1.0, 1.0), (2.0, 0.5), (1.0, 2.0), (0.3, 1.0)])
    def test_fixed_point_regime_is_served(self, c, k):
        params = StruveParams(nu=2.0, c=c, k=k)
        edge = 8.0 * math.sqrt(k / c)  # W sqrt(c/k) = 8
        assert k_struve_poly(params, 0.99 * edge, 1e-12) is not None
        for wmax in (edge, 2.0 * edge, 5.0 * edge):
            poly = k_struve_poly(params, wmax, 1e-12)
            for w in (0.1 * wmax, 0.5 * wmax, 0.9 * wmax, wmax):
                value, bound = poly(w)
                ref = k_struve(params, w, tol=1e-12)
                assert abs(value - ref.value) <= bound + ref.error_bound
                assert bound <= 1e-12 * abs(value)

    def test_negative_c_has_no_fixed_point_limit(self):
        assert k_struve_poly(StruveParams(nu=2.0, c=-1.0, k=1.0), 20.0, 1e-12) is not None

    def test_agrees_with_k_struve_inside_and_declines_outside(self):
        params = StruveParams(nu=2.3, c=1.0, k=1.0)
        poly = k_struve_poly(params, 5.0, 1e-12)
        for w in (1e-6, 0.1, 1.0, 2.5, 4.9, 5.0):
            value, bound = poly(w)
            ref = k_struve(params, w, tol=1e-12)
            assert abs(value - ref.value) <= bound + ref.error_bound
            assert bound <= 1e-12 * abs(value)
        for w in (0.0, -1.0, math.nextafter(5.0, 6.0), math.nan):
            assert poly(w) is None

    @pytest.mark.parametrize("c, wmax", [(-1.0, 3.0), (1.0, 1.5), (1.0, 5.0)])
    def test_double_polynomial_computes_its_leading_term_inline(self, c, wmax, monkeypatch):
        # a certified point (c = -1; c = 1 at W = 1.5) and a per-node one (c = 1 at W = 5)
        params = StruveParams(nu=2.3, c=c, k=1.0)
        expected = [k_struve_poly(params, wmax, 1e-12)(w) for w in (1e-3, 0.7, wmax)]

        def refuse(*args):
            raise AssertionError("_lead called")

        monkeypatch.setattr(struve_module, "_lead", refuse)
        poly = k_struve_poly(params, wmax, 1e-12)
        rel = struve_module._double_horner(params, wmax, 1e-12)[-1]
        assert (rel <= 1e-12) is (wmax < 5.0)
        assert [poly(w) for w in (1e-3, 0.7, wmax)] == expected

    # nu = 2, c = k = 1, W = 40: (w, value, bound) for a node of the double
    # polynomial on (0, 8], one of integer Horner and one of the Taylor shift (sigma <= 0.2)
    FIXED_POINT_PINS = [
        (3.0, "0x1.7c1a1b0680966p-1", "0x1.ff686217d856ep-46"),
        (20.0, "0x1.0c9bc2faf1521p+2", "0x1.6a1685c67f025p-47"),
        (38.0, "0x1.0453e0c665964p+3", "0x1.2c97bf445ea27p-42"),
    ]

    def _check_fixed_point_pins(self):
        poly = k_struve_poly(StruveParams(nu=2.0, c=1.0, k=1.0), 40.0, 1e-12)
        for w, value, bound in self.FIXED_POINT_PINS:
            assert poly(w) == (float.fromhex(value), float.fromhex(bound))
        assert poly(math.nextafter(40.0, 41.0)) is None

    def test_fixed_point_polynomial_is_bit_identical(self):
        self._check_fixed_point_pins()

    def test_fixed_point_polynomial_computes_its_leading_term_inline(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_lead called")

        monkeypatch.setattr(struve_module, "_lead", refuse)
        self._check_fixed_point_pins()

    def test_fixed_point_polynomial_without_a_double_polynomial_declines_outside(self):
        # nu/k = 300: scale0 underflows, so no node below 8 sqrt(k/c) or above it is served
        params = StruveParams(nu=300.0, c=1.0, k=1.0)
        assert params._series.scale0 == 0.0
        poly = k_struve_poly(params, 40.0, 1e-12)
        for w in (-1.0, 0.0, -0.0, 4.0, 20.0, math.nextafter(40.0, 41.0)):
            assert poly(w) is None


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

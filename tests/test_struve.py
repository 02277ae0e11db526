"""Tests for the k-Struve series and its classical specializations."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st, target

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

from oracles import mp_k_struve, struve_ode_residual

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

    @pytest.mark.parametrize(
        "params, x",
        [
            (StruveParams(nu=2.0, c=-1.0, k=1.0), 3.0),  # certified double polynomial
            (StruveParams(nu=2.0, c=1.0, k=1.0), 30.0),  # Taylor shift at xmax
            (StruveParams(nu=0.0, c=1.0, k=1.0), 60.0),  # integer Horner
            (StruveParams(nu=1000.0, c=-1.0, k=1.0), 345.0),  # leading term below the normal range
        ],
    )
    def test_each_form_serves_the_negative_node(self, params, x):
        pos = k_struve(params, x)
        neg = k_struve(params, -x)
        sign = (-1.0) ** params.power
        assert neg == (sign * pos.value, pos.error_bound, pos.terms_used)
        assert neg.value != 0.0


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

    def test_a_leading_term_taken_from_its_logarithm_reports_its_own_error(self):
        # near the bottom of the normal range the evaluator takes the term from
        # its logarithm (struve._lead), whose error at this x exceeds tol / 2
        # although the coefficient's own error does not
        params = StruveParams(2.9097040631431024, 1.0, 0.5)
        x = 1.1254819742927913e-44
        assert params.lead_error < 0.5e-13
        message = r"tol=1e-13 is below the accuracy of the leading term \(relative error 3.92e-13\)"
        with pytest.raises(ConvergenceError, match=message):
            k_struve(params, x, tol=1e-13)
        res = k_struve(params, x, tol=1e-12)
        assert res.terms_used == 1 and res.error_bound <= 1e-12 * res.value

    def test_negative_c_reaches_every_tol_down_to_the_leading_term(self):
        """400 seeded c < 0 calls at tol 1e-12 to 1e-14 against mpmath.

        Every term is positive, but the double polynomial's bound grows by
        ``step_ulps`` per degree and fails first near tol 1e-14; the integer
        terms serve there.  No call runs out of terms, every bound holds, and
        the only refusal left is a tol below the leading term's accuracy.
        """
        mp = pytest.importorskip("mpmath")
        rng = random.Random(28)
        served = 0
        for _ in range(400):
            k = rng.choice((0.25, 0.5, 1.0, 2.0, 3.0))
            nu = k * rng.uniform(-1.4, 12.0)
            c = -rng.choice((0.5, 1.0, 2.0, 3.0))
            x = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
            tol = 10.0 ** rng.uniform(-14.0, -12.0)
            params = StruveParams(nu=nu, c=c, k=k)
            try:
                res = k_struve(params, x, tol=tol)
            except ConvergenceError as exc:
                assert "below the accuracy of the leading term" in str(exc), (params, x, tol)
                continue
            error = abs(mp.mpf(res.value) - mp_k_struve(mp, nu, c, k, x))
            assert error <= res.error_bound <= tol * abs(res.value), (params, x, tol)
            served += 1
        assert served >= 380

    def test_negative_c_at_tol_1e_14_takes_the_integer_terms(self):
        # the double bound fails here while the leading term's error is 2.1e-15
        params = StruveParams(nu=1.8177963168764775, c=-1.2016404628653719, k=2.0)
        x = 4.679380365510313
        res = k_struve(params, x, tol=1e-14)
        assert res.value == 4.04497770785031
        assert res.error_bound <= 1e-14 * res.value
        mp = pytest.importorskip("mpmath")
        assert abs(mp.mpf(res.value) - mp_k_struve(mp, params.nu, params.c, params.k, x)) <= (
            res.error_bound
        )

    @pytest.mark.parametrize("c", [1.0, 0.0, -1.0])
    def test_a_tol_below_the_leading_term_builds_no_integer_terms(self, monkeypatch, c):
        # no integer bound can fall below the leading term's error, so a tol
        # under it is refused without a fixed-point pass
        builds = []
        build = struve_module._integer_horner
        monkeypatch.setattr(struve_module, "_integer_horner", lambda *a: builds.append(a) or build(*a))
        message = r"tol=1e-15 is below the accuracy of the leading term \(relative error 2.06e-15\)"
        with pytest.raises(ConvergenceError, match=message):
            k_struve(StruveParams(2.0, c, 1.0), 1.0, tol=1e-15)
        assert builds == []

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
        # k_struve is one node of k_struve_poly, so the reference is mpmath
        mp = pytest.importorskip("mpmath")
        params = StruveParams(nu=2.0, c=c, k=k)
        edge = 8.0 * math.sqrt(k / c)  # W sqrt(c/k) = 8
        assert k_struve_poly(params, 0.99 * edge, 1e-12) is not None
        for wmax in (edge, 2.0 * edge, 5.0 * edge):
            poly = k_struve_poly(params, wmax, 1e-12)
            for w in (0.1 * wmax, 0.5 * wmax, 0.9 * wmax, wmax):
                value, bound = poly(w)
                assert abs(mp.mpf(value) - mp_k_struve(mp, 2.0, c, k, w)) <= bound
                assert bound <= 1e-12 * abs(value)

    def test_one_node_polynomial_serves_a_random_scan(self):
        """k_struve_poly(p, x, tol)(x) serves every point, and a subsample agrees with mpmath.

        3,000 points: nu/k in (-1.4, 60), c in {-2, -1, 0.5, 1, 2}, k in
        {0.25, 0.5, 1, 2}, x log-uniform in [1e-3, 60], tol in {1e-8, 1e-10,
        1e-12}; every leading term is in (1e-300, 1e300).  Two c > 0 points
        below x sqrt(c/k) = 8 need the integer terms, where the double bound fails.
        """
        rng = random.Random(7)
        points = []
        for _ in range(3000):
            nuk = rng.uniform(-1.4, 60.0)
            c = rng.choice((-2.0, -1.0, 0.5, 1.0, 2.0))
            k = rng.choice((0.25, 0.5, 1.0, 2.0))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(60.0)))
            points.append((StruveParams(nu=nuk * k, c=c, k=k), x, rng.choice((1e-8, 1e-10, 1e-12))))
        values = [k_struve_poly(p, x, tol)(x) for p, x, tol in points]
        assert [point for point, res in zip(points, values) if res is None] == []
        mp = pytest.importorskip("mpmath")
        for i in random.Random(8).sample(range(len(points)), 60):
            (p, x, tol), (value, bound) = points[i], values[i]
            error = abs(mp.mpf(value) - mp_k_struve(mp, p.nu, p.c, p.k, x))
            assert error <= bound <= tol * abs(value), (p, x, tol, value, bound)

    def test_negative_c_has_no_fixed_point_limit(self):
        assert k_struve_poly(StruveParams(nu=2.0, c=-1.0, k=1.0), 20.0, 1e-12) is not None

    def test_agrees_with_k_struve_inside_and_declines_outside(self):
        mp = pytest.importorskip("mpmath")
        params = StruveParams(nu=2.3, c=1.0, k=1.0)
        poly = k_struve_poly(params, 5.0, 1e-12)
        for w in (1e-6, 0.1, 1.0, 2.5, 4.9, 5.0):
            value, bound = poly(w)
            assert abs(mp.mpf(value) - mp_k_struve(mp, 2.3, 1.0, 1.0, w)) <= bound
            assert bound <= 1e-12 * abs(value)
        for w in (0.0, -1.0, math.nextafter(5.0, 6.0), math.nan):
            assert poly(w) is None

    @pytest.mark.parametrize("c, wmax", [(-1.0, 3.0), (1.0, 1.5), (1.0, 5.0)])
    def test_double_polynomial_computes_its_leading_term_inline(self, c, wmax, monkeypatch):
        # terms that decrease from the first (c = -1; c = 1 at W = 1.5), and a first
        # term ratio above 1 at W (c = 1 at W = 5)
        params = StruveParams(nu=2.3, c=c, k=1.0)
        expected = [k_struve_poly(params, wmax, 1e-12)(w) for w in (1e-3, 0.7, wmax)]

        def refuse(*args):
            raise AssertionError("_lead called")

        monkeypatch.setattr(struve_module, "_lead", refuse)
        poly = k_struve_poly(params, wmax, 1e-12)
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

    # nu = 2, c = 1, k = 0.3, W = 20: the base nu/k + 3/2 read from the doubles
    # has a denominator that is not a power of two.  Nodes of the double
    # polynomial (3), integer Horner (10), the Taylor shift (19) and W itself
    FIXED_POINT_PINS_K03 = [
        (3.0, "0x1.60b0e3d5b2976p+3", "0x1.933acdc367090p-41"),
        (10.0, "0x1.1d818b75597c5p+13", "0x1.12b104528b4bcp-33"),
        (19.0, "0x1.48a1690caa899p+18", "0x1.724c4b99c74f4p-27"),
        (20.0, "0x1.b709c12b1667cp+18", "0x1.5f6fed32fe7e0p-26"),
    ]

    def test_fixed_point_polynomial_at_a_base_that_is_not_a_binary_fraction(self):
        mp = pytest.importorskip("mpmath")
        poly = k_struve_poly(StruveParams(nu=2.0, c=1.0, k=0.3), 20.0, 1e-12)
        for w, value, bound in self.FIXED_POINT_PINS_K03:
            assert poly(w) == (float.fromhex(value), float.fromhex(bound))
            with mp.workdps(80):
                assert abs(mp.mpf(float.fromhex(value)) - mp_k_struve(mp, 2.0, 1.0, 0.3, w)) <= (
                    float.fromhex(bound)
                )

    @pytest.mark.parametrize("k", [0.3, 0.5, 3.0])
    def test_the_fixed_point_table_is_the_exact_term_ratio(self, k, monkeypatch):
        # the table that _integer_horner hands to fixed_terms, read as rationals
        tables = []

        def record(table, *args):
            tables.append(table)
            return real(table, *args)

        real = struve_module.fixed_terms
        monkeypatch.setattr(struve_module, "fixed_terms", record)
        rng = random.Random(f"table:{k}")
        for _ in range(4):
            nu, c = rng.uniform(-1.4 * k, 6.0), rng.uniform(0.1, 3.0)
            xmax = 9.0 * math.sqrt(k / c) * rng.uniform(1.0, 3.0)
            struve_module._integer_horner(StruveParams(nu=nu, c=c, k=k), xmax, 1e-12)
            table = tables.pop()
            assert table.shift >= 0 and table.den_const % 2 == 1
            base = Fraction(nu) / Fraction(k) + Fraction(3, 2)
            for m in range(4):
                num = table.num_const * math.prod(f * m + g for f, g in table.num_forms)
                den = table.den_const * math.prod(f * m + g for f, g in table.den_forms)
                exact = -Fraction(c) * Fraction(xmax) ** 2 / (
                    4 * Fraction(k) * (m + base) * (m + Fraction(3, 2))
                )
                assert Fraction(num, den * 2**table.shift) == exact

    def test_fixed_point_polynomial_without_a_double_polynomial_declines_outside(self):
        # nu/k = 300: scale0 underflows, so no node below 8 sqrt(k/c) or above it is served
        params = StruveParams(nu=300.0, c=1.0, k=1.0)
        assert params._series.scale0 == 0.0
        poly = k_struve_poly(params, 40.0, 1e-12)
        for w in (-1.0, 0.0, -0.0, 4.0, 20.0, math.nextafter(40.0, 41.0)):
            assert poly(w) is None


def _certificate_cases():
    """Seeded fixed-point polynomials: c = +1, xmax sqrt(c/k) in [8, 60], tol 1e-10 and 1e-12."""
    rng = random.Random(20261021)
    cases = []
    for _ in range(32):
        k = rng.choice((0.3, 0.7, 1.0, 1.9))
        # below nu/k = 6 the first term ratio at W = 8 sqrt(k/c) exceeds 1, so g may come
        # near 0 on (0, W]; nu/k up to 40 makes power_delta, a few ulps of nu/k, large
        nuk = rng.uniform(1.5, 6.0) if rng.random() < 0.5 else rng.uniform(6.0, 40.0)
        params = StruveParams(nu=k * nuk + rng.uniform(-1e-3, 1e-3), c=1.0, k=k)
        xmax = rng.uniform(8.0, 60.0) * math.sqrt(k)
        cases.append((params, xmax, rng.choice((1e-10, 1e-12))))
    return cases


def _negative_c_cases():
    """Seeded c <= 0 polynomials, at tols from loose to the double form's own rounding."""
    rng = random.Random(20261022)
    cases = []
    for _ in range(12):
        k = rng.choice((0.5, 1.0, 2.0))
        params = StruveParams(nu=k * rng.uniform(-1.3, 30.0), c=rng.choice((-2.0, -1.0, 0.0)), k=k)
        cases.append((params, rng.uniform(0.5, 30.0) * math.sqrt(k), rng.choice((1e-8, 1e-12, 4e-14))))
    return cases


def _inline_node(poly, xmax, w):
    """What a caller of ``evaluate.inline`` computes at w (identities._integrand's node).

    (value, lead, threshold): the node's value passes its form's threshold
    where threshold * lead <= |value| < inf.  None where the node is not in
    a form's range or its leading term leaves (1e-300, 1e300).
    """
    wmax, g_min, t_min, power, scale0, delta, vscale, pairs, sign, shifted, sigma_max = poly.inline
    half = 0.5 * w
    lead = half**power * scale0
    if not 1e-300 < lead < 1e300:
        return None
    if delta:
        lead *= 1.0 + delta * math.log(half)
    if w <= wmax:
        v = half * half * vscale
        s = v * v
        even = odd = 0.0
        for a_even, a_odd in pairs:
            even = even * s + a_even
            odd = odd * s + a_odd
        odd *= v
        return lead * (even + sign * odd), lead, g_min
    sigma = (xmax - w) * (xmax + w) / (xmax * xmax)
    if w <= xmax and sigma <= sigma_max:
        acc = 0.0
        for b in shifted:
            acc = acc * -sigma + b
        return lead * acc, lead, t_min
    return None


def _passes(node):
    value, lead, threshold = node
    return threshold * lead <= abs(value) < math.inf


class TestCertificates:
    """Each form's threshold certifies a node: g_min |lead| <= |value| (t_min on the Taylor
    shift) implies the evaluator's own per-node test in that form."""

    def test_cases_cover_both_signs_of_the_power_correction_and_both_certificates(self):
        deltas = {math.copysign(1.0, p._series.power_delta) for p, _, _ in _certificate_cases()
                  if p._series.power_delta}
        thresholds = [k_struve_poly(*case).inline[1:3] for case in _certificate_cases()]
        assert deltas == {1.0, -1.0}
        assert all(g_min < math.inf for g_min, _ in thresholds)
        assert sum(t_min < math.inf for _, t_min in thresholds) >= 12

    def test_every_certified_node_passes_its_own_test_in_the_same_form(self):
        served = declined = 0
        for params, xmax, tol in _certificate_cases() + _negative_c_cases():
            poly = k_struve_poly(params, xmax, tol)
            wmax = poly.inline[0]
            nodes = [wmax * j / 64 for j in range(1, 65)]
            if wmax < xmax:
                nodes += [xmax * math.sqrt(1.0 - 0.2 * j / 64 * (1.0 - 1e-9)) for j in range(65)]
            for w in nodes:
                node = _inline_node(poly, xmax, w)
                if node is None:
                    continue
                if not _passes(node):
                    declined += 1
                    continue
                value = node[0]
                served += 1
                # the evaluator's own per-node test passed in the form the caller repeated
                assert poly(w)[0] == value, (params, xmax, tol, w)
                assert poly(w)[1] <= tol * abs(value)
        assert served >= 3000 and declined >= 10, (served, declined)

    def test_each_certificate_bounds_its_formula_in_exact_arithmetic(self):
        """Each threshold is at least its formula, evaluated exactly, and the slack what its proof needs.

        Inputs are the doubles the code builds.  The formula is N' S / room,
        with S = ``struve._SLACK`` at least (1 + 2**-21)(1 + u)**2 / (1 - u)**3
        (``struve._threshold``):
        N' = max(N, 2u) with N = T + eps M(W) (c > 0) or T (c <= 0) on the
        double polynomial, and ldexp(floors + pass tail _S_PAD**(R + 1) +
        remainder (sigma_max _S_PAD)**order, -bits) (1 + 8u) + rounding on
        the Taylor shift; room = tol / (1 + 64u) - E with E = L_max + u on
        the double polynomial (plus eps S where c <= 0) and L_max + 3u on the
        Taylor shift; L_max = lead_err + t**2 + 3u t at t = |power_delta|
        max(|log m|, |log(xmax/2)|), m the smallest normal.  The threshold's
        own roundings and those of its numerator, within 16u of it, are
        allowed for.
        """
        u = Fraction(UNIT)
        F = Fraction
        slack = F(struve_module._SLACK)
        assert slack >= (1 + F(1, 2**21)) * (1 + u) ** 2 / (1 - u) ** 3
        checked = 0
        for params, xmax, tol in _certificate_cases() + _negative_c_cases():
            consts = params._series
            extent = max(-math.log(2.0**-1022), abs(math.log(max(0.5 * xmax, 2.0**-1022))))
            t = F(abs(consts.power_delta)) * F(extent)
            lead_err_max = F(consts.lead_err) + t * t + 3 * u * t
            poly = k_struve_poly(params, xmax, tol)
            wmax, g_min, t_min = poly.inline[:3]
            *_, tail, _, rounding, mags = struve_module._double_horner(params, wmax, tol)
            if params.c > 0.0:
                forms = [(g_min, F(tail) + F(rounding) * F(mags), lead_err_max + u)]
            else:
                forms = [(g_min, F(tail), lead_err_max + u + F(rounding) * slack)]
            if t_min < math.inf:
                (_, _, bits, _, _, pass_tail, tail_power, _, floors, _, order, remainder,
                 taylor_rounding, sigma_max) = struve_module._integer_horner(params, xmax, tol)
                s_pad = 1 + 8 * u
                units = F(floors) + F(pass_tail) * s_pad**tail_power
                units += F(remainder) * (F(sigma_max) * s_pad) ** order
                top = units / 2**bits * (1 + 8 * u) + F(taylor_rounding)
                forms.append((t_min, top, lead_err_max + 3 * u))
            for threshold, numerator, lead_err in forms:
                room = F(tol) / (1 + 64 * u) - lead_err
                if room <= 0:
                    assert threshold == math.inf, (params, xmax, tol)
                    continue
                exact = max(numerator, 2 * u) * slack / room
                assert F(threshold) >= exact * (1 - 16 * u), (params, xmax, tol, threshold)
                checked += 1
        assert checked >= 50


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


@settings(
    max_examples=600, deadline=None, derandomize=True, database=None,
    phases=(Phase.generate, Phase.target),
)
@given(
    order=st.floats(-1.45, 120.0),
    c=st.floats(-3.0, 3.0),
    k=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
    log_x=st.floats(-40.0, math.log(90.0)),
    log_tol=st.floats(math.log(1e-14), math.log(1e-8)),
)
def test_a_targeted_hunt_finds_no_k_struve_bound_below_its_error(order, c, k, log_x, log_tol):
    """err <= error_bound against mpmath, where hypothesis steers toward the largest err / bound.

    order is nu/k; a ConvergenceError (a tol below the leading term's
    accuracy, or beyond 500 terms) is a refusal, not a result to judge.
    """
    mp = pytest.importorskip("mpmath")
    params = StruveParams(order * k, c, k)
    x, tol = math.exp(log_x), math.exp(log_tol)
    try:
        res = k_struve(params, x, tol=tol)
    except ConvergenceError:
        return
    err = abs(mp.mpf(res.value) - mp_k_struve(mp, params.nu, c, k, x))
    target(float(err / res.error_bound))
    assert err <= res.error_bound, (params, x, tol, res)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    phases=(Phase.generate, Phase.target),
)
@given(
    nuk=st.floats(-1.4, 0.5),
    c=st.floats(0.1, 4.0),
    k=st.sampled_from([0.3, 0.7, 1.0, 1.9]),
    reach=st.floats(3.0, 60.0),
    tol=st.sampled_from([1e-10, 1e-12]),
    where=st.floats(1.0, 2.0),
    taylor=st.booleans(),
    after=st.booleans(),
)
def test_a_targeted_hunt_finds_no_certified_node_beyond_tol(nuk, c, k, reach, tol, where, taylor, after):
    """|value - S(w)| <= tol |value| against mpmath where |g| is within 2x of its threshold.

    c > 0, nu/k < 1/2 (so that g has zeros) and xmax sqrt(c/k) = reach.
    The node lies next to the zero of g nearest the top of the double
    polynomial's range, or of the Taylor shift's, before or after it, where
    |g| = where times the form's threshold: the nodes that pass it with the
    least to spare, found by bisection from the nearest of 256 nodes where
    |g| exceeds that to the zero.  The value is the one a caller computes
    inline on the threshold's word, and the evaluator must return it too;
    hypothesis steers toward the largest error over tol |value|, and toward
    the largest own bound of the evaluator over tol |value|.
    """
    mp = pytest.importorskip("mpmath")
    params = StruveParams(nuk * k, c, k)
    xmax = reach * math.sqrt(k / c)
    poly = k_struve_poly(params, xmax, tol)
    if not poly:
        return
    wmax, sigma_max = poly.inline[0], poly.inline[-1]
    lo, hi = (max(wmax, xmax * math.sqrt(1.0 - sigma_max)), xmax) if taylor else (0.0, wmax)
    if taylor and not (wmax < xmax and sigma_max > 0.0):
        return
    nodes = [(w, _inline_node(poly, xmax, w)) for w in (lo + (hi - lo) * j / 256 for j in range(1, 257))]
    nodes = [(w, node[0] / node[1], node[2]) for w, node in nodes if node]
    flips = [i for i in range(1, len(nodes)) if (nodes[i - 1][1] > 0.0) != (nodes[i][1] > 0.0)]
    if not flips:
        return
    # the zero nearest the top of the range, approached from below or from above
    i = flips[-1]
    run = range(i, len(nodes)) if after else range(i - 1, -1, -1)
    side, goal = math.copysign(1.0, nodes[run[0]][1]), where * nodes[i][2]
    start = next((j for j in run if side * nodes[j][1] >= goal), None)
    if start is None or any(side * nodes[j][1] <= 0.0 for j in range(min(start, i), max(start, i))):
        return  # |g| stays below the goal on that side of the zero
    a, b = nodes[start][0], nodes[i - 1 if after else i][0]
    for _ in range(60):
        mid = 0.5 * (a + b)
        value, lead, _ = _inline_node(poly, xmax, mid)
        a, b = (mid, b) if side * value / lead >= goal else (a, mid)
    w = a
    node = _inline_node(poly, xmax, w)
    if not _passes(node):
        return
    value = node[0]
    err = abs(mp.mpf(value) - mp_k_struve(mp, params.nu, c, k, w))
    target(float(err / (tol * abs(value))), label="error")
    out = poly(w)
    target(out[1] / (tol * abs(value)), label="bound")
    assert err <= tol * abs(value), (params, xmax, tol, w, value)
    assert out[0] == value, (params, xmax, tol, w)

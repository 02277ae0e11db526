"""Tests for the quadrature engine and the Lavoie-Trottier self-check."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from kstruve import (
    DomainError,
    NonFiniteSampleError,
    Verdict,
    integrate,
    lavoie_trottier_check,
    lavoie_trottier_rhs,
    select_method,
)
from kstruve import quadrature
from kstruve.errors import ConvergenceError
from kstruve.results import QuadratureResult

# Battery of integrands on (0,1) with known antiderivatives.  smooth=True
# members must be handled by both methods; the singular ones only by
# tanh_sinh.  Entries: (name, f, exact, smooth)
BATTERY = [
    ("const", lambda x: 1.0, 1.0, True),
    ("square", lambda x: x * x, 1.0 / 3.0, True),
    ("quintic", lambda x: x**5 - 3.0 * x * x + 2.0, 7.0 / 6.0, True),
    ("exp", math.exp, math.e - 1.0, True),
    ("sine_arch", lambda x: math.pi * math.sin(math.pi * x), 2.0, True),
    ("runge", lambda x: 1.0 / (1.0 + x * x), math.pi / 4.0, True),
    ("fast_decay", lambda x: 10.0 * math.exp(-10.0 * x), 1.0 - math.exp(-10.0), True),
    ("log_corner", lambda x: -math.log(x), 1.0, False),
    ("inv_sqrt", lambda x: 0.5 / math.sqrt(x), 1.0, False),
    ("cbrt_right", lambda x, omx: omx ** (-1.0 / 3.0), 1.5, False),
]


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x: 1.0, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_endpoint_singular_power_law(self):
        res = integrate(lambda x: x**-0.5, tol=1e-10, method="tanh_sinh")
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_polynomial_matches_lavoie_trottier_at_one(self):
        res = integrate(lambda x: (1.0 - x) * (1.0 - x / 3.0), tol=1e-12)
        assert res.value == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert res.value == pytest.approx(lavoie_trottier_rhs(1.0, 1.0), rel=1e-12)

    @pytest.mark.parametrize("name, f, exact, smooth", BATTERY, ids=[b[0] for b in BATTERY])
    def test_battery_error_estimates_are_honest(self, name, f, exact, smooth):
        methods = ("adaptive_gk", "tanh_sinh") if smooth else ("tanh_sinh",)
        for method in methods:
            res = integrate(f, tol=1e-10, method=method)
            assert res.converged, f"{name}/{method} did not converge"
            actual = abs(res.value - exact)
            assert actual <= 3.0 * res.error_estimate, (
                f"{name}/{method}: actual {actual:.3e} vs estimate {res.error_estimate:.3e}"
            )

    @pytest.mark.parametrize(
        "name, f, exact, smooth",
        [b for b in BATTERY if b[3]],
        ids=[b[0] for b in BATTERY if b[3]],
    )
    def test_methods_agree_on_smooth_battery(self, name, f, exact, smooth):
        gk = integrate(f, tol=1e-12, method="adaptive_gk")
        ts = integrate(f, tol=1e-12, method="tanh_sinh")
        assert abs(gk.value - ts.value) <= 1e-9 * max(1.0, abs(exact))

    def test_converged_implies_estimate_within_tolerance(self):
        for _, f, exact, smooth in BATTERY:
            res = integrate(f, tol=1e-9, method="tanh_sinh")
            if res.converged:
                assert res.error_estimate <= 1e-9 * max(1.0, abs(res.value))

    def test_result_fields(self):
        res = integrate(math.exp, tol=1e-10)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations > 0
        assert res.error_estimate >= 0.0

    def test_unary_integrand_never_sees_endpoints(self):
        def f(x):
            assert 0.0 < x < 1.0, f"endpoint abscissa {x}"
            return math.log(x) * math.log1p(-x)

        for method in ("adaptive_gk", "tanh_sinh"):
            res = integrate(f, tol=1e-9, method=method)
            # int_0^1 ln(x) ln(1-x) dx = 2 - pi^2/6
            assert res.value == pytest.approx(2.0 - math.pi**2 / 6.0, rel=1e-8)

    def test_binary_integrand_receives_complement(self):
        def f(x, omx):
            assert omx == pytest.approx(1.0 - x, abs=1e-15)
            return omx**9

        res = integrate(f, tol=1e-12, method="tanh_sinh")
        assert res.value == pytest.approx(0.1, rel=1e-12)

    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSampleError):
            integrate(lambda x: float("nan"), tol=1e-10)
        with pytest.raises(NonFiniteSampleError):
            integrate(lambda x: float("inf") if x > 0.4 else 1.0, tol=1e-10)

    def test_non_convergence_carries_partial_result(self):
        # interior |x - 1/pi|^(-0.95) spike: integrable, but bisection gains
        # only 2^-0.05 per split, exhausting the interval budget
        f = lambda x: (abs(x - 1.0 / math.pi) + 1e-300) ** -0.95
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(f, tol=1e-12, method="adaptive_gk")
        partial = excinfo.value.partial
        assert isinstance(partial, QuadratureResult)
        assert not partial.converged
        assert partial.error_estimate > 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, tol=tol)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, tol=1e-10, method="simpson")


class TestRelativeRule:
    """Both rules stop on estimate <= max(tol * |value|, 1e-280)."""

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_small_integral_is_resolved_relative_to_itself(self, method):
        res = integrate(lambda x: 1e-9 * x**0.5, tol=1e-10, method=method)
        assert res.converged
        assert res.error_estimate <= 1e-10 * abs(res.value)
        assert res.value == pytest.approx(2e-9 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_integral_zero_to_rounding_does_not_converge(self, method):
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda x: x - 0.5, tol=1e-10, method=method)
        partial = excinfo.value.partial
        assert isinstance(partial, QuadratureResult)
        assert not partial.converged
        assert abs(partial.value) <= 1e-14

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_rounding_floor_ends_the_search_early(self, method):
        # every estimate of x - 1/2 sits on the 50-ulp floor of the integral
        # of |f|, which refinement cannot lower
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda x: x - 0.5, tol=1e-10, method=method)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations < 100

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_exactly_zero_integrand_converges_on_the_floor(self, method):
        res = integrate(lambda x: 0.0, tol=1e-10, method=method)
        assert res.converged
        assert res.value == 0.0 and res.error_estimate <= 1e-280


class TestSelectMethod:
    def test_singular_exponent_selects_tanh_sinh(self):
        assert select_method(0.5, 1.0, 2.0) == "tanh_sinh"
        assert select_method(0.999) == "tanh_sinh"
        assert select_method(-0.25, 3.0) == "tanh_sinh"

    def test_regular_exponents_select_gk(self):
        assert select_method(1.0, 1.0) == "adaptive_gk"
        assert select_method(2.0, 5.5) == "adaptive_gk"
        assert select_method() == "adaptive_gk"


class TestLavoieTrottier:
    def test_rhs_exact_values(self):
        assert lavoie_trottier_rhs(1.0, 1.0) == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert lavoie_trottier_rhs(2.0, 1.0) == pytest.approx(8.0 / 81.0, rel=1e-14)
        assert lavoie_trottier_rhs(0.5, 0.5) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-14)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, -0.5), (-1.0, -1.0)])
    def test_rhs_domain(self, alpha, beta):
        with pytest.raises(DomainError):
            lavoie_trottier_rhs(alpha, beta)

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.75, 1.25), (0.5, 0.5), (3.25, 0.6)])
    def test_check_confirms(self, alpha, beta):
        report = lavoie_trottier_check(alpha, beta, tol=1e-10)
        assert report.verdict is Verdict.BOTH_AGREE
        assert report.rel_dev_paper <= 1e-10
        assert report.rhs_paper == report.rhs_corrected

    def test_check_report_is_consistent(self):
        report = lavoie_trottier_check(1.5, 2.0)
        assert report.lhs_value == pytest.approx(lavoie_trottier_rhs(1.5, 2.0), rel=1e-11)
        assert report.strict_hypotheses
        assert report.error is None

    def test_check_integrates_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("method"))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", counting)
        report = lavoie_trottier_check(2.5, 1.5)
        assert report.verdict is Verdict.BOTH_AGREE
        assert calls == ["adaptive_gk"]

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    def test_check_confirms_property(self, alpha, beta):
        report = lavoie_trottier_check(alpha, beta, tol=1e-10)
        assert report.verdict is Verdict.BOTH_AGREE

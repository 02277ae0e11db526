"""Tests for the quadrature engine and the Lavoie-Trottier self-check."""

import functools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kstruve import (
    DomainError,
    NonFiniteSampleError,
    TheoremParams,
    Verdict,
    integrate,
    lavoie_trottier_check,
    lavoie_trottier_rhs,
)
import kstruve
from kstruve import identities, quadrature
from kstruve.errors import ConvergenceError, KStruveError
from kstruve.fixedpoint import UNIT
from kstruve.results import QuadratureResult
from oracles import tanh_sinh_pair_rule

# Battery of integrands on (0,1) with known antiderivatives.  smooth=True
# members must be handled by both methods; the singular ones only by
# tanh_sinh.  Entries: (name, f, exact, smooth)
BATTERY = [
    ("const", lambda x, omx: 1.0, 1.0, True),
    ("square", lambda x, omx: x * x, 1.0 / 3.0, True),
    ("quintic", lambda x, omx: x**5 - 3.0 * x * x + 2.0, 7.0 / 6.0, True),
    ("exp", lambda x, omx: math.exp(x), math.e - 1.0, True),
    ("sine_arch", lambda x, omx: math.pi * math.sin(math.pi * x), 2.0, True),
    ("runge", lambda x, omx: 1.0 / (1.0 + x * x), math.pi / 4.0, True),
    ("fast_decay", lambda x, omx: 10.0 * math.exp(-10.0 * x), 1.0 - math.exp(-10.0), True),
    ("log_corner", lambda x, omx: -math.log(x), 1.0, False),
    ("inv_sqrt", lambda x, omx: 0.5 / math.sqrt(x), 1.0, False),
    ("cbrt_right", lambda x, omx: omx ** (-1.0 / 3.0), 1.5, False),
]


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda x, omx: 1.0, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_endpoint_singular_power_law(self):
        res = integrate(lambda x, omx: x**-0.5, tol=1e-10, method="tanh_sinh")
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_polynomial_matches_lavoie_trottier_at_one(self):
        res = integrate(lambda x, omx: omx * (1.0 - x / 3.0), tol=1e-12)
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
        res = integrate(lambda x, omx: math.exp(x), tol=1e-10)
        assert isinstance(res, QuadratureResult)
        assert res.evaluations > 0
        assert res.error_estimate >= 0.0

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_abs_integral_estimates_the_integral_of_abs_f(self, method):
        # int_0^1 sin(5 pi x) = 2/(5 pi), int_0^1 |sin(5 pi x)| = 2/pi
        res = integrate(lambda x, omx: math.sin(5.0 * math.pi * x), tol=1e-12, method=method)
        assert res.value == pytest.approx(0.4 / math.pi, rel=1e-11)
        assert res.abs_integral == pytest.approx(2.0 / math.pi, rel=1e-2)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda x, omx: x - 0.5, tol=1e-10, method=method)
        assert excinfo.value.partial.abs_integral == pytest.approx(0.25, rel=5e-2)

    def test_binary_integrand_receives_complement(self):
        def f(x, omx):
            assert omx == pytest.approx(1.0 - x, abs=1e-15)
            return omx**9

        res = integrate(f, tol=1e-12, method="tanh_sinh")
        assert res.value == pytest.approx(0.1, rel=1e-12)

    def test_non_finite_sample_raises(self):
        with pytest.raises(NonFiniteSampleError):
            integrate(lambda x, omx: float("nan"), tol=1e-10)
        with pytest.raises(NonFiniteSampleError):
            integrate(lambda x, omx: float("inf") if x > 0.4 else 1.0, tol=1e-10)

    def test_non_convergence_carries_partial_result(self):
        # interior |x - 1/pi|^(-0.95) spike: integrable, but bisection gains
        # only 2^-0.05 per split, exhausting the interval budget
        f = lambda x, omx: (abs(x - 1.0 / math.pi) + 1e-300) ** -0.95
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(f, tol=1e-12, method="adaptive_gk")
        partial = excinfo.value.partial
        assert isinstance(partial, QuadratureResult)
        assert not partial.converged
        assert partial.error_estimate > 0.0

    @pytest.mark.parametrize(
        "rule",
        [{"method": "adaptive_gk"}, {"method": "tanh_sinh"}, {"weight": (2.0, 3.0)}],
        ids=["adaptive_gk", "tanh_sinh", "weight"],
    )
    def test_one_argument_integrand_raises_type_error(self, rule):
        sampled = []

        def f(x):
            sampled.append(x)
            return x

        with pytest.raises(TypeError):
            integrate(f, tol=1e-10, **rule)
        assert sampled == []  # the first sample already fails

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError):
            integrate(lambda x, omx: 1.0, tol=tol)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x, omx: 1.0, tol=1e-10, method="simpson")


# Results of both rules pinned as (value, error_estimate, evaluations,
# abs_integral, converged), floats as float.hex: a change to a rule's
# arithmetic, its nodes or its evaluation count shows here.  A case that
# raises ConvergenceError pins the partial result.
PINNED = [
    (
        "two_arg", "tanh_sinh", 1e-12,
        lambda x, omx: x**-0.25 * omx**0.5 * math.exp(-x),
        ("0x1.6b2f2617cf99cp-1", "0x1.67d706a881ac7p-54", 121, "0x1.6b2f2617cf99cp-1", True),
    ),
    (
        "two_arg", "adaptive_gk", 1e-12,
        lambda x, omx: omx**3 * math.exp(x),
        ("0x1.3d1fa13d063bep-2", "0x1.ef816bef59bd9p-49", 15, "0x1.3d1fa13d063bep-2", True),
    ),
    (
        "floor", "tanh_sinh", 1e-10,
        lambda x, omx: x - 0.5,
        ("0x1.e72a39937acd7p-58", "0x1.d121e9b5c84d6p-59", 43, "0x1.f29d6ac9dbc98p-3", False),
    ),
    (
        "floor", "adaptive_gk", 1e-10,
        lambda x, omx: x - 0.5,
        ("-0x1.ab0a3d9a3ab70p-57", "0x1.8d1093cf468f6p-49", 15, "0x1.fc3e2dd61ce08p-3", False),
    ),
    (
        # an interior kink: tanh-sinh gains only algebraically and stalls
        "stall", "tanh_sinh", 1e-13,
        lambda x, omx: abs(x - 1.0 / math.pi) ** 0.5,
        ("0x1.fad399fcbfb2dp-2", "0x1.3bac79ce00000p-23", 25588, "0x1.fad399fcbfb2dp-2", False),
    ),
    (
        "stall", "adaptive_gk", 1e-12,
        lambda x, omx: (abs(x - 1.0 / math.pi) + 1e-300) ** -0.95,
        ("0x1.05ea98d3de9edp+5", "0x1.2625fe708e704p-22", 122865, "0x1.05ea98d3de9edp+5", False),
    ),
]


class TestPinnedResults:
    @pytest.mark.parametrize(
        "name, method, tol, f, pinned", PINNED, ids=[f"{c[0]}-{c[1]}" for c in PINNED]
    )
    def test_result_is_bit_identical(self, name, method, tol, f, pinned):
        try:
            res = integrate(f, tol=tol, method=method)
        except ConvergenceError as exc:
            res = exc.partial
        value, estimate, evaluations, abs_integral, converged = pinned
        assert res.value == float.fromhex(value)
        assert res.error_estimate == float.fromhex(estimate)
        assert res.evaluations == evaluations
        assert res.abs_integral == float.fromhex(abs_integral)
        assert res.converged is converged
        if not converged:
            with pytest.raises(ConvergenceError):
                integrate(f, tol=tol, method=method)

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_non_finite_sample_names_its_abscissa_and_stops(self, method):
        calls = []

        def f(x, omx):
            calls.append(x)
            return math.nan if x > 0.8 else 1.0

        with pytest.raises(NonFiniteSampleError) as excinfo:
            integrate(f, tol=1e-10, method=method)
        bad = calls[-1]
        assert bad > 0.8 and all(x <= 0.8 for x in calls[:-1])
        assert f"at x = {bad!r}" in str(excinfo.value)
        if method == "tanh_sinh":
            # t = 0, then x = 1 - small at t = 1: the node's small half, x
            # = small, is never sampled once its big half failed
            assert len(calls) == 2


def _sampled(rule, f, tol):
    """(result or partial, the KStruveError raised, every (x, 1 - x) sampled)."""
    samples = []

    def g(x, omx):
        samples.append((x, omx))
        return f(x, omx)

    try:
        return rule(g, tol), None, samples
    except KStruveError as exc:
        return getattr(exc, "partial", None), exc, samples


def _assert_matches_pair_rule(f, tol):
    """The per-side rule returns the pair rule's result from a subset of its samples.

    Returns the evaluations it saved and the error both rules raised.
    """
    res, err, samples = _sampled(functools.partial(integrate, method="tanh_sinh"), f, tol)
    ref, ref_err, ref_samples = _sampled(tanh_sinh_pair_rule, f, tol)
    assert type(err) is type(ref_err)
    assert (res is None) == (ref is None)
    assert str(err) == str(ref_err)
    if ref is not None:
        fields = (res.value, res.error_estimate, res.abs_integral)
        ref_fields = (ref.value, ref.error_estimate, ref.abs_integral)
        assert fields == ref_fields
        assert res.converged is ref.converged
        assert res.evaluations <= ref.evaluations
    assert set(samples) <= set(ref_samples)
    return (ref.evaluations - res.evaluations if ref is not None else 0), err


class TestPerSideTruncation:
    """Each tail of a tanh-sinh level ends on its own negligible samples."""

    def test_fast_tail_is_sampled_less_than_slow_tail(self):
        # x**-0.5 dies slowly at x = 0, (1 - x)**12 fast at x = 1
        calls = []

        def f(x, omx):
            calls.append((x, omx))
            return x**-0.5 * omx**12

        res = integrate(f, tol=1e-12, method="tanh_sinh")
        assert res.converged
        # the value the pair rule returned, which sampled both sides alike
        assert res.value == float.fromhex("0x1.fc403679615e8p-2")
        sampled = set(calls)
        walked = 0
        for table in quadrature._TS_LEVELS:
            near_zero = sum((small, big) in sampled for small, big, _, _ in table or ())
            near_one = sum((big, small) in sampled for small, big, _, _ in table or ())
            if near_zero:
                walked += 1
                assert near_one < near_zero
        assert walked >= 3

    def test_power_laws_match_the_pair_rule(self):
        rng = random.Random(20240613)
        saved = 0
        for _ in range(150):
            a, b = rng.uniform(-0.95, 8.0), rng.uniform(-0.95, 8.0)
            c = rng.uniform(-3.0, 3.0)

            def f(x, omx, a=a, b=b, c=c):
                return x**a * omx**b * (1.0 - x / 3.0) ** c

            for tol in (1e-10, 1e-12):
                saved += _assert_matches_pair_rule(f, tol)[0]
        assert saved > 0

    def test_theorem_integrands_match_the_pair_rule(self):
        rng = random.Random(20240614)
        points = []
        for _ in range(190):
            # the relaxed everyday strata, a tenth of them in the corner nu/k < -1
            which = rng.choice(("theorem1", "theorem2"))
            k = rng.choice((0.5, 1.0, 2.0))
            if rng.random() < 0.1:
                which, nu = "theorem1", k * rng.uniform(-1.35, -1.15)
                alpha = rng.choice((rng.uniform(0.45, 0.53), rng.uniform(1.15, 2.6)))
            else:
                nu = rng.uniform(1.8, 3.2)
                alpha = rng.uniform(0.55, 2.6)
            p = TheoremParams(
                alpha, rng.uniform(0.1, 1.1), nu, rng.choice((-1.0, 1.0)), k, rng.uniform(0.5, 5.0)
            )
            points.append((which, p))
        for _ in range(6):
            which = rng.choice(("theorem1", "theorem2"))
            p = TheoremParams(
                rng.choice((0.5, 1.0)), rng.choice((0.25, 1.0)), rng.choice((2.0, 3.0)), 1.0, 1.0,
                rng.uniform(20.0, 40.0),
            )
            points.append((which, p))
        raised = saved = 0
        for which, p in points:
            fewer, err = _assert_matches_pair_rule(identities._integrand(which, p, 1e-10)[0], 1e-10)
            saved += fewer
            raised += err is not None
        assert saved > 0 and raised > 0

    def test_lavoie_integrands_match_the_pair_rule(self):
        # the whole Lavoie-Trottier integrands at the check's tolerance, built
        # here: the check itself integrates their smooth factor with a weight
        rng = random.Random(20240615)
        integrands = []
        for _ in range(200):
            alpha, beta = rng.uniform(0.3, 3.7), rng.uniform(0.3, 2.7)

            def f(x, omx, alpha=alpha, beta=beta):
                return (
                    x ** (alpha - 1.0) * omx ** (2.0 * beta - 1.0)
                    * (1.0 - x / 3.0) ** (2.0 * alpha - 1.0) * (1.0 - x / 4.0) ** (beta - 1.0)
                )

            integrands.append(f)
        assert sum(_assert_matches_pair_rule(f, 1e-12)[0] for f in integrands) > 0


# a fresh interpreter: the level tables are built on first use, not at import
_LAZY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import kstruve
from kstruve import quadrature
levels = quadrature._TS_LEVELS
out = {"import": [table is not None for table in levels]}
sampled = set()

def f(x, omx):
    sampled.add(x)
    return x**-0.5

kstruve.integrate(f, tol=1e-10, method="tanh_sinh")
out["built"] = [table is not None for table in levels]
built = [table for table in levels if table is not None]
# the loop starts each level at its first node, so a used level has it sampled
out["used"] = [table[0][1] in sampled for table in built]
nodes = {x for table in built for node in table for x in node[:2]}
out["unbuilt_samples"] = len(sampled - nodes - {0.5})
kstruve.integrate(lambda x, omx: abs(x - 0.3) ** 0.5, tol=1e-6, method="tanh_sinh")
out["after_harder"] = sum(table is not None for table in levels)
print(json.dumps(out))
"""


def test_tanh_sinh_level_tables_are_built_on_first_use():
    src = Path(kstruve.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-I", "-c", _LAZY_PROBE, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    levels = quadrature._TS_MAX_LEVEL + 1
    assert out["import"] == [False] * levels
    # x**-0.5 at 1e-10 stops at level 3; the later levels stay unbuilt
    assert out["built"] == [True] * 4 + [False] * (levels - 4)
    assert out["used"] == [True] * 4
    assert out["unbuilt_samples"] == 0
    assert 4 < out["after_harder"] <= levels


class TestRelativeRule:
    """Both rules stop on estimate <= max(tol * |value|, 1e-280)."""

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_small_integral_is_resolved_relative_to_itself(self, method):
        res = integrate(lambda x, omx: 1e-9 * x**0.5, tol=1e-10, method=method)
        assert res.converged
        assert res.error_estimate <= 1e-10 * abs(res.value)
        assert res.value == pytest.approx(2e-9 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_integral_zero_to_rounding_does_not_converge(self, method):
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda x, omx: x - 0.5, tol=1e-10, method=method)
        partial = excinfo.value.partial
        assert isinstance(partial, QuadratureResult)
        assert not partial.converged
        assert abs(partial.value) <= 1e-14

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_rounding_floor_ends_the_search_early(self, method):
        # every estimate of x - 1/2 sits on the 50-ulp floor of the integral
        # of |f|, which refinement cannot lower
        with pytest.raises(ConvergenceError) as excinfo:
            integrate(lambda x, omx: x - 0.5, tol=1e-10, method=method)
        partial = excinfo.value.partial
        assert not partial.converged
        assert partial.evaluations < 100

    @pytest.mark.parametrize("method", ["adaptive_gk", "tanh_sinh"])
    def test_exactly_zero_integrand_converges_on_the_floor(self, method):
        res = integrate(lambda x, omx: 0.0, tol=1e-10, method=method)
        assert res.converged
        assert res.value == 0.0 and res.error_estimate <= 1e-280


def _one(x):
    return x


def _two(x, omx):
    return x


def _with_defaults(x, omx=0.0, scale=1.0):
    return x


def _varargs(*args):
    return args[0]


@functools.wraps(_one)
def _wraps_one(*args):
    return _one(*args)


class _Integrands:
    def method(self, x, omx):
        return x

    def __call__(self, x):
        return x


class TestEndpointSafe:
    """Which callables integrate: those that take (x, 1 - x) as two positional arguments.

    Every other callable fails with Python's own TypeError at its first sample.
    """

    @pytest.mark.parametrize(
        "f, accepted",
        [
            (_one, False),
            (_two, True),
            (_with_defaults, True),
            (_varargs, True),
            (functools.partial(_two, omx=0.0), False),  # omx is bound twice
            (_wraps_one, False),  # passes both arguments on to _one
            (_Integrands().method, True),  # self is bound
            (_Integrands(), False),
            (math.sin, False),
        ],
    )
    def test_arity(self, f, accepted):
        if accepted:
            assert integrate(f, tol=1e-10).value == pytest.approx(0.5, rel=1e-14)
        else:
            with pytest.raises(TypeError):
                integrate(f, tol=1e-10)


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
            result = integrate(*args, **kwargs)
            calls.append((kwargs.get("method"), kwargs.get("weight"), result.evaluations))
            return result

        monkeypatch.setattr(identities, "integrate", counting)
        report = lavoie_trottier_check(2.5, 1.5)
        assert report.verdict is Verdict.BOTH_AGREE
        # one Clenshaw-Curtis pass at 17 points, with the weight (alpha, 2 beta)
        assert calls == [(None, (2.5, 3.0), 17)]

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    def test_check_confirms_property(self, alpha, beta):
        report = lavoie_trottier_check(alpha, beta, tol=1e-10)
        assert report.verdict is Verdict.BOTH_AGREE


def _cos_moment(p, q, omega):
    """int_0^1 x**(p-1) (1-x)**(q-1) cos(omega x) dx = B(p, q) Re 1F1(p; p + q; i omega), in mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        p, q = mp.mpf(p), mp.mpf(q)
        return mp.beta(p, q) * mp.re(mp.hyp1f1(p, p + q, 1j * omega))


class TestJacobiClenshawCurtis:
    """integrate(h, tol, weight=(p, q)): x**(p-1) (1-x)**(q-1) h(x) by Clenshaw-Curtis."""

    def test_moments_match_the_hypergeometric_oracle(self):
        pytest.importorskip("mpmath")
        from oracles import jacobi_moment_oracle

        rng = random.Random(20240701)
        worst = 0.0
        for _ in range(40):
            p = math.exp(rng.uniform(math.log(0.05), math.log(40.0)))
            q = math.exp(rng.uniform(math.log(0.05), math.log(40.0)))
            moments = quadrature._jacobi_moments(p, q, 32)
            assert len(moments) == 33 and moments[0] == 1.0
            for k in range(1, 33):
                err = abs(moments[k] - float(jacobi_moment_oracle(p, q, k)))
                # the drift the rule's rounding term allows for
                assert err <= 3.0 * k * k * UNIT, (p, q, k, err)
                worst = max(worst, err / (k * k * UNIT))
        assert worst > 0.0

    @pytest.mark.parametrize(
        "p, q, omega, evaluations",
        [(0.5, 1.5, 2.0, 17), (1e-8, 3.0, 1.0, 17), (0.3, 2.0, 5.0, 17), (0.5, 1.5, 8.0, 33)],
    )
    def test_estimate_bounds_the_error(self, p, q, omega, evaluations):
        exact = _cos_moment(p, q, omega)
        res = integrate(lambda x, omx: math.cos(omega * x), tol=1e-10, weight=(p, q))
        assert res.converged and res.evaluations == evaluations
        assert abs(res.value - exact) <= res.error_estimate <= 1e-10 * abs(res.value)
        assert res.abs_integral >= abs(res.value)

    def test_samples_the_chebyshev_extrema_with_their_complements(self):
        sampled = []

        def h(x, omx):
            sampled.append((x, omx))
            return 1.0 + x

        res = integrate(h, tol=1e-12, weight=(2.0, 3.0))
        # B(2, 3) (1 + E[x]) = (1/12) (1 + 2/5)
        assert res.value == pytest.approx(1.4 / 12.0, rel=1e-14)
        assert res.evaluations == len(sampled) == 17
        assert sampled[0] == (1.0, 0.0) and sampled[-1] == (0.0, 1.0)
        for j, (x, omx) in enumerate(sampled):
            # x = cos(j pi / 32)**2; the smaller of x and 1 - x keeps its relative digits
            c, s = math.cos(j * math.pi / 32.0) ** 2, math.sin(j * math.pi / 32.0) ** 2
            assert x == pytest.approx(c, abs=1e-15) and omx == pytest.approx(s, abs=1e-15)
            if 0 < j < 16:
                assert min(x, omx) == pytest.approx(min(c, s), rel=1e-15)

    def test_doubling_reuses_the_first_samples(self):
        sampled = []

        def h(x, omx):
            sampled.append(x)
            return math.cos(8.0 * x)

        res = integrate(h, tol=1e-10, weight=(0.5, 1.5))
        assert res.evaluations == len(sampled) == len(set(sampled)) == 33
        # the 17 points first, then the 16 between them
        nodes = [x for x, _ in quadrature._CC_TABLES[32][0]]
        assert sampled == nodes[0::2] + nodes[1::2]

    def test_tiny_beta_parameters_keep_their_digits(self):
        # p - 1 would round 1e-8 - 1 + 1 to 1.0000000050e-8
        mp = pytest.importorskip("mpmath")
        res = integrate(lambda x, omx: 1.0 / (3.0 - x), tol=1e-12, weight=(1e-8, 1.0))
        with mp.workdps(50):
            p = mp.mpf(1e-8)
            # int_0^1 x**(p-1) / (3 - x) dx = 2F1(1, p; p + 1; 1/3) / (3 p)
            exact = mp.hyp2f1(1, p, p + 1, mp.mpf(1) / 3) / (3 * p)
        assert res.evaluations == 17
        assert abs(res.value - exact) <= res.error_estimate <= 1e-12 * res.value

    def test_cancelling_sum_goes_to_tanh_sinh_in_the_same_call(self):
        # exp(-60 x) spans 26 orders of magnitude; the weight sits near x = 2/5
        def h(x, omx):
            return math.exp(-60.0 * x)

        res = integrate(h, tol=1e-10, weight=(3.0, 4.0))

        def whole(x, omx):
            return x**2.0 * omx**3.0 * h(x, omx)

        ref = integrate(whole, tol=1e-10, method="tanh_sinh")
        assert res.value == ref.value and res.error_estimate == ref.error_estimate
        assert res.evaluations - ref.evaluations in (17, 33)

    def test_fallback_partial_counts_both_rules(self):
        # an interior kink: neither rule converges at 1e-13
        def h(x, omx):
            return abs(x - 1.0 / math.pi) ** 0.5

        with pytest.raises(ConvergenceError) as excinfo:
            integrate(h, tol=1e-13, weight=(1.0, 1.0))
        with pytest.raises(ConvergenceError) as ref:
            integrate(lambda x, omx: x**0.0 * omx**0.0 * h(x, omx), tol=1e-13, method="tanh_sinh")
        assert excinfo.value.partial.value == ref.value.partial.value
        assert excinfo.value.partial.evaluations - ref.value.partial.evaluations == 33

    def test_tolerance_below_the_beta_error_skips_the_rule(self):
        sampled = []

        def h(x, omx):
            sampled.append(x)
            return math.exp(-x)

        # B(3, 4) alone is known only to about 1e-14: tanh-sinh gets every sample
        res = integrate(h, tol=1e-15, weight=(3.0, 4.0))
        assert res.evaluations == len(sampled)
        assert sampled[0] == 0.5  # tanh-sinh's first node; the rule's is x = 1
        ref = integrate(lambda x, omx: x**2.0 * omx**3.0 * math.exp(-x), tol=1e-15, method="tanh_sinh")
        assert (res.value, res.evaluations) == (ref.value, ref.evaluations)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": (1.0, 1.0), "method": "tanh_sinh"},
            {"weight": (0.0, 1.0)},
            {"weight": (1.0, -0.5)},
            {"weight": (math.nan, 1.0)},
            {"weight": (1.0, math.inf)},
            {"weight": (1.0,)},
            {"weight": (1.0, 1.0, 1.0)},
            {"weight": 1.0},
        ],
    )
    def test_bad_weight_rejected(self, kwargs):
        with pytest.raises(DomainError):
            integrate(lambda x, omx: 1.0, tol=1e-10, **kwargs)

    def test_beta_beyond_the_double_range_raises(self):
        with pytest.raises(kstruve.OverflowRangeError):
            integrate(lambda x, omx: 1.0, tol=1e-10, weight=(1e-320, 1.0))

    def test_non_finite_and_overflowing_samples_name_their_abscissa(self):
        with pytest.raises(NonFiniteSampleError, match=r"returned inf at x = 0\.0"):
            integrate(lambda x, omx: 1.0 / x if x else math.inf, tol=1e-10, weight=(1.0, 1.0))
        with pytest.raises(NonFiniteSampleError, match=r"overflowed at x = 1\.0 \(1 - x = 0\.0\)"):
            integrate(lambda x, omx: 10.0 ** (400.0 * x), tol=1e-10, weight=(1.0, 1.0))


# a fresh interpreter: the Clenshaw-Curtis tables are built on first use, not at import
_CC_LAZY_PROBE = """
import json, math, sys
sys.path.insert(0, sys.argv[1])
import kstruve
from kstruve import quadrature
out = {"import": sorted(quadrature._CC_TABLES)}
kstruve.lavoie_trottier_check(1.5, 0.75)
out["lavoie"] = sorted(quadrature._CC_TABLES)
kstruve.integrate(lambda x, omx: math.cos(8.0 * x), tol=1e-10, weight=(0.5, 1.5))
out["doubled"] = sorted(quadrature._CC_TABLES)
print(json.dumps(out))
"""


def test_clenshaw_curtis_tables_are_built_on_first_use():
    src = Path(kstruve.__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "-I", "-c", _CC_LAZY_PROBE, str(src)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"import": [], "lavoie": [16], "doubled": [16, 32]}


class TestOverflowingSamples:
    """An integrand that overflows raises NonFiniteSampleError naming the abscissa."""

    def test_tanh_sinh(self):
        sampled = []

        def f(x, omx):
            sampled.append(x)
            return x**-0.999

        with pytest.raises(NonFiniteSampleError) as excinfo:
            integrate(f, 1e-10, "tanh_sinh")
        bad = sampled[-1]  # the overflow handler samples the failing node again
        assert bad < 1e-300 and f"overflowed at x = {bad!r}" in str(excinfo.value)
        with pytest.raises(OverflowError):
            bad**-0.999

    def test_adaptive_gk(self):
        def f(x, omx):
            return 10.0 ** (400.0 * x)

        with pytest.raises(NonFiniteSampleError) as excinfo:
            integrate(f, 1e-10, "adaptive_gk")
        bad = float(str(excinfo.value).split("x = ")[1].split(" ")[0])
        assert 400.0 * bad > 308.0

    def test_package_errors_pass_through(self):
        def f(x, omx):
            raise kstruve.OverflowRangeError("too large")

        for method in ("adaptive_gk", "tanh_sinh"):
            with pytest.raises(kstruve.OverflowRangeError):
                integrate(f, 1e-10, method)

    def test_verify_grid_records_the_point(self):
        p = TheoremParams(alpha=0.002, mu=0.0005, nu=2.0)
        [(_, report)] = identities.verify_grid("theorem1", [p], strict=False)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.error.startswith("NonFiniteSampleError: integrand overflowed at x = ")


class TestLavoieClosedFormRange:
    """A Lavoie-Trottier closed form outside the normal doubles raises ConvergenceError."""

    @pytest.mark.parametrize("alpha, beta", [(1000.0, 1.0), (5e-324, 1.0), (852.0, 30.0)])
    def test_rhs(self, alpha, beta):
        with pytest.raises(ConvergenceError, match="outside the normal double range|overflows"):
            lavoie_trottier_rhs(alpha, beta)

    def test_check_does_not_confirm_on_underflow(self):
        with pytest.raises(ConvergenceError):
            lavoie_trottier_check(1000.0, 1.0)

    @pytest.mark.parametrize("alpha, beta", [(1e-8, 1.0), (1e-3, 1e-3)])
    def test_tiny_exponents_confirm(self, alpha, beta):
        report = lavoie_trottier_check(alpha, beta)
        assert report.verdict is Verdict.BOTH_AGREE
        assert report.rel_dev_paper <= 1e-12


def test_lavoie_estimate_holds_against_mpmath_oracle():
    """0 under-reports of lhs_error_estimate over 400 points, alpha and beta in [1e-8, 60].

    The exact value is the closed form in mpmath at 50 digits, at the exact
    double inputs.  Points whose quadrature cannot run raise a package error.
    """
    mp = pytest.importorskip("mpmath")
    rng = random.Random(20240702)
    span = (math.log(1e-8), math.log(60.0))
    confirmed = raised = 0
    for _ in range(400):
        alpha, beta = (math.exp(rng.uniform(*span)) for _ in range(2))
        try:
            report = lavoie_trottier_check(alpha, beta)
        except NonFiniteSampleError:
            raised += 1
            continue
        with mp.workdps(50):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            exact = (mp.mpf(2) / 3) ** (2 * a) * mp.beta(a, b)
            err = abs(report.lhs_value - exact)
        assert err <= report.lhs_error_estimate, (alpha, beta, float(err), report.lhs_error_estimate)
        assert report.verdict is Verdict.BOTH_AGREE, (alpha, beta)
        confirmed += 1
    assert confirmed >= 350 and confirmed + raised == 400

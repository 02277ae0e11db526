"""Tests for the Fox-Wright series evaluator."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st, target

from kstruve import (
    ConvergenceError,
    DomainError,
    PoleError,
    WrightSpec,
    convergence_index,
    wright_eval,
)

from oracles import mp_fox_wright

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

    def test_cancellation_message_reports_a_ratio_of_at_least_one(self):
        # the sum here is about 1.5e-306: the rule is relative at every scale
        spec = WrightSpec(upper=((1.0, 1.0),), lower=((170.5, 1.0),))
        with pytest.raises(ConvergenceError, match="terms cancel") as info:
            wright_eval(spec, -30.0, tol=1e-12)
        ratio = float(str(info.value).split("sum |t| / |sum t| = ")[1].split(")")[0])
        assert ratio >= 1.0

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
        # 2 + 3 factors once m + 1 cancels; the double loop counts one more
        # rounding per step for the inexact a + 1
        assert spec._plan.step_ulps == 2.0 * 5 + 1.0 + 1.0
        table = spec._plan.table(1.0)
        q = Fraction(an, ad)
        for m in range(2):
            exact = (2 * m + q) * (2 * m + q + 1) / (
                (m + Fraction(3, 2)) * (2 * m + Fraction(13, 4)) * (2 * m + Fraction(17, 4))
            )
            # NUM_m and DEN_m from the table's linear factors p*m + q
            num = table.num_const * math.prod(f * m + g for f, g in table.num_forms)
            den = table.den_const * math.prod(f * m + g for f, g in table.den_forms)
            assert Fraction(num, den) / Fraction(2) ** table.shift == exact

    def test_terms_bounded(self):
        spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
        res = wright_eval(spec, 3.0, tol=1e-13)
        assert 0 < res.terms_used <= 1000
        assert res.error_bound >= 0.0


# wright_eval(spec, z, tol=1e-12) as (value, error_bound, terms_used), pinned
# bit for bit.  The cases run the double loop, the fixed-point fallback after it (z = -40, -100) and
# the direct fixed-point route of a large peak (z = -400)
PINNED = [
    (
        ((1.0, 1.0),), ((3.5, 1.0), (1.5, 1.0)), -0.5,
        "0x1.3c00447e4050cp-2", "0x1.6fedb8785314ap-49", 9,
    ),
    (
        ((1.0, 1.0),), ((3.5, 1.0), (1.5, 1.0)), -40.0,
        "0x1.71b5a1d472447p-7", "0x1.3b79248b3005ap-51", 26,
    ),
    (((1.0, 1.0),), ((1.0, 1.0),), 3.0, "0x1.415e5bf6fb074p+4", "0x1.9930bbaca9520p-41", 24),
    (
        ((4.0, 2.0), (1.0, 1.0)), ((3.5, 1.0), (1.5, 1.0), (5.5, 2.0)), -1.0,
        "0x1.1ec66ba9b5b31p-5", "0x1.0872aa5ed17eep-50", 9,
    ),
    (
        ((4.0, 2.0), (1.0, 1.0)), ((3.5, 1.0), (1.5, 1.0), (5.5, 2.0)), -100.0,
        "0x1.5eca6bf08e026p-10", "0x1.46ec2d4aa0a23p-51", 34,
    ),
    (
        ((4.0, 2.0), (1.0, 1.0)), ((3.5, 1.0), (1.5, 1.0), (5.5, 2.0)), -400.0,
        "0x1.545740f04017dp-12", "0x1.5120693ccefd4p-53", 60,
    ),
    (
        ((0.7000000000000001, 2.0), (1.0, 1.0)), ((1.5, 1.0), (3.25, 2.0)), 2.5,
        "0x1.6318066a57bcfp-1", "0x1.63c7fc2ff13a4p-44", 18,
    ),
]


@pytest.mark.parametrize("upper, lower, z, value, bound, terms", PINNED)
def test_integer_slope_results_are_bit_identical(upper, lower, z, value, bound, terms):
    res = wright_eval(WrightSpec(upper=upper, lower=lower), z, tol=1e-12)
    assert (res.value.hex(), res.error_bound.hex(), res.terms_used) == (value, bound, terms)


def _mp_pair(mp, spec, z, scale):
    """The sums of spec at z and of its companion (last lower pair (b, beta) -> (b + 1, beta)) at scale z, in mpmath."""
    b, beta = (mp.mpf(v) for v in spec.lower[-1])
    z, scale = mp.mpf(z), mp.mpf(scale)
    with mp.workdps(60 + int(3.0 * math.sqrt(abs(float(z))) / 2.3)):
        total = companion = mp.mpf(0)
        m = 0
        while True:
            term = z**m / mp.factorial(m)
            for a, al in spec.upper:
                term *= mp.gamma(mp.mpf(a) + mp.mpf(al) * m)
            for c, be in spec.lower:
                term /= mp.gamma(mp.mpf(c) + mp.mpf(be) * m)
            total += term
            companion += term * scale**m / (b + beta * m)
            m += 1
            if m > 10 and abs(term) < min(abs(total), abs(companion)) * mp.mpf(10) ** -40:
                return +total, +companion


@pytest.mark.parametrize("scale", [1.0, 16.0 / 81.0])
def test_pair_sums_hold_against_mpmath_and_the_printed_sum_is_wright_evals(scale, monkeypatch):
    """Both sums of wright_pair at seeded theorem specs, in the double loop and in fixed point.

    z runs from the double loop (-0.5, 3) through the fixed-point pass after
    it (-100) to the direct fixed-point route of a large peak (-400).
    """
    mp = pytest.importorskip("mpmath")
    from kstruve import wright as wright_module
    from kstruve.identities import TheoremParams, _wright_tail

    fixed = []  # per fixed-point pass: whether it summed the companion
    original = wright_module._fixed
    monkeypatch.setattr(
        wright_module, "_fixed",
        lambda plan, *args: fixed.append(plan is not spec._plan) or original(plan, *args),
    )
    rng = random.Random(24)
    for _ in range(4):
        p = TheoremParams(
            alpha=rng.uniform(0.3, 3.0), mu=rng.uniform(0.1, 1.5), nu=rng.uniform(1.6, 4.0),
            k=rng.choice([0.5, 1.0, 2.0]),
        )
        spec = _wright_tail(p)
        for z in (-0.5, 3.0, -100.0, -400.0):
            exact = _mp_pair(mp, spec, z, scale)
            for tol in (1e-8, 1e-11):
                pair = wright_module.wright_pair(spec, z, tol, scale)
                assert pair[0] == wright_eval(spec, z, tol)
                for res, reference in zip(pair, exact):
                    error = abs(mp.mpf(res.value) - reference)
                    assert error <= res.error_bound <= tol * abs(res.value), (p, z, tol, res)
    # both sums reached the fixed-point pass, the companion on its own table
    assert set(fixed) == {False, True}


def test_pair_declines_where_wright_eval_serves_each_form():
    from kstruve.wright import wright_pair

    # a slope that is not an integer: the log path
    assert wright_pair(WrightSpec(upper=[(1.0, 0.5)], lower=[(1.5, 1.0)]), -1.0, 1e-10, 1.0) is None
    # a first term outside e**-700 to e**700: the log path as well
    assert wright_pair(WrightSpec(upper=[(1.0, 1.0)], lower=[(400.0, 1.0)]), -1.0, 1e-10, 1.0) is None
    # a z that wright_eval refuses, and a pole of the spec
    spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.5, 1.0), (2.5, 2.0)])
    assert wright_pair(spec, math.inf, 1e-10, 1.0) is None
    assert wright_pair(WrightSpec(upper=[(1.0, 1.0)], lower=[(-2.0, 2.0)]), -1.0, 1e-10, 1.0) is None
    # a spec without lower pairs has no companion
    assert wright_pair(WrightSpec(upper=[(1.0, 1.0)], lower=[]), -1.0, 1e-10, 1.0) is None
    pair = wright_pair(spec, 0.0, 1e-10, 1.0)
    assert pair[0] == wright_eval(spec, 0.0, 1e-10)
    assert pair[1].value == pair[0].value / 2.5 and pair[1].terms_used == 1


# e**z = 0Psi0(z), and 1Psi1((1, 1); (1.5, 1)) = 1F1(1; 3/2; z) / Gamma(3/2)
ALL_POSITIVE = [
    pytest.param(WrightSpec([], []), z, id=f"exp-{z:g}") for z in (650.0, 680.0, 700.0)
] + [
    pytest.param(WrightSpec([(1.0, 1.0)], [(1.5, 1.0)]), z, id=f"1psi1-{z:g}") for z in (640.0, 660.0, 690.0)
]


@pytest.mark.parametrize("spec, z", ALL_POSITIVE)
def test_all_positive_sums_near_the_top_of_the_double_range_finish_in_doubles(spec, z):
    # the next term passes the (1 - rho) tol test before its tail bound fits:
    # the sum goes on in doubles, where the fixed-point tail test (a ratio of
    # at most 1/4) would need more than 1000 terms
    res = wright_eval(spec, z, tol=1e-12)
    if spec.upper:
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = float(mp.hyp1f1(1, 1.5, z) / mp.gamma(1.5))
    else:
        exact = math.exp(z)
    assert res.error_bound <= 1e-12 * res.value
    assert abs(res.value - exact) <= res.error_bound + 2.0 * math.ulp(exact)


def test_a_sum_that_leaves_the_double_range_raises():
    # every term of e**710 is finite, but their sum is not
    with pytest.raises(ConvergenceError, match=r"at z=710.0: the sum overflowed at m=\d+"):
        wright_eval(WrightSpec([], []), 710.0)


def test_the_printed_peak_screen_routes_both_sums_of_a_pair(monkeypatch):
    """At z = -400 a theorem2 pair makes one peak screen, and both sums go to the fixed-point pass."""
    from kstruve import wright as wright_module
    from kstruve.identities import TheoremParams, _wright_tail

    spec = _wright_tail(TheoremParams(alpha=1.0, mu=0.5, nu=2.0, k=1.0))
    calls = {"_peak_bits": [], "_double": [], "_fixed": []}
    for name, log in calls.items():
        original = getattr(wright_module, name)
        monkeypatch.setattr(
            wright_module, name, lambda *args, o=original, log=log: log.append(args) or o(*args)
        )
    printed, companion = wright_module.wright_pair(spec, -400.0, 1e-12, 16.0 / 81.0)
    assert len(calls["_peak_bits"]) == 1 and not calls["_double"]
    # the companion runs on its own plan with the printed sum's cond bits
    (plan, *_, printed_bits), (companion_plan, *_, companion_bits) = calls["_fixed"]
    assert plan is spec._plan and companion_plan is not spec._plan
    assert printed_bits == companion_bits > 0
    assert printed == wright_eval(spec, -400.0, 1e-12)
    mp = pytest.importorskip("mpmath")
    reference = _mp_pair(mp, spec, -400.0, 16.0 / 81.0)[1]
    assert abs(mp.mpf(companion.value) - reference) <= companion.error_bound <= 1e-12 * abs(companion.value)


def _exact_ratio(spec: WrightSpec, z: Fraction, m: int) -> Fraction:
    """t_{m+1} / t_m of an integer-slope spec at z, as a rational."""
    ratio = z / (m + 1)
    for a, slope in spec.upper:
        for s in range(int(slope)):
            ratio *= int(slope) * m + Fraction(a) + s
    for b, slope in spec.lower:
        for s in range(int(slope)):
            ratio /= int(slope) * m + Fraction(b) + s
    return ratio


def _table_ratio(table, m: int) -> Fraction:
    num = table.num_const * math.prod(f * m + g for f, g in table.num_forms)
    den = table.den_const * math.prod(f * m + g for f, g in table.den_forms)
    return Fraction(num, den * 2**table.shift)


def test_the_tables_at_a_negative_z_hold_the_argument_and_its_sign(monkeypatch):
    """A pair's two fixed-point tables at z = -400 are scale * z times the exact factors."""
    from kstruve import wright as wright_module
    from kstruve.identities import TheoremParams, _wright_tail

    spec = _wright_tail(TheoremParams(alpha=1.0, mu=0.5, nu=2.0, k=1.0))
    for z in (-0.1, -2.75):
        table = spec._plan.table(z)
        assert table.shift >= 0 and table.den_const % 2 == 1
        for m in range(4):
            assert _table_ratio(table, m) == _exact_ratio(spec, Fraction(z), m)
    tables = []
    real = wright_module.fixed_terms

    def record(table, *args):
        if not tables or tables[-1] is not table:
            tables.append(table)
        return real(table, *args)

    monkeypatch.setattr(wright_module, "fixed_terms", record)
    scale = 16.0 / 81.0
    wright_module.wright_pair(spec, -400.0, 1e-12, scale)
    printed, companion = tables
    (b, beta), = spec.lower[-1:]
    raised = WrightSpec(spec.upper, spec.lower[:-1] + ((b + 1.0, beta),))
    for m in range(4):
        assert _table_ratio(printed, m) == _exact_ratio(spec, Fraction(-400), m)
        assert _table_ratio(companion, m) == _exact_ratio(raised, Fraction(scale) * -400, m)


def test_a_fixed_point_pass_that_runs_out_of_bits_is_repeated_with_twice_the_bits(monkeypatch):
    """e**-40 from 0Psi0's table: 52 bits run out before the sum resolves, 104 serve."""
    mp = pytest.importorskip("mpmath")
    from kstruve import fixedpoint

    passes = []
    real = fixedpoint._pass

    def record(table, bits, *args):
        out = real(table, bits, *args)
        passes.append((bits, out is None))
        return out

    monkeypatch.setattr(fixedpoint, "_pass", record)
    terms, bits, tail, floors = fixedpoint.fixed_terms(
        WrightSpec([], [])._plan.table(-40.0), 0, 1e-10, 1000
    )
    assert passes == [(52, True), (104, False)] and bits == 104
    total = mp.mpf(sum(terms)) / 2**bits
    exact = mp.exp(-40)
    assert abs(total - exact) <= (tail + floors) * 2.0**-bits
    assert abs(total - exact) <= 1e-10 * exact


def test_the_lead_error_of_a_non_integer_slope_bounds_the_first_term():
    # the first term Gamma(1.3) / (Gamma(2.1) Gamma(0.4)) from three log Gammas
    mp = pytest.importorskip("mpmath")
    spec = WrightSpec(upper=[(1.3, 0.7)], lower=[(2.1, 1.5), (0.4, 0.9)])
    res = wright_eval(spec, 0.0)
    exact = mp.gamma(mp.mpf(1.3)) / (mp.gamma(mp.mpf(2.1)) * mp.gamma(mp.mpf(0.4)))
    assert 0.0 < spec.lead_error < 1e-14
    assert abs(mp.mpf(res.value) - exact) <= spec.lead_error * exact
    assert res.error_bound == abs(res.value) * spec.lead_error + 3.0 * math.ulp(0.0)


_SLOPE = st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.3, 2.5))
_PAIR = st.tuples(st.floats(0.1, 6.0), _SLOPE)


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    phases=(Phase.generate, Phase.target),
)
@given(
    upper=st.lists(_PAIR, max_size=2),
    lower=st.lists(_PAIR, min_size=1, max_size=3),
    z=st.floats(-400.0, 400.0),
    log_tol=st.floats(math.log(1e-14), math.log(1e-8)),
)
def test_a_targeted_hunt_finds_no_wright_bound_below_its_error(upper, lower, z, log_tol):
    """err <= error_bound against mpmath, where hypothesis steers toward the largest err / bound.

    Integer and non-integer slopes, delta > -0.5.  A sum is judged only
    where the reference agrees with itself at two precisions: at one
    precision, terms near e**238 that cancel to 1e-91 once read as an
    under-report by 1e129.  A ConvergenceError is a refusal, not a result.
    """
    mp = pytest.importorskip("mpmath")
    spec = WrightSpec(upper, lower)
    assume(convergence_index(spec) > -0.5)
    tol = math.exp(log_tol)
    try:
        res = wright_eval(spec, z, tol=tol)
    except ConvergenceError:
        return
    exact = mp_fox_wright(mp, spec, z)
    if exact is None:
        return
    err = abs(mp.mpf(res.value) - exact)
    target(float(err / res.error_bound))
    assert err <= res.error_bound, (spec, z, tol, res)

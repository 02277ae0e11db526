"""Tests for the identity engine: integrands, closed forms, and verdicts."""

import math
import random

import pytest

from kstruve import (
    IDENTITIES,
    ConvergenceError,
    DomainError,
    TheoremParams,
    Verdict,
    convergence_index,
    corollary_modified,
    corollary_struve,
    default_grid,
    integrand,
    lhs,
    rhs,
    verify,
    verify_grid,
)
from kstruve import identities, struve
from kstruve.gamma import log_k_gamma
from kstruve.identities import _wright_tail
from kstruve.results import QuadratureResult

BASE = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=1.0, y=1.0)
# tolerances that integrate refuses; the identity entries refuse them before any work
BAD_TOLS = pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
TOL_MESSAGE = "tol must be a finite positive number"

# mpmath oracles at 40 digits (series + quad), rounded to double precision
GOLDEN = {
    "thm1_integrand_half": 1.088268064705349947636e-4,
    "thm2_integrand_half": 3.442550989295335981063e-4,
    "thm1_lhs": 1.243942656760845580701e-3,
    "thm2_lhs": 1.673452760235993261456e-4,
    "thm1_rhs_paper": 5.531642902064837979583e-3,
    "thm2_rhs_paper": 1.138198127996880242713e-5,
    "thm1_lhs_singular": 1.862985582560120108346e-2,  # alpha=0.4, mu=0.2
    "cor1_lhs": 2.310764917907637129897e-3,  # alpha=1, mu=0.25, nu=2, y=1
    "cor2_lhs": 2.572383440106638316282e-4,  # same but c=-1 via theorem 2
}


def lt_sum_oracle(p: TheoremParams, terms: int = 60) -> float:
    """Second oracle for the first theorem's LHS.

    Integrates the series term by term: each power of the argument
    w = y (1-x/4)(1-x)^2 splits the weight into a Lavoie-Trottier integral
    with shifted beta, so the LHS equals
    Gamma(a+m)(2/3)^(2(a+m)) sum_r (-c)^r (y/2)^(2r+lam)
      Gamma(a+lam+2r) / [Gamma(2a+m+lam+2r) Gamma_k(rk+nu+3k/2) Gamma(r+3/2)].
    """
    lam = p.nu / p.k + 1.0
    log_front = math.lgamma(p.alpha + p.mu) + 2.0 * (p.alpha + p.mu) * math.log(2.0 / 3.0)
    total = 0.0
    for r in range(terms):
        log_t = (
            (2 * r + lam) * math.log(abs(p.y) / 2.0)
            + math.lgamma(p.alpha + lam + 2 * r)
            - math.lgamma(2.0 * p.alpha + p.mu + lam + 2 * r)
            - log_k_gamma(r * p.k + p.nu + 1.5 * p.k, p.k)
            - math.lgamma(r + 1.5)
        )
        total += (-p.c) ** r * math.exp(log_t)
    return math.exp(log_front) * total


class TestTheoremParams:
    def test_lam(self):
        assert BASE.lam == pytest.approx(3.0)
        assert TheoremParams(alpha=1.0, mu=0.5, nu=2.0, k=0.5).lam == pytest.approx(5.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            TheoremParams(alpha=float("inf"), mu=0.5, nu=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 1.0, "mu": 0.5, "nu": 2.0, "k": -1.0},
            {"alpha": -1.0, "mu": 0.5, "nu": 2.0},
            {"alpha": 0.5, "mu": -0.6, "nu": 2.0},
            {"alpha": 1.0, "mu": 0.5, "nu": 1.0},  # strict needs nu > 3/2
        ],
    )
    def test_strict_validation_rejects(self, kwargs):
        with pytest.raises(DomainError):
            TheoremParams(**kwargs).validate(strict=True)

    def test_relaxed_widens_nu(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=1.0)
        p.validate(strict=False)
        assert not p.satisfies_strict()
        with pytest.raises(DomainError):
            TheoremParams(alpha=1.0, mu=0.5, nu=-2.0).validate(strict=False)


class TestIntegrands:
    def test_golden_midpoint_values(self):
        assert integrand("theorem1", BASE, 0.5) == pytest.approx(
            GOLDEN["thm1_integrand_half"], rel=1e-10
        )
        assert integrand("theorem2", BASE, 0.5) == pytest.approx(
            GOLDEN["thm2_integrand_half"], rel=1e-10
        )

    def test_zero_y_kills_the_series_factor(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        assert integrand("theorem1", p, 0.3) == 0.0
        assert integrand("theorem2", p, 0.7) == 0.0

    def test_domain_is_open_interval(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                integrand("theorem1", BASE, bad)
            with pytest.raises(DomainError):
                integrand("theorem2", BASE, bad)

    @BAD_TOLS
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(DomainError, match=TOL_MESSAGE):
            integrand("theorem1", BASE, 0.5, tol=tol)


class TestLhs:
    def test_golden_values(self):
        quad1 = lhs("theorem1", BASE, tol=1e-12)
        assert quad1.converged
        assert quad1.value == pytest.approx(GOLDEN["thm1_lhs"], rel=1e-9)
        quad2 = lhs("theorem2", BASE, tol=1e-12)
        assert quad2.value == pytest.approx(GOLDEN["thm2_lhs"], rel=1e-9)

    def test_singular_endpoint_weight(self):
        # alpha + mu - 1 = -0.4 power at x = 0 forces the tanh_sinh path
        p = TheoremParams(alpha=0.4, mu=0.2, nu=2.0, c=1.0, k=1.0, y=1.0)
        quad = lhs("theorem1", p, tol=1e-12)
        assert quad.converged
        assert quad.value == pytest.approx(GOLDEN["thm1_lhs_singular"], rel=1e-9)

    def test_zero_y_integrates_to_zero(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        quad = lhs("theorem1", p)
        assert quad.value == 0.0
        assert quad.error_estimate <= 1e-15

    def test_lt_sum_second_oracle(self):
        points = [
            BASE,
            TheoremParams(alpha=0.5, mu=0.25, nu=2.0, c=1.0, k=1.0, y=1.0),
            TheoremParams(alpha=2.0, mu=1.0, nu=3.0, c=1.0, k=1.0, y=1.0),
            TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=0.5, y=1.0),
            TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=-1.0, k=1.0, y=0.5),
        ]
        for p in points:
            quad = lhs("theorem1", p, tol=1e-12)
            oracle = lt_sum_oracle(p)
            assert abs(quad.value - oracle) / abs(oracle) <= 1e-9

    @BAD_TOLS
    def test_bad_tol_rejected_before_the_polynomial_is_built(self, tol, monkeypatch):
        def refuse(*args):
            raise AssertionError("k_struve_poly called")

        monkeypatch.setattr(identities, "k_struve_poly", refuse)
        with pytest.raises(DomainError, match=TOL_MESSAGE):
            lhs("theorem1", BASE, tol=tol)


class TestRhs:
    def test_paper_forms_match_pinned_values(self):
        paper1 = rhs("theorem1", BASE, corrected=False)
        paper2 = rhs("theorem2", BASE, corrected=False)
        assert paper1 == pytest.approx(GOLDEN["thm1_rhs_paper"], rel=1e-11)
        assert paper2 == pytest.approx(GOLDEN["thm2_rhs_paper"], rel=1e-11)

    def test_corrected_forms_match_quadrature(self):
        assert rhs("theorem1", BASE) == pytest.approx(GOLDEN["thm1_lhs"], rel=1e-8)
        assert rhs("theorem2", BASE) == pytest.approx(GOLDEN["thm2_lhs"], rel=1e-8)

    def test_paper_forms_are_far_from_quadrature(self):
        paper1 = rhs("theorem1", BASE, corrected=False)
        paper2 = rhs("theorem2", BASE, corrected=False)
        assert abs(paper1 - GOLDEN["thm1_lhs"]) > 1e-3 * GOLDEN["thm1_lhs"]
        assert abs(paper2 - GOLDEN["thm2_lhs"]) > 1e-3 * GOLDEN["thm2_lhs"]

    def test_zero_y_gives_zero(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        assert rhs("theorem1", p, corrected=False) == 0.0
        assert rhs("theorem1", p) == 0.0
        assert rhs("theorem2", p) == 0.0

    @BAD_TOLS
    @pytest.mark.parametrize("corrected", [True, False])
    def test_bad_tol_rejected(self, tol, corrected):
        # the series tolerance max(tol, 4 lead_error) must not hide a bad tol
        with pytest.raises(DomainError, match=TOL_MESSAGE):
            rhs("theorem1", TheoremParams(1.0, 0.5, 2.0), corrected, tol=tol)

    def test_wright_spec_is_entire(self):
        # every 2Psi3 tail the engine builds has convergence index 1
        for p in default_grid("theorem1") + default_grid("theorem2"):
            assert convergence_index(_wright_tail(p, corrected=True)) == 1.0
            assert convergence_index(_wright_tail(p, corrected=False)) == 1.0

    def test_corrected_argument_scale(self):
        # theorem 2's series argument carries the extra (2/3)^4 = 16/81
        spec = _wright_tail(BASE, corrected=True)
        assert spec.lower[2][0] == pytest.approx(2.0 * BASE.alpha + BASE.mu + BASE.nu + 1.0)
        paper_spec = _wright_tail(BASE, corrected=False)
        assert paper_spec.lower[2][0] == pytest.approx(2.0 * BASE.alpha + BASE.mu + BASE.nu)


class TestVerify:
    def test_theorem1_confirms_corrected(self):
        report = verify("theorem1", BASE)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.rel_dev_corrected <= 1e-8
        assert report.rel_dev_paper > 1e-3
        assert report.strict_hypotheses
        assert report.error is None

    def test_theorem2_confirms_corrected(self):
        report = verify("theorem2", BASE)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.rel_dev_corrected <= 1e-8
        assert report.rel_dev_paper > 1e-3

    def test_k_powers_separate_the_forms(self):
        # at k != 1 the printed prefactor misses k^(1/2)
        p = TheoremParams(alpha=1.0, mu=0.5, nu=3.5, c=1.0, k=2.0, y=1.0)
        report = verify("theorem1", p)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED

    def test_zero_y_is_both_agree(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        report = verify("theorem1", p)
        assert report.verdict is Verdict.BOTH_AGREE
        assert report.lhs_value == 0.0

    def test_negative_y_with_odd_integer_power(self):
        # lam = 3: both sides flip sign together, verdict unchanged
        pos = verify("theorem1", BASE)
        neg = verify("theorem1", TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=-1.0))
        assert neg.verdict is Verdict.CONFIRMED_CORRECTED
        assert neg.lhs_value == pytest.approx(-pos.lhs_value, rel=1e-9)
        assert neg.rhs_corrected == pytest.approx(-pos.rhs_corrected, rel=1e-11)

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_negative_y_with_fractional_power_is_refused_before_sampling(
        self, which, monkeypatch
    ):
        def integrate(*args, **kwargs):
            raise AssertionError("the point must be refused before any sampling")

        monkeypatch.setattr(identities, "integrate", integrate)
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.5, y=-1.0)  # nu/k + 1 = 3.5
        with pytest.raises(DomainError, match=r"negative y=-1\.0 needs integer nu/k \+ 1, got 3\.5"):
            verify(which, p)
        (_, row), = verify_grid(which, [p])
        assert row.verdict is Verdict.INCONCLUSIVE
        assert row.error == "DomainError: negative y=-1.0 needs integer nu/k + 1, got 3.5"
        monkeypatch.undo()
        # an integer nu/k + 1 keeps its verdict
        neg = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=-1.0)
        assert verify(which, neg).verdict is Verdict.CONFIRMED_CORRECTED

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_negative_y_without_a_double_polynomial_keeps_its_error(self, which):
        # nu/k = 169 in the fixed-point regime: the integrand's nodes w < 0
        # leave k_struve_poly to k_struve, and the closed form leaves the
        # double range at y = -20 as at y = 20
        pos, neg = (TheoremParams(alpha=1.0, mu=0.5, nu=169.0, y=y) for y in (20.0, -20.0))
        with pytest.raises(ConvergenceError, match="outside the normal double range"):
            verify(which, neg)
        (_, row_pos), (_, row_neg) = verify_grid(which, [pos, neg])
        assert row_neg.verdict is Verdict.INCONCLUSIVE
        assert row_neg.error == row_pos.error
        assert row_neg.error.startswith("ConvergenceError: ")

    def test_subnormal_tol_reaches_the_closed_forms_as_a_positive_tol(self):
        # tol / 10 rounds to 0 here
        assert verify("theorem1", BASE, tol=1e-323).verdict is Verdict.CONFIRMED_CORRECTED

    def test_tiny_threshold_is_inconclusive(self):
        report = verify("theorem1", BASE, threshold=1e-15)
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_strict_mode_enforces_hypotheses(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=1.0)  # nu <= 3k/2
        with pytest.raises(DomainError):
            verify("theorem1", p)
        report = verify("theorem1", p, strict=False)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert not report.strict_hypotheses

    def test_bad_identity_and_tolerances(self):
        with pytest.raises(DomainError):
            verify("theorem3", BASE)
        with pytest.raises(DomainError):
            verify("theorem1", BASE, tol=0.0)
        with pytest.raises(DomainError):
            verify("theorem1", BASE, threshold=-1.0)


    def test_tol_below_the_series_leading_term_accuracy_still_reports(self):
        # the integrand series is asked for tol / 100 = 1e-14, below the
        # 1.45e-14 relative accuracy of its leading coefficient here
        p = TheoremParams(alpha=1.0, mu=0.5, nu=5.27, c=2.0, k=0.5, y=2.0)
        report = verify("theorem1", p, tol=1e-12, strict=False)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.rel_dev_corrected < 1e-12

    def test_integrand_failure_raises_convergence_error(self):
        # the series at x ~ 2e7 needs far more than its term budget
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=1.0, y=1e8)
        with pytest.raises(ConvergenceError, match="k-Struve"):
            verify("theorem1", p)
        (_, report), = verify_grid("theorem1", [p])
        assert report.verdict is Verdict.INCONCLUSIVE
        assert "k-Struve" in report.error

    @pytest.mark.parametrize("which, c", [("theorem1", 1.0), ("theorem2", -1.0)])
    def test_tiny_y_under_a_negative_power(self, which, c):
        # (y/2)**2 underflows to 0.0; the polynomial must not divide by it
        p = TheoremParams(alpha=1.3, mu=0.15, nu=-1.2, c=c, k=1.0, y=1e-170)
        report = verify(which, p, strict=False)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        (_, row), = verify_grid(which, [p], strict=False)
        assert row == report


class TestCorollaries:
    def test_corollary1_delegates_bit_identically(self):
        p = TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=1.0, k=1.0, y=1.0)
        assert verify("corollary1", p) == verify("theorem1", p)
        assert corollary_struve(1.0, 0.25, 2.0, y=1.0) == verify("theorem1", p)

    def test_corollary2_delegates_bit_identically(self):
        p = TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=-1.0, k=1.0, y=1.0)
        assert verify("corollary2", p) == verify("theorem2", p)
        assert corollary_modified(1.0, 0.25, 2.0, y=1.0) == verify("theorem2", p)

    def test_corollary_golden_values(self):
        rep1 = corollary_struve(1.0, 0.25, 2.0)
        assert rep1.lhs_value == pytest.approx(GOLDEN["cor1_lhs"], rel=1e-9)
        assert rep1.verdict is Verdict.CONFIRMED_CORRECTED
        rep2 = corollary_modified(1.0, 0.25, 2.0)
        assert rep2.lhs_value == pytest.approx(GOLDEN["cor2_lhs"], rel=1e-9)
        assert rep2.verdict is Verdict.CONFIRMED_CORRECTED

    def test_specialization_parameters_enforced(self):
        with pytest.raises(DomainError):
            verify("corollary1", TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=2.0, k=1.0))
        with pytest.raises(DomainError):
            verify("corollary2", TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=1.0, k=1.0))
        with pytest.raises(DomainError):
            verify("corollary1", TheoremParams(alpha=1.0, mu=0.25, nu=3.5, c=1.0, k=2.0))


    @pytest.mark.parametrize(
        "corollary, theorem, c", [("corollary1", "theorem1", 1.0), ("corollary2", "theorem2", -1.0)]
    )
    def test_entries_delegate_bit_identically(self, corollary, theorem, c):
        p = TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=c, k=1.0, y=1.5)
        for corrected in (False, True):
            assert rhs(corollary, p, corrected) == rhs(theorem, p, corrected)
        assert lhs(corollary, p) == lhs(theorem, p)
        assert integrand(corollary, p, 0.3) == integrand(theorem, p, 0.3)

    @pytest.mark.parametrize(
        "corollary, c, k",
        [("corollary1", -1.0, 1.0), ("corollary1", 1.0, 0.5),
         ("corollary2", 1.0, 1.0), ("corollary2", -1.0, 0.5)],
    )
    def test_entries_reject_a_point_off_the_pins(self, corollary, c, k):
        p = TheoremParams(alpha=1.0, mu=0.25, nu=2.0, c=c, k=k)
        for entry in (rhs, lhs, lambda which, q: integrand(which, q, 0.5)):
            with pytest.raises(DomainError, match=corollary):
                entry(corollary, p)

    def test_entries_reject_an_unknown_identity(self):
        for entry in (rhs, lhs, lambda which, q: integrand(which, q, 0.5)):
            with pytest.raises(DomainError, match="lemma1"):
                entry("lemma1", BASE)


class TestWorkPerPoint:
    """One quadrature and one Fox-Wright sum per closed form, at any scale."""

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_verify_integrates_once_and_sums_twice(self, which, monkeypatch):
        calls = {"integrate": 0, "wright_eval": 0}
        for name in calls:
            original = getattr(identities, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(identities, name, counting)
        p = default_grid(which)[0]
        report = verify(which, p)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert 0.0 < abs(report.lhs_value) < 0.5  # below unit scale: relative != absolute
        assert calls == {"integrate": 1, "wright_eval": 2}

    # integrand evaluations at the first default point before the exact-ratio
    # series evaluators; the new ones may use no more
    @pytest.mark.parametrize("which, evaluations", [("theorem1", 135), ("theorem2", 113)])
    def test_default_point_evaluations_do_not_grow(self, which, evaluations, monkeypatch):
        results = []
        original = identities.integrate

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(identities, "integrate", recording)
        verify(which, default_grid(which)[0])
        assert len(results) == 1
        assert results[0].converged
        assert results[0].evaluations <= evaluations

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_integrand_rarely_calls_k_struve(self, which, monkeypatch):
        # the point's polynomial serves the integrand, where the parent called
        # k_struve at every node.  At the theorem1 point 7 of 135 nodes still
        # do: six within 2e-31 of x = 1, whose leading term (w/2)**5 is
        # below 1e-300, and one where w underflows to 0
        counts = {"k_struve": 0, "evaluations": 0}
        series, quadrature = identities.k_struve, identities.integrate

        def counting(*args, **kwargs):
            counts["k_struve"] += 1
            return series(*args, **kwargs)

        def recording(*args, **kwargs):
            result = quadrature(*args, **kwargs)
            counts["evaluations"] += result.evaluations
            return result

        monkeypatch.setattr(identities, "k_struve", counting)
        monkeypatch.setattr(identities, "integrate", recording)
        verify(which, default_grid(which)[0])
        assert counts["evaluations"] > 0
        assert counts["k_struve"] <= 0.06 * counts["evaluations"]

    def test_default_grid_evaluations_do_not_grow(self, monkeypatch):
        evaluations = []
        original = identities.integrate

        def recording(*args, **kwargs):
            result = original(*args, **kwargs)
            evaluations.append(result.evaluations)
            return result

        monkeypatch.setattr(identities, "integrate", recording)
        verify_grid("theorem1", default_grid("theorem1"))
        assert len(evaluations) == 24
        assert sum(evaluations) <= 2566


class TestLhsError:
    """lhs_err bounds |lhs - R|, R the corrected closed form at tol 1e-14.

    Each integrand call is within series_tol of S(w), relative, and that
    error is smooth in x: it does not average out, so lhs_err carries it.
    """

    @pytest.mark.parametrize(
        "which, point",
        [
            # integral of |f| about 200 times the integral
            ("theorem1", (1.4426050301681523, 0.17768287397679122, -2.6044496948770925,
                          1.0, 2.0, 3.6255426848379546)),
            ("theorem2", (1.2654, 1.0185, 1.8445, -1.0, 2.0, 1.8907)),
            ("theorem1", (1.0, 0.5, 2.0, 1.0, 1.0, 1.0)),
        ],
    )
    def test_lhs_err_covers_the_closed_form(self, which, point):
        p = TheoremParams(*point)
        report = verify(which, p, strict=False)
        exact = rhs(which, p, True, 1e-14)
        assert abs(report.lhs_value - exact) <= report.lhs_error_estimate
        assert report.rel_dev_corrected <= 1e-12

    def test_seeded_scan_finds_no_under_report(self):
        rng = random.Random(2024)
        for _ in range(40):
            which = rng.choice(["theorem1", "theorem2"])
            k = rng.choice([0.5, 1.0, 2.0])
            if which == "theorem1" and rng.random() < 0.1:
                # the relaxed corner nu/k + 1 < 0, where alpha >= 1 converges
                alpha, nu = rng.uniform(1.15, 2.6), k * rng.uniform(-1.35, -1.15)
            else:
                alpha, nu = rng.uniform(0.55, 2.6), rng.uniform(1.8, 3.2)
            p = TheoremParams(alpha=alpha, mu=rng.uniform(0.1, 1.1), nu=nu,
                              c=rng.choice([-1.0, 1.0]), k=k, y=rng.uniform(0.5, 5.0))
            report = verify(which, p, strict=False)
            exact = rhs(which, p, True, 1e-14)
            assert abs(report.lhs_value - exact) <= report.lhs_error_estimate, (which, p)


class TestRuleSelection:
    """The theorems run tanh-sinh, whose estimate stays honest at non-integer endpoint powers."""

    def test_non_integer_power_above_one_has_an_honest_error(self):
        # endpoint powers 2.32 and 3.19 once w**lam is counted; Gauss-Kronrod
        # accepted a single interval here with an estimate 50x too small
        p = TheoremParams(alpha=2.3247, mu=0.9944, nu=-2.4614, c=1.0, k=2.0, y=1.5809)
        report = verify("theorem1", p, strict=False)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.rel_dev_corrected <= 1e-11
        assert abs(report.lhs_value - report.rhs_corrected) <= (
            report.lhs_error_estimate + 1e-13 * abs(report.rhs_corrected)
        )


class TestLargeArgument:
    """c = 1, y = 40: both series cancel by 10**7 and more."""

    def test_theorem1_at_y40_is_confirmed_with_little_work(self, monkeypatch):
        results = []
        original = identities.integrate

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(identities, "integrate", recording)
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=1.0, y=40.0)
        report = verify("theorem1", p)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.lhs_value == pytest.approx(0.68182872966053, rel=1e-10)
        assert results[0].converged and results[0].evaluations < 1000

    def test_theorem1_lhs_at_y40_converges(self):
        p = TheoremParams(alpha=2.0, mu=0.25, nu=2.0, c=1.0, k=1.0, y=40.0)
        quad = lhs("theorem1", p)
        assert quad.converged
        assert quad.evaluations < 2000

    def test_fixed_point_regime_is_served_by_the_polynomial(self, monkeypatch):
        # W sqrt(c/k) = 40, deep in the fixed-point regime
        p = TheoremParams(alpha=2.0, mu=0.25, nu=2.0, c=1.0, k=1.0, y=40.0)
        calls = 0
        series = identities.k_struve

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return series(*args, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        quad = lhs("theorem1", p)
        assert quad.converged
        assert calls < 0.5 * quad.evaluations


# (which, (alpha, mu, nu, c, k, y), branch, (value, error_estimate, evaluations,
# abs_integral)), recorded with float.hex before the integrands called the
# polynomial directly; the fixed-point row since its double polynomial
# covers (0, 8 sqrt(k/c)].  branch names how the point's double polynomial
# bounds its nodes: once per point, at each node, or (in the fixed-point
# regime) at each node below 8 sqrt(k/c), with integer Horner above.
PINNED_LHS = [
    ("theorem2", (1.3, 0.5, 2.1, -1.0, 1.0, 2.0), "certified",
     ("0x1.fe4294747812ap-12", "0x1.19144969b0d3dp-51", 84, "0x1.fe4294747812ap-12")),
    ("theorem1", (1.2, 0.4, 2.3, 1.0, 1.0, 1.5), "certified",
     ("0x1.cb849a930a316p-10", "0x1.fa32cce985946p-50", 97, "0x1.cb849a930a316p-10")),
    ("theorem1", (1.2, 0.4, 2.2, 1.0, 0.5, 5.0), "per-node",
     ("0x1.be9f5c3b88900p-3", "0x1.4dbc17a3664b4p-41", 97, "0x1.be9f5c3b88900p-3")),
    ("theorem2", (1.0, 0.25, 2.0, 1.0, 1.0, 20.0), "fixed-point",
     ("0x1.54aa8e5eab1f4p-2", "0x1.bb2dad4462592p-41", 90, "0x1.54aa8e5eab1f4p-2")),
]
# rhs(which, p, corrected) at the PINNED_LHS points: (as printed, corrected)
PINNED_RHS = [
    ("0x1.449f13279dc01p-15", "0x1.fe4294747812ep-12"),
    ("0x1.1e807b0f263c8p-7", "0x1.cb849a930a31ep-10"),
    ("0x1.bbe0e4ceadf81p-1", "0x1.be9f5c3b88918p-3"),
    ("0x1.12bbdf98a78cdp-9", "0x1.54aa8e5eab2b2p-2"),
]


class TestPinnedTheoremResults:
    @pytest.mark.parametrize(
        "which, point, branch, pinned", PINNED_LHS, ids=[f"{c[0]}-{c[2]}" for c in PINNED_LHS]
    )
    def test_lhs_is_bit_identical(self, which, point, branch, pinned):
        p = TheoremParams(*point)
        series_tol = identities._integrand(which, p, 1e-10)[1]
        sp = p.struve_params()
        wmax = (p.y if which == "theorem1" else p.y * 4.0 / 9.0) * identities._ARGUMENT_MARGIN
        if -sp.c * (0.5 * wmax) ** 2 / sp.k <= struve._FIXED_RATIO_SCALE:
            regime = "fixed-point"
        else:
            rel = struve._double_horner(sp, wmax, series_tol)[-1]
            regime = "certified" if rel <= series_tol else "per-node"
        assert branch == regime
        quad = lhs(which, p)
        value, estimate, evaluations, abs_integral = pinned
        assert quad.value == float.fromhex(value)
        assert quad.error_estimate == float.fromhex(estimate)
        assert quad.evaluations == evaluations
        assert quad.abs_integral == float.fromhex(abs_integral)
        assert quad.converged

    @pytest.mark.parametrize(
        "case, pinned", list(zip(PINNED_LHS, PINNED_RHS)), ids=[f"{c[0]}-{c[2]}" for c in PINNED_LHS]
    )
    def test_rhs_is_bit_identical(self, case, pinned):
        which, point = case[:2]
        p = TheoremParams(*point)
        paper, corrected = pinned
        assert rhs(which, p, corrected=False) == float.fromhex(paper)
        assert rhs(which, p, corrected=True) == float.fromhex(corrected)


class TestVerifyGrid:
    def test_empty_grid(self):
        assert verify_grid("theorem1", []) == []

    def test_singleton_matches_verify(self):
        pairs = verify_grid("theorem1", [BASE])
        assert len(pairs) == 1
        assert pairs[0][0] == BASE
        assert pairs[0][1] == verify("theorem1", BASE)

    def test_default_grid_all_confirmed(self):
        points = default_grid("theorem1")
        assert len(points) == 24
        pairs = verify_grid("theorem1", points)
        assert [p for p, _ in pairs] == points
        assert all(rep.verdict is Verdict.CONFIRMED_CORRECTED for _, rep in pairs)

    def test_bad_point_recorded_not_fatal(self):
        bad = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, k=2.0)  # nu <= 3k/2
        pairs = verify_grid("theorem1", [BASE, bad, BASE])
        assert len(pairs) == 3
        assert pairs[0][1].verdict is Verdict.CONFIRMED_CORRECTED
        assert pairs[1][1].verdict is Verdict.INCONCLUSIVE
        assert pairs[1][1].error is not None
        assert pairs[1][1].lhs_value is None
        assert pairs[2][1] == pairs[0][1]

    @pytest.mark.parametrize(
        "point, reason",
        [
            ((1.5, 0.5, 300.0, 1.0, 1.0, 40.0), "overflows the double range"),  # (y/2)**lam
            ((1.0, 0.5, 100.0, 1.0, 0.5, 30.0), "outside the normal double range"),  # sum -> 0.0
        ],
    )
    def test_closed_form_outside_the_double_range_is_inconclusive(self, point, reason):
        ((_, rep),) = verify_grid("theorem1", [TheoremParams(*point)], strict=False)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.error.startswith("ConvergenceError") and reason in rep.error


class TestDefaultGrid:
    def test_identities_tuple(self):
        assert IDENTITIES == ("theorem1", "theorem2", "corollary1", "corollary2")

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_theorem_grids_have_24_strict_points(self, which):
        points = default_grid(which)
        assert len(points) == 24
        assert all(p.satisfies_strict() for p in points)
        assert {p.k for p in points} == {0.5, 1.0}

    def test_corollary_grids_pin_c_and_k(self):
        points1 = default_grid("corollary1")
        assert len(points1) == 6
        assert all(p.c == 1.0 and p.k == 1.0 and p.nu == 2.0 for p in points1)
        points2 = default_grid("corollary2")
        assert len(points2) == 6
        assert all(p.c == -1.0 and p.k == 1.0 for p in points2)

    @pytest.mark.parametrize("which", IDENTITIES)
    def test_default_grid_corrected_forms_agree_to_1e_12(self, which):
        pairs = verify_grid(which, default_grid(which))
        assert all(rep.verdict is Verdict.CONFIRMED_CORRECTED for _, rep in pairs)
        assert max(rep.rel_dev_corrected for _, rep in pairs) <= 1e-12

    def test_unknown_identity_rejected(self):
        with pytest.raises(DomainError):
            default_grid("lemma1")

    def test_axes_come_from_arguments_then_pins_then_defaults(self):
        points = default_grid("corollary2", mu=(0.5,), y=(2.0, 3.0))
        assert [(p.alpha, p.mu, p.nu, p.c, p.k, p.y) for p in points] == [
            (alpha, 0.5, 2.0, -1.0, 1.0, y) for alpha in (0.5, 1.0, 2.0) for y in (2.0, 3.0)
        ]
        assert {p.nu for p in default_grid("corollary1", nu=(2.5, 3.0))} == {2.5, 3.0}
        assert {p.k for p in default_grid("theorem2", k=(0.25,))} == {0.25}

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError, match="beta"):
            default_grid("theorem1", beta=(1.0,))

    @pytest.mark.parametrize("value", [2.0, None, [], ()])
    def test_axis_that_is_not_iterable_or_empty_rejected(self, value):
        with pytest.raises(DomainError, match="grid axis 'y'"):
            default_grid("theorem1", y=value)


# (case, estimate / |lhs|, converged, rhs_paper / lhs, rhs_corrected / lhs, verdict)
# at threshold 1e-6; a quadrature that did not converge raises with its partial
VERDICT_TABLE = [
    ("both-agree", 0.0, True, 1.0, 1.0, Verdict.BOTH_AGREE),
    ("corrected", 0.0, True, 1.1, 1.0, Verdict.CONFIRMED_CORRECTED),
    ("paper", 0.0, True, 1.0, 1.1, Verdict.CONFIRMED_PAPER),
    ("neither", 0.0, True, 1.1, 1.1, Verdict.NEITHER),
    ("estimate-above-threshold", 1e-3, True, 1.0, 1.0, Verdict.INCONCLUSIVE),
    ("not-converged", 1e-12, False, 1.0, 1.0, Verdict.INCONCLUSIVE),
]


class TestVerdictTable:
    """verify and lavoie_trottier_check judge by one rule, over every outcome."""

    @staticmethod
    def _patch_integrate(monkeypatch, value, estimate, converged):
        quad = QuadratureResult(value, estimate * value, 17, converged, value)

        def integrate(*args, **kwargs):
            if not converged:
                raise ConvergenceError("stalled", partial=quad)
            return quad

        monkeypatch.setattr(identities, "integrate", integrate)

    @pytest.mark.parametrize(
        "estimate, converged, paper, corrected, verdict",
        [row[1:] for row in VERDICT_TABLE], ids=[row[0] for row in VERDICT_TABLE],
    )
    def test_verify(self, estimate, converged, paper, corrected, verdict, monkeypatch):
        value = 0.25
        self._patch_integrate(monkeypatch, value, estimate, converged)
        ratios = {False: paper, True: corrected}
        monkeypatch.setattr(identities, "rhs", lambda which, p, corrected, tol: value * ratios[corrected])
        report = verify("theorem1", BASE, threshold=1e-6)
        assert report.verdict is verdict
        assert report.lhs_value == value
        assert (report.rhs_paper, report.rhs_corrected) == (value * paper, value * corrected)
        assert report.rel_dev_paper == abs(value - value * paper) / value
        assert report.rel_dev_corrected == abs(value - value * corrected) / value
        assert report.strict_hypotheses is BASE.satisfies_strict()

    @pytest.mark.parametrize(
        "estimate, converged, ratio, verdict",
        [(row[1], row[2], row[3], row[5]) for row in VERDICT_TABLE if row[3] == row[4]],
        ids=[row[0] for row in VERDICT_TABLE if row[3] == row[4]],
    )
    def test_lavoie_trottier_check(self, estimate, converged, ratio, verdict, monkeypatch):
        closed = identities.lavoie_trottier_rhs(1.0, 1.0)
        value = closed / ratio
        self._patch_integrate(monkeypatch, value, estimate, converged)
        report = identities.lavoie_trottier_check(1.0, 1.0, tol=1e-6)
        assert report.verdict is verdict
        assert report.lhs_value == value
        assert report.rhs_paper == report.rhs_corrected == closed
        assert report.rel_dev_paper == report.rel_dev_corrected == abs(value - closed) / value
        assert report.strict_hypotheses is True

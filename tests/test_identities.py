"""Tests for the identity engine: integrands, closed forms, and verdicts."""

import math

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
    theorem1_integrand,
    theorem1_lhs,
    theorem1_rhs_corrected,
    theorem1_rhs_paper,
    theorem2_integrand,
    theorem2_lhs,
    theorem2_rhs_corrected,
    theorem2_rhs_paper,
    verify,
    verify_grid,
)
from kstruve import identities
from kstruve.gamma import log_k_gamma
from kstruve.identities import _wright_tail

BASE = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=1.0, y=1.0)

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
        assert theorem1_integrand(BASE, 0.5) == pytest.approx(
            GOLDEN["thm1_integrand_half"], rel=1e-10
        )
        assert theorem2_integrand(BASE, 0.5) == pytest.approx(
            GOLDEN["thm2_integrand_half"], rel=1e-10
        )

    def test_zero_y_kills_the_series_factor(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        assert theorem1_integrand(p, 0.3) == 0.0
        assert theorem2_integrand(p, 0.7) == 0.0

    def test_domain_is_open_interval(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                theorem1_integrand(BASE, bad)
            with pytest.raises(DomainError):
                theorem2_integrand(BASE, bad)


class TestLhs:
    def test_golden_values(self):
        quad1 = theorem1_lhs(BASE, tol=1e-12)
        assert quad1.converged
        assert quad1.value == pytest.approx(GOLDEN["thm1_lhs"], rel=1e-9)
        quad2 = theorem2_lhs(BASE, tol=1e-12)
        assert quad2.value == pytest.approx(GOLDEN["thm2_lhs"], rel=1e-9)

    def test_singular_endpoint_weight(self):
        # alpha + mu - 1 = -0.4 power at x = 0 forces the tanh_sinh path
        p = TheoremParams(alpha=0.4, mu=0.2, nu=2.0, c=1.0, k=1.0, y=1.0)
        quad = theorem1_lhs(p, tol=1e-12)
        assert quad.converged
        assert quad.value == pytest.approx(GOLDEN["thm1_lhs_singular"], rel=1e-9)

    def test_zero_y_integrates_to_zero(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        quad = theorem1_lhs(p)
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
            quad = theorem1_lhs(p, tol=1e-12)
            oracle = lt_sum_oracle(p)
            assert abs(quad.value - oracle) / abs(oracle) <= 1e-9


class TestRhs:
    def test_paper_forms_match_pinned_values(self):
        assert theorem1_rhs_paper(BASE) == pytest.approx(GOLDEN["thm1_rhs_paper"], rel=1e-11)
        assert theorem2_rhs_paper(BASE) == pytest.approx(GOLDEN["thm2_rhs_paper"], rel=1e-11)

    def test_corrected_forms_match_quadrature(self):
        assert theorem1_rhs_corrected(BASE) == pytest.approx(GOLDEN["thm1_lhs"], rel=1e-8)
        assert theorem2_rhs_corrected(BASE) == pytest.approx(GOLDEN["thm2_lhs"], rel=1e-8)

    def test_paper_forms_are_far_from_quadrature(self):
        assert abs(theorem1_rhs_paper(BASE) - GOLDEN["thm1_lhs"]) > 1e-3 * GOLDEN["thm1_lhs"]
        assert abs(theorem2_rhs_paper(BASE) - GOLDEN["thm2_lhs"]) > 1e-3 * GOLDEN["thm2_lhs"]

    def test_zero_y_gives_zero(self):
        p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, y=0.0)
        assert theorem1_rhs_paper(p) == 0.0
        assert theorem1_rhs_corrected(p) == 0.0
        assert theorem2_rhs_corrected(p) == 0.0

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

    def test_gauss_kronrod_point_at_y40_converges(self):
        p = TheoremParams(alpha=2.0, mu=0.25, nu=2.0, c=1.0, k=1.0, y=40.0)
        quad = theorem1_lhs(p)
        assert quad.converged
        assert quad.evaluations < 2000


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

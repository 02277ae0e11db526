"""Tests for the identity engine: integrands, closed forms, and verdicts."""

import io
import math
import random
import re
import sys

import pytest

from kstruve import (
    IDENTITIES,
    ConvergenceError,
    DomainError,
    KStruveError,
    NonFiniteSampleError,
    PoleError,
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
from kstruve import identities, quadrature, struve
from kstruve.gamma import log_k_gamma
from kstruve.identities import _wright_tail
from kstruve.report import emit_csv, emit_json, emit_table, record
from kstruve.results import QuadratureResult
from oracles import MISPRINTS, mp_closed_form, mp_term_by_term
from test_robustness import broad_scan_points

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


@pytest.mark.parametrize("k", [0.0, -0.0, -1.0])
def test_a_k_that_is_not_positive_is_refused_by_every_side(k):
    # rhs used to reach math.log(k) and a division by k first
    p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=1.0, k=k, y=1.0)
    for side in (lambda: rhs("theorem1", p), lambda: lhs("theorem1", p),
                 lambda: integrand("theorem1", p, 0.5)):
        with pytest.raises(DomainError, match="k must be positive"):
            side()


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

    def test_every_form_verify_returns_holds_against_mpmath(self):
        # a seeded draw of both theorems: c = +1 at y in [20, 40] (the
        # fixed-point regime), c < 0, c = 0 (z = 0) and y < 0 with an integer
        # lam.  verify at tol 1e-11 sums each series to 1e-12
        mp = pytest.importorskip("mpmath")
        rng = random.Random(24)
        points = []
        for which in ("theorem1", "theorem2"):
            for _ in range(2):
                points.append((which, (rng.uniform(0.5, 2.0), rng.uniform(0.25, 1.0),
                                       rng.uniform(2.0, 3.0), 1.0, rng.choice((0.5, 1.0)),
                                       rng.uniform(20.0, 40.0))))
            for _ in range(2):
                points.append((which, (rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1),
                                       rng.uniform(1.8, 3.2), -rng.uniform(0.5, 2.0),
                                       rng.choice((0.5, 1.0, 2.0)), rng.uniform(0.5, 5.0))))
            points.append((which, (rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1),
                                   rng.uniform(1.8, 3.2), 0.0, rng.choice((0.5, 1.0, 2.0)),
                                   rng.uniform(0.5, 5.0))))
            k = rng.choice((0.5, 1.0))
            points.append((which, (rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1),
                                   k * rng.choice((2, 3, 4)), rng.choice((-1.0, 1.0)), k,
                                   -rng.uniform(0.5, 5.0))))
        for which, point in points:
            p = TheoremParams(*point)
            report = verify(which, p, tol=1e-11, strict=False)
            forms = {False: report.rhs_paper, True: report.rhs_corrected}
            for corrected, value in forms.items():
                reference = mp_closed_form(mp, which, corrected, *point)
                assert abs(mp.mpf(value) - reference) <= 1e-12 * abs(reference), (which, p, corrected)
                # rhs returns the same form, to the bit
                assert rhs(which, p, corrected, tol=1e-12) == value

    def test_the_derived_form_is_the_series_integrated_term_by_term(self):
        # mp_term_by_term integrates each term of the k-Struve series against
        # the Lavoie-Trottier weight with its fed slot shifted; the corrected
        # 2 Psi 3 form is that sum, on the default grids and a seeded subset
        # of the broad-scan points where rhs returns a value
        mp = pytest.importorskip("mpmath")
        points = [(which, p) for which in ("theorem1", "theorem2") for p in default_grid(which)]
        for which, p in points:
            reference = mp_term_by_term(mp, which, *p)
            assert abs(mp_closed_form(mp, which, True, *p) - reference) <= 1e-40 * abs(reference)
            # tol bounds the Fox-Wright sum; the prefactor's rounding adds a few ulps
            assert abs(mp.mpf(rhs(which, p)) - reference) <= 1e-13 * abs(reference), (which, p)
        served = []
        for which, p in broad_scan_points():
            try:
                rhs(which, p)
            except KStruveError:
                continue
            served.append((which, p))
        for which, p in random.Random(31).sample(served, 12):
            reference = mp_term_by_term(mp, which, *p)
            assert abs(mp_closed_form(mp, which, True, *p) - reference) <= 1e-40 * abs(reference)

    def test_each_named_misprint_separates_the_printed_form(self):
        # the printed form is the derived one with the four named misprints:
        # with all four it is rhs_paper, with none the term-by-term sum, and
        # each one moves the value at a default-grid point of the theorem it
        # acts in (k = 0.5 shows the power of k)
        mp = pytest.importorskip("mpmath")
        acts_in = {"theorem1": ("k_power", "third_lower"), "theorem2": MISPRINTS}
        for which, names in acts_in.items():
            grid = default_grid(which)
            printed = [mp_closed_form(mp, which, True, *p, misprints=MISPRINTS) for p in grid]
            for p, value in zip(grid, printed):
                assert abs(mp.mpf(rhs(which, p, False)) - value) <= 1e-12 * abs(value), (which, p)
                reference = mp_term_by_term(mp, which, *p)
                derived = mp_closed_form(mp, which, False, *p, misprints=())
                assert abs(derived - reference) <= 1e-40 * abs(reference), (which, p)
            for name in names:
                rest = [m for m in MISPRINTS if m != name]
                moved = [mp_closed_form(mp, which, False, *p, misprints=rest) for p in grid]
                assert any(abs(v - value) > 1e-6 * abs(value) for v, value in zip(moved, printed)), (
                    which, name
                )

    def test_a_pole_of_the_printed_form_leaves_the_corrected_form(self):
        # 2 alpha + mu + nu/k = 0: the printed series' third lower gamma has a
        # pole at m = 0, while the corrected one starts at Gamma(1)
        mp = pytest.importorskip("mpmath")
        point = (0.5, 1.0, -3.0, 1.0, 1.5, 1.0)
        for which in ("theorem1", "theorem2"):
            with pytest.raises(PoleError):
                rhs(which, TheoremParams(*point), corrected=False)
            value = rhs(which, TheoremParams(*point))
            reference = mp_closed_form(mp, which, True, *point)
            assert abs(mp.mpf(value) - reference) <= 1e-12 * abs(reference)

    @pytest.mark.parametrize(
        "point, message",
        [
            # lam = -0.2: 0 to a negative power
            ((1.0, 0.5, -1.2, 1.0, 1.0, 0.0), r"no real value at y=0\.0, lam=-0\.19"),
            # lam = 3.5: a negative base to a fractional power
            ((1.0, 0.5, 2.5, 1.0, 1.0, -1.0), r"no real value at y=-1\.0, lam=3\.5"),
        ],
        ids=["zero-y-negative-lam", "negative-y-fractional-lam"],
    )
    def test_a_power_of_y_with_no_real_value_is_refused(self, point, message):
        # rhs does not check the hypotheses, so (y/2)**lam itself refuses
        for which in ("theorem1", "theorem2"):
            with pytest.raises(DomainError, match=message):
                rhs(which, TheoremParams(*point))

    @pytest.mark.parametrize("which, nu, c", [("theorem1", 2.0, 1.0), ("theorem2", 1.0, -1.0)])
    def test_a_negative_y_takes_the_sign_of_its_integer_power(self, which, nu, c):
        # lam = 3 flips the sign and lam = 2 keeps it; z = -c y**2 / (4k) is
        # the same at -y, so the two values agree to the bit
        pos, neg = (rhs(which, TheoremParams(1.0, 0.5, nu, c, 1.0, y)) for y in (3.0, -3.0))
        assert neg == (-1.0) ** (nu + 1.0) * pos != 0.0

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
        # nu/k = 169 in the fixed-point regime: the closed form leaves the
        # double range at y = -20 as at y = 20
        pos, neg = (TheoremParams(alpha=1.0, mu=0.5, nu=169.0, y=y) for y in (20.0, -20.0))
        with pytest.raises(ConvergenceError, match="outside the normal double range"):
            verify(which, neg)
        (_, row_pos), (_, row_neg) = verify_grid(which, [pos, neg])
        assert row_neg.verdict is Verdict.INCONCLUSIVE
        assert row_neg.error == row_pos.error
        assert row_neg.error.startswith("ConvergenceError: ")

    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    @pytest.mark.parametrize("y", [0.5, 7.0, 25.0])
    def test_negative_y_reads_the_points_polynomial(self, which, y, monkeypatch):
        # S(w) = (-1)**lam S(-w), lam = 3: each node w < 0 reads the polynomial
        # built for |y| at -w, where it called k_struve, which built a
        # one-node polynomial per node (98 to 180 calls a point)
        pos = verify(which, TheoremParams(1.0, 0.5, 2.0, 1.0, 1.0, y))
        calls = []
        series = identities.k_struve

        def counting(params, w, **kwargs):
            calls.append(w)
            return series(params, w, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        neg = verify(which, TheoremParams(1.0, 0.5, 2.0, 1.0, 1.0, -y))
        assert calls == []
        assert neg.verdict is Verdict.CONFIRMED_CORRECTED
        assert (neg.lhs_value, neg.lhs_error_estimate) == (-pos.lhs_value, pos.lhs_error_estimate)

    def test_subnormal_tol_reaches_the_closed_forms_as_a_positive_tol(self, monkeypatch):
        # tol / 10 rounds to 0 here, and the closed forms get the least
        # positive double instead.  No tanh-sinh estimate reaches tol: its
        # tail term keeps it above 1e-323 |value|, and the value stops moving
        # on the rounding floor
        tols = []
        closed_forms = identities._closed_forms

        def recording(which, p, tol, forms):
            tols.append(tol)
            return closed_forms(which, p, tol, forms)

        monkeypatch.setattr(identities, "_closed_forms", recording)
        report = verify("theorem1", BASE, tol=1e-323)
        assert tols == [math.ulp(0.0)]
        assert math.isfinite(report.rhs_paper) and math.isfinite(report.rhs_corrected)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.error.startswith("ConvergenceError: tanh_sinh estimate")
        assert "rounding floor" in report.error

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

    def test_an_integrand_that_overflows_names_its_abscissa(self):
        # x**(alpha + mu - 1) = (1e-320)**-0.99 leaves the double range at a
        # point that meets the strict hypotheses
        p = TheoremParams(alpha=0.005, mu=0.005, nu=2.0)
        with pytest.raises(NonFiniteSampleError, match=r"x = 1e-320"):
            integrand("theorem1", p, 1e-320)

    @pytest.mark.parametrize("x", [1e-309, 1e-310, 1e-311])
    def test_an_integrand_whose_product_overflows_names_its_abscissa(self, x):
        # the weight (about 1e307) and S(w) (about 1e7) are each finite, and
        # their product overflows to inf without an OverflowError
        p = TheoremParams(alpha=0.005, mu=0.005, nu=10.0, c=1.0, k=1.0, y=40.0)
        with pytest.raises(NonFiniteSampleError, match=rf"returned inf at x = {x!r}$"):
            integrand("theorem1", p, x)

    def test_a_negative_c_point_confirms_where_the_double_bound_fails(self):
        # the series tol is 1e-14 here, where the double polynomial's bound
        # no longer fits: the integer terms serve c < 0 too
        p = TheoremParams(1.066743101543923, 1.022179801508358, 1.8177963168764775,
                          -1.2016404628653719, 2.0, 4.945590271490039)
        report = verify("theorem1", p, tol=1e-12, strict=False)
        assert report.verdict is Verdict.CONFIRMED_CORRECTED
        assert report.rel_dev_corrected < 1e-12

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


def _leading_term_in_range(params, w):
    """Whether the evaluator computes the leading term at w inline, in (1e-300, 1e300)."""
    half = 0.5 * w
    return half >= sys.float_info.min and 1e-300 < half**params.power * math.exp(params.log_scale) < 1e300


class TestWorkPerPoint:
    """One quadrature and one Fox-Wright pass for both closed forms, at any scale."""

    # both closed forms are summed, in one wright_pair pass
    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_verify_integrates_once_and_sums_twice(self, which, monkeypatch):
        calls = {"integrate": 0, "wright_pair": 0, "wright_eval": 0}
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
        assert calls == {"integrate": 1, "wright_pair": 1, "wright_eval": 0}

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
        # k_struve at every node.  A node calls it only where its leading term
        # leaves (1e-300, 1e300); no call follows a failed bound
        counts = {"k_struve": 0, "evaluations": 0}
        series, quadrature = identities.k_struve, identities.integrate

        def counting(params, w, **kwargs):
            counts["k_struve"] += 1
            assert not _leading_term_in_range(params, w), (params, w)
            return series(params, w, **kwargs)

        def recording(*args, **kwargs):
            result = quadrature(*args, **kwargs)
            counts["evaluations"] += result.evaluations
            return result

        monkeypatch.setattr(identities, "k_struve", counting)
        monkeypatch.setattr(identities, "integrate", recording)
        verify(which, default_grid(which)[0])
        assert counts["evaluations"] > 0
        assert counts["k_struve"] <= 0.06 * counts["evaluations"]

    def test_integrand_calls_k_struve_only_where_the_leading_term_is_out_of_range(self, monkeypatch):
        # a relaxed-corner point, nu/k + 1 = -0.33 at c = 1, k = 0.5, y = 4.85: the
        # double polynomial's bound fails at 48 nodes, and the integer terms serve them
        p = TheoremParams(1.4326622997089782, 0.1912404245832284, -0.6657680797227205, 1.0, 0.5,
                          4.85398945412812)
        series = identities.k_struve
        in_range = []

        def counting(params, w, **kwargs):
            in_range.append(_leading_term_in_range(params, w))
            return series(params, w, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        assert verify("theorem1", p, strict=False).verdict is Verdict.CONFIRMED_CORRECTED
        assert not any(in_range)

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


def _fused_points():
    """Seeded points of both theorems that reach every branch of the integrand's node."""
    rng = random.Random(20261020)
    points = []
    for which in ("theorem1", "theorem2"):
        for c in (-1.0, 1.0):
            for k in (0.5, 1.0, 2.0):
                for y in (rng.uniform(0.5, 1.5), rng.uniform(3.0, 6.0)):
                    alpha, mu = rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1)
                    points.append((which, TheoremParams(alpha, mu, k * rng.uniform(1.5, 3.0), c, k, y)))
        # y < 0 needs an integer nu/k + 1, and w < 0 takes the evaluator's sign rule
        points.append((which, TheoremParams(rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1), 2.0, 1.0,
                                            1.0, -rng.uniform(0.5, 5.0))))
        points.append((which, TheoremParams(rng.uniform(0.5, 2.5), rng.uniform(0.1, 1.1), 1.0, -1.0,
                                            0.5, -rng.uniform(0.5, 5.0))))
        # the corner nu/k < -1, where w underflows at a node near x = 1 and S(w) grows
        for alpha in (rng.uniform(0.45, 0.53), rng.uniform(1.15, 1.45)):
            points.append((which, TheoremParams(alpha, rng.uniform(0.1, 1.1),
                                                0.5 * rng.uniform(-1.35, -1.15), 1.0, 0.5,
                                                rng.uniform(0.5, 5.0))))
    # the fixed-point regime, c = +1 with W sqrt(c/k) from 8 to about 60 (W = y in
    # theorem1, 4y/9 in theorem2): the double polynomial's sub-range and the Taylor shift
    points += [
        ("theorem1", TheoremParams(1.3, 0.6, 2.4, 1.0, 1.0, 9.5)),
        ("theorem1", TheoremParams(0.8, 0.3, 1.3, 1.0, 0.5, 18.0)),
        ("theorem1", TheoremParams(1.1, 0.7, 2.6, 1.0, 1.0, 58.0)),
        ("theorem2", TheoremParams(1.2, 0.4, 2.2, 1.0, 1.0, 20.5)),
        ("theorem2", TheoremParams(0.9, 0.6, 5.1, 1.0, 2.0, 75.0)),
        ("theorem2", TheoremParams(1.4, 0.5, 1.1, 1.0, 0.5, 55.0)),
        # power_delta = 2.8e-16: nu/k + 1 is not a double
        ("theorem1", TheoremParams(1.2, 0.5, 2.3, 1.0, 0.3, 12.0)),
        # nu = 0.3: g has zeros, one near W, so no Taylor certificate
        ("theorem1", TheoremParams(1.2, 0.5, 0.3, 1.0, 1.0, 30.0)),
        # small y, first term ratio above 1 at W: the double polynomial on a sub-range only
        ("theorem1", TheoremParams(1.5, 0.5, 1.0, 1.0, 0.5, 4.5)),
    ]
    return points


def _inline_branch(poly, xmax, w):
    """The integrand's inline branch at a node w: "double", "taylor", or None for the evaluator."""
    wmax, g_min, t_min, power, scale0, delta, vscale, pairs, sign, shifted, sigma_max = poly.inline
    half = 0.5 * w
    if half < sys.float_info.min or not 1e-300 < half**power * scale0 < 1e300:
        return None
    value, bound = poly(w) or (None, None)
    if value is None:
        return None
    lead = half**power * scale0
    if delta:
        lead *= 1.0 + delta * math.log(half)
    if w <= wmax:
        return "double" if g_min * lead <= abs(value) else None
    sigma = (xmax - w) * (xmax + w) / (xmax * xmax)
    return "taylor" if sigma <= sigma_max and t_min * lead <= abs(value) else None


def _reference_integrand(which, p, tol):
    """The weight times (k_struve_poly(...)(w) or k_struve(...))[0], from public pieces.

    Where |w|/2 is below the normal range (and y != 0), the weight times the
    leading term, (w/2)**lam scale0 with lam = nu/k + 1 and its exact-power
    correction, taken in logs from x, 1 - x and y.
    """
    first = which == "theorem1"
    a, b = (p.alpha + p.mu, p.alpha) if first else (p.alpha, p.alpha + p.mu)
    e_x, e_omx, e_third, e_quarter = a - 1.0, 2.0 * b - 1.0, 2.0 * a - 1.0, b - 1.0
    sp = p.struve_params()
    series_tol = max(tol * 0.01, 4.0 * sp.lead_error)
    xmax = (abs(p.y) if first else abs(p.y) * (4.0 / 9.0)) * identities._ARGUMENT_MARGIN
    poly = struve.k_struve_poly(sp, xmax, series_tol)
    y, lam, delta = p.y, sp.power, sp._series.power_delta
    signed = y > 0.0 or y < 0.0 and lam.is_integer()

    def f(x, omx):
        third, quarter = 1.0 - x / 3.0, 1.0 - x / 4.0
        w = y * quarter * omx * omx if first else y * x * third * third
        weight = x**e_x * omx**e_omx * third**e_third * quarter**e_quarter
        if abs(0.5 * w) < sys.float_info.min and signed:
            log_u = math.log(quarter) + 2.0 * math.log(omx) if first else math.log(x) + 2.0 * math.log(third)
            log_half = (math.log(abs(y)) - math.log(2.0)) + log_u
            log_f = (e_x * math.log(x) + e_omx * math.log(omx) + e_third * math.log(third)
                     + e_quarter * math.log(quarter) + ((lam * log_half + delta * log_half) + sp.log_scale))
            return (1.0 if y > 0.0 else (-1.0) ** lam) * math.exp(log_f)
        return weight * ((poly and poly(w)) or struve.k_struve(sp, w, tol=series_tol))[0]

    return f, series_tol, poly


def _outcome(call, *args):
    """A call's value, bit for bit (a float as hex, a result by its fields' reprs), or its error."""
    try:
        out = call(*args)
    except (KStruveError, OverflowError) as exc:
        return type(exc).__name__, str(exc), repr(getattr(exc, "partial", None))
    return "value", out.hex() if isinstance(out, float) else repr(out)


class TestFusedIntegrand:
    """The integrand's inline certified nodes give the evaluator's values, to the bit."""

    def test_every_node_of_levels_0_to_4_matches_the_reference(self):
        nodes = [(0.5, 0.5)]
        for level in range(5):
            for small, big, _, _ in quadrature._ts_level(level):
                nodes += [(small, big), (big, small)]
        assert any(x == 1.0 and omx > 0.0 for x, omx in nodes)
        branches = set()
        for which, p in _fused_points():
            f, series_tol = identities._integrand(which, p, 1e-10)
            ref, ref_tol, poly = _reference_integrand(which, p, 1e-10)
            assert series_tol == ref_tol
            xmax = (abs(p.y) if which == "theorem1" else abs(p.y) * (4.0 / 9.0)) * identities._ARGUMENT_MARGIN
            for x, omx in nodes:
                assert _outcome(f, x, omx) == _outcome(ref, x, omx), (which, p, x, omx)
                third = 1.0 - x / 3.0
                w = p.y * x * third * third if which == "theorem2" else p.y * (1.0 - x / 4.0) * omx * omx
                branches.add(_inline_branch(poly, xmax, w))
        # nodes pass each form's threshold, and others take the evaluator
        assert branches == {"double", "taylor", None}

    @pytest.mark.parametrize("which, calls, evaluations", [("theorem1", 32, 183), ("theorem2", 24, 167)])
    def test_certified_nodes_do_not_call_the_evaluator(self, which, calls, evaluations, monkeypatch):
        # in the fixed-point regime a node calls the evaluator where |g| is below
        # its form's threshold, near a zero of g, or above W outside the Taylor shift
        build = identities.k_struve_poly
        arguments = []

        def counting_poly(*args):
            evaluate = build(*args)

            def counting(w):
                arguments.append(w)
                return evaluate(w)

            counting.__dict__.update(evaluate.__dict__)
            return counting

        monkeypatch.setattr(identities, "k_struve_poly", counting_poly)
        quad = lhs(which, TheoremParams(0.5, 0.25, 2.0, 1.0, 1.0, 40.0))
        assert (len(arguments), quad.evaluations) == (calls, evaluations)

    def test_tanh_sinh_results_match_the_reference_field_by_field(self):
        outcomes = set()
        for which, p in _fused_points():
            f, _ = identities._integrand(which, p, 1e-10)
            ref, _, _ = _reference_integrand(which, p, 1e-10)
            ours = _outcome(quadrature.integrate, f, 1e-10, "tanh_sinh")
            assert ours == _outcome(quadrature.integrate, ref, 1e-10, "tanh_sinh"), (which, p)
            outcomes.add(ours[0])
        # corner points, where w underflows at a node near x = 1, converge too
        assert outcomes == {"value"}

    def test_a_node_whose_leading_power_overflows_calls_k_struve(self, monkeypatch):
        # theorem1 at lam = 301 and y = 40 (c = -1, g >= 1) passes the double
        # polynomial's threshold on all of (0, 40], yet at x = 1e-3 (w/2)**301
        # overflows: the inline node catches the OverflowError and k_struve serves the node
        p = TheoremParams(1.0, 0.5, 300.0, -1.0, 1.0, 40.0)
        _, series_tol, poly = _reference_integrand("theorem1", p, 1e-12)
        assert poly.inline[0] == 40.0 * identities._ARGUMENT_MARGIN and poly.inline[1] < 1.0
        x = 1e-3
        omx, third, quarter = 1.0 - x, 1.0 - x / 3.0, 1.0 - x / 4.0
        w = p.y * quarter * omx * omx
        with pytest.raises(OverflowError):
            (0.5 * w) ** p.lam
        series = identities.k_struve
        arguments = []

        def counting(params, w, **kwargs):
            arguments.append(w)
            return series(params, w, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        value = integrand("theorem1", p, x)
        assert arguments == [w]
        weight = x**0.5 * omx**1.0 * third**2.0 * quarter**0.0  # (a, b) = (1.5, 1)
        assert value == weight * series(p.struve_params(), w, tol=series_tol).value
        assert value == pytest.approx(3.587257167890853e-226, rel=1e-12)

    def test_nodes_whose_leading_term_leaves_the_range_still_call_k_struve(self, monkeypatch):
        # a seed-1 grid_small_y point with nu/k + 1 = 7.14: at level 1, t = 3.5,
        # w is 7.3e-46 and (w/2)**7.14 is below 1e-300
        p = TheoremParams(1.2678791440245047, 0.991401422426331, 3.0694155183134164, 1.0, 0.5,
                          1.3525040878694634)
        series = identities.k_struve
        arguments = []

        def counting(params, w, **kwargs):
            arguments.append(w)
            return series(params, w, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        assert lhs("theorem1", p).converged
        small, big, _, _ = quadrature._ts_level(1)[3]
        assert arguments == [p.y * (1.0 - big / 4.0) * small * small]
        assert not _leading_term_in_range(p.struve_params(), arguments[0])

    def test_level_1_keeps_its_full_tails(self, monkeypatch):
        # kbench's grid_small_y seed-5 point 0.  Level 1 walks each tail out
        # to at least t = 7/2, its earliest end, so the node there, where
        # (w/2)**(nu/k + 1) is below 1e-300, still reaches k_struve once; the
        # benchmark smoke test's struve.calls_per_point > 0 rests on this call
        p = TheoremParams(1.2238749064445285, 0.15862154540521622, 2.955130974543258, -1.0, 0.5,
                          0.669085624478571)
        series = identities.k_struve
        arguments = []

        def counting(params, w, **kwargs):
            arguments.append(w)
            return series(params, w, **kwargs)

        monkeypatch.setattr(identities, "k_struve", counting)
        assert lhs("theorem1", p).converged
        small, big, _, _ = quadrature._ts_level(1)[3]
        assert arguments == [p.y * (1.0 - big / 4.0) * small * small] == [3.6291419799284706e-46]
        assert not _leading_term_in_range(p.struve_params(), arguments[0])

    @pytest.mark.parametrize(
        "which, point",
        [
            # a grid_small_y corner point, lam = -0.2: (w/2)**lam grows as w underflows
            ("theorem1", (0.5, 0.5, -0.6, 1.0, 0.5, 3.0)),
            ("theorem2", (1.5, 0.5, -0.6, -1.0, 0.5, 3.0)),
            # y < 0 with lam = 0 and lam = 1: w < 0, sign (-1)**lam
            ("theorem1", (1.2, 0.3, -1.0, 1.0, 1.0, -2.0)),
            ("theorem2", (1.2, 0.3, 0.0, -1.0, 1.0, -2.0)),
        ],
    )
    def test_an_underflowed_node_is_not_a_zero(self, which, point, monkeypatch):
        # where |w|/2 is below the normal range, S(w) is its leading term to
        # rounding; f takes it with the weight in logs, never k_struve(sp, 0.0)
        mp = pytest.importorskip("mpmath")
        p = TheoremParams(*point)

        def refuse(*args, **kwargs):
            raise AssertionError("k_struve called")

        monkeypatch.setattr(identities, "k_struve", refuse)
        f, _ = identities._integrand(which, p, 1e-10)
        a, b = (p.alpha + p.mu, p.alpha) if which == "theorem1" else (p.alpha, p.alpha + p.mu)
        lam, k = mp.mpf(p.nu) / p.k + 1, mp.mpf(p.k)
        base = mp.mpf(p.nu) / k + mp.mpf(3) / 2
        scale0 = 1 / (k ** (base - 1) * mp.gamma(base) * mp.gamma(mp.mpf(3) / 2))
        for tiny in (1e-160, 1e-200, 1e-300, 5e-324):
            x, omx = (1.0, tiny) if which == "theorem1" else (tiny, 1.0)
            mx, momx = (1 - mp.mpf(tiny), mp.mpf(tiny)) if which == "theorem1" else (mp.mpf(tiny), 1 - mp.mpf(tiny))
            third, quarter = 1 - mx / 3, 1 - mx / 4
            w = p.y * (mx * third**2 if which == "theorem2" else quarter * momx**2)
            lead = (-1) ** int(lam) * (-w / 2) ** lam if w < 0 else (w / 2) ** lam
            weight = mx ** (a - 1) * momx ** (2 * b - 1) * third ** (2 * a - 1) * quarter ** (b - 1)
            exact = weight * lead * scale0
            value = f(x, omx)
            assert abs(value - exact) <= 1e-12 * abs(exact) + 5e-324, (which, p, tiny, value)


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
# covers (0, 8 sqrt(k/c)].  branch names the point's double polynomial:
# every node past its threshold ("certified"), some nodes below it, near
# small |g| ("per-node"), or (in the fixed-point regime) on (0, 8 sqrt(k/c)]
# only, with the integer terms above.
# Re-recorded when tanh-sinh began to sample each side from level 2 on only
# up to the t that levels 0 and 1 located, with the tail term in its estimate;
# theorem2-certified again when tanh-sinh gave each side its own loop, which
# adds the samples in another order.
PINNED_LHS = [
    ("theorem2", (1.3, 0.5, 2.1, -1.0, 1.0, 2.0), "certified",
     ("0x1.fe4294747812bp-12", "0x1.191b603c7730dp-51", 71, "0x1.fe4294747812bp-12")),
    ("theorem1", (1.2, 0.4, 2.3, 1.0, 1.0, 1.5), "certified",
     ("0x1.cb849a930a312p-10", "0x1.0ccc9c70e8964p-49", 72, "0x1.cb849a930a312p-10")),
    ("theorem1", (1.2, 0.4, 2.2, 1.0, 0.5, 5.0), "per-node",
     ("0x1.be9f5c3b88900p-3", "0x1.4dbc18dd3c3b6p-41", 72, "0x1.be9f5c3b88900p-3")),
    ("theorem2", (1.0, 0.25, 2.0, 1.0, 1.0, 20.0), "fixed-point",
     ("0x1.54aa8e5eab1f4p-2", "0x1.bb329f1f001ecp-41", 79, "0x1.54aa8e5eab1f4p-2")),
]
# rhs(which, p, corrected) at the PINNED_LHS points: (as printed, corrected).
# The corrected values were re-recorded when both forms came from one pass
# (the corrected sum as the printed one's companion): they moved by 4, 4,
# 13 and 3 ulps
PINNED_RHS = [
    ("0x1.449f13279dc01p-15", "0x1.fe4294747812ap-12"),
    ("0x1.1e807b0f263c8p-7", "0x1.cb849a930a31ap-10"),
    ("0x1.bbe0e4ceadf81p-1", "0x1.be9f5c3b8890bp-3"),
    ("0x1.12bbdf98a78cdp-9", "0x1.54aa8e5eab2afp-2"),
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
            # where the terms alternate and decrease from the first, |g| >= 1 - rho0 on
            # all of (0, W]; every node passes the threshold once that exceeds g_min
            g_min = struve.k_struve_poly(sp, wmax, series_tol).inline[1]
            rho0 = max(sp.c, 0.0) / sp.k * (0.5 * wmax) ** 2 / ((sp.nu / sp.k + 1.5) * 1.5)
            regime = "certified" if g_min < 1.0 - rho0 else "per-node"
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

    def test_a_node_below_its_leading_terms_accuracy_names_that_term(self):
        # a node near w = 0 whose k-Struve value sits near the bottom of the
        # normal range: its leading term, from its logarithm, is accurate to
        # 3.9e-13 only, above half the series tol
        point = TheoremParams(
            0.6411950629095238, 0.6870910044275164, 2.9097040631431024, 1.0, 0.5, 20.749913168839697
        )
        ((_, rep),) = verify_grid("theorem1", [point], tol=1e-11)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.error.startswith("ConvergenceError: k-Struve series at x=1.1254819742927913e-44")
        assert rep.error.endswith("below the accuracy of the leading term (relative error 3.92e-13)")
        ((_, rep),) = verify_grid("theorem1", [point], tol=1e-10)
        assert rep.verdict is Verdict.CONFIRMED_CORRECTED


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
        monkeypatch.setattr(
            identities, "_closed_forms", lambda which, p, tol, forms: [value * ratios[c] for c in forms]
        )
        report = verify("theorem1", BASE, threshold=1e-6)
        assert report.verdict is verdict
        assert report.lhs_value == value
        assert (report.rhs_paper, report.rhs_corrected) == (value * paper, value * corrected)
        assert report.rel_dev_paper == abs(value - value * paper) / value
        assert report.rel_dev_corrected == abs(value - value * corrected) / value
        assert report.strict_hypotheses is BASE.satisfies_strict()
        assert report.error == (None if converged else "ConvergenceError: stalled")

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
        assert report.error == (None if converged else "ConvergenceError: stalled")

    @pytest.mark.parametrize(
        "alpha, beta",
        [(0.7641776781621904, 0.3526397132221841), (0.7102129105830937, 0.7509601598829633)],
    )
    def test_lavoie_rounding_floor_names_its_error(self, alpha, beta):
        # at tol 1e-12 the weighted rule hands the integrand to tanh-sinh,
        # whose estimate stops on its rounding floor above tol * |value|
        report = identities.lavoie_trottier_check(alpha, beta, tol=1e-12)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.error.startswith("ConvergenceError: tanh_sinh estimate")
        assert "rounding floor" in report.error

    def test_lhs_partial_gains_the_integrand_error(self, monkeypatch):
        self._patch_integrate(monkeypatch, 0.25, 1e-12, False)
        with pytest.raises(ConvergenceError, match="^stalled$") as excinfo:
            lhs("theorem1", BASE)
        partial = excinfo.value.partial
        assert partial.value == 0.25 and not partial.converged
        assert partial.error_estimate > 1e-12 * 0.25

    def test_a_failure_without_a_partial_propagates(self, monkeypatch):
        # an integrand that fails leaves no estimate to judge
        def integrate(*args, **kwargs):
            raise ConvergenceError("no estimate")

        monkeypatch.setattr(identities, "integrate", integrate)
        with pytest.raises(ConvergenceError, match="no estimate"):
            verify("theorem1", BASE)
        with pytest.raises(ConvergenceError, match="no estimate"):
            identities.lavoie_trottier_check(1.0, 1.0)

    def test_zero_lhs_against_a_nonzero_closed_form_is_inconclusive(self, monkeypatch):
        self._patch_integrate(monkeypatch, 0.0, 0.0, True)
        monkeypatch.setattr(identities, "rhs", lambda which, p, corrected, tol: 0.25)
        rep = verify("theorem1", BASE)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.rel_dev_paper == rep.rel_dev_corrected == math.inf
        rec = record("theorem1", BASE._asdict(), rep)
        rows = (
            (emit_json, r'"rel_dev_paper": Infinity, "rel_dev_corrected": Infinity, "verdict": "INCONCLUSIVE"'),
            (emit_csv, r"inf,inf,INCONCLUSIVE"),
            (emit_table, r"inf +inf +INCONCLUSIVE"),
        )
        for emit, row in rows:
            out = io.StringIO()
            emit([rec], out)
            assert re.search(row, out.getvalue()), out.getvalue()
        # the Lavoie-Trottier check shares the rule
        assert identities.lavoie_trottier_check(1.0, 1.0).verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize(
        "point",
        [
            # |lhs| from 2.3e-308 to 9.9e-280: stopped on an absolute floor of
            # 1e-280, these ended with estimates of 4e-4 to 0.97 of the value
            (1.437096566167113, 0.028616698415335637, 73.44789964222723, 0.5, 1.0,
             0.010183276033507604),
            (11.031889885729148, 0.06569452084208321, 66.2908718928694, -2.0, 0.5,
             0.4125024024766909),
            (0.005570719754851946, 1.9591276440851093, 29.640756467414587, -1.0, 0.25,
             0.06534891075092293),
            (0.24882391567208906, 0.25984060835972583, 45.34322110361673, 2.0, 0.5,
             0.015428438819763213),
            (0.11415366967138176, 4.988242620397748, 286.98626487702086, 1.0, 2.0,
             2.998981114446564),
            (2.944385159179669, 6.60281715058323, 20.68482378494211, -1.0, 0.25,
             0.006134350506623678),
            (0.005141883611454125, 0.5512619236343528, 138.17129379260132, -2.0, 2.0,
             0.005981571786830176),
            (0.0792167608001662, 0.9460233395945243, 110.24206729324519, -1.0, 1.0,
             0.21936778961191017),
        ],
    )
    def test_tiny_values_hold_against_mpmath(self, point):
        mp = pytest.importorskip("mpmath")
        ((_, rep),) = verify_grid("theorem1", [TheoremParams(*point)], strict=False)
        assert rep.verdict is Verdict.CONFIRMED_CORRECTED
        assert abs(rep.lhs_value) < 1e-279
        reference = mp_closed_form(mp, "theorem1", True, *point)
        assert abs(mp.mpf(rep.lhs_value) - reference) <= rep.lhs_error_estimate
        assert rep.lhs_error_estimate <= 1e-10 * abs(rep.lhs_value)

"""Arguments at the ends of the double range fail only with the package's own errors.

Values such as 0, +-5e-324, 1e-310, 1e+-300 and 1.7e308 reach log-gamma
overflow, ratios that underflow to 0 or overflow to inf, and integer bounds
that leave the double range.  Each public entry must then raise a
:class:`KStruveError` (or, in ``verify_grid``, record one), never a bare
``OverflowError`` or ``ValueError``, so that a sweep keeps going and the CLI
maps the failure to its exit code.
"""

import math
import random

import pytest

from kstruve import (
    ConvergenceError,
    DomainError,
    KStruveError,
    OverflowRangeError,
    StruveParams,
    TheoremParams,
    Verdict,
    WrightSpec,
    gamma,
    integrate,
    k_gamma,
    k_struve,
    lavoie_trottier_check,
    verify,
    verify_grid,
    wright_eval,
)

EDGES = (0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308)
ORDINARY = (0.5, 1.0, 2.0, 3.0, -1.0)

REPRODUCERS = [
    pytest.param(lambda: lavoie_trottier_check(1.0, 1e308), id="lavoie-log-gamma"),
    pytest.param(lambda: k_gamma(-1e-10, 5e-324), id="k_gamma-infinite-ratio"),
    pytest.param(lambda: k_struve(StruveParams(2.0, 0.0, 1.0), 1.0, tol=1e-15), id="k_struve-c0"),
    pytest.param(
        lambda: wright_eval(WrightSpec([], [(1.5, 2), (1.0, 1)]), -1e10, tol=1e-12),
        id="wright-fixed-point-floors",
    ),
    pytest.param(
        lambda: wright_eval(
            WrightSpec([], [(16.20541046374236, 2), (45.24919621877793, 1)]), -1e10, tol=1e-14
        ),
        id="wright-fixed-point-tail",
    ),
    pytest.param(
        lambda: wright_eval(
            WrightSpec(
                ((39.80844061735951, 2), (29.623059151089052, 0.5)),
                ((23.462731749753896, 0.5), (-3.6034900622367894, 1.5)),
            ),
            -1.7e308,
        ),
        id="wright-log-term",
    ),
    pytest.param(lambda: integrate(lambda x, omx: 1.0, 1e-10, weight=(1.0,)), id="integrate-one-weight"),
    # every term of e**710 is finite, but their sum is not
    pytest.param(lambda: wright_eval(WrightSpec([], []), 710.0), id="wright-sum-overflow"),
]


@pytest.mark.parametrize("call", REPRODUCERS)
def test_reproducer_raises_a_package_error(call):
    with pytest.raises(KStruveError):
        call()


@pytest.mark.parametrize(
    "point", [TheoremParams(1e306, 1.0, 2.0), TheoremParams(1.0, 1.0, 1e306)], ids=["alpha", "nu"]
)
def test_log_gamma_overflow_is_an_inconclusive_row(point):
    ((p, report),) = verify_grid("theorem1", [point])
    assert p == point
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.error.startswith(OverflowRangeError.__name__)


def test_k_gamma_of_an_underflowing_ratio_keeps_its_value():
    # z/k = 1e-310 is subnormal and Gamma(z/k) overflows; Gamma_k is 1.0e300 (mpmath)
    assert k_gamma(1e-300, 1e10) == pytest.approx(1e300, rel=1e-14)
    assert k_gamma(-1e-300, 1e10) == pytest.approx(-1e300, rel=1e-14)
    with pytest.raises(OverflowRangeError):
        k_gamma(5e-324, 1e10)


def test_zero_c_keeps_its_value_and_refuses_a_tol_below_the_leading_term():
    params = StruveParams(2.0, 0.0, 1.0)
    assert k_struve(params, 1.0, tol=1e-14).value == 0.04244131815783878
    with pytest.raises(ConvergenceError, match="accuracy of the leading term"):
        k_struve(params, 1.0, tol=1e-15)


def test_edge_sweep_raises_only_package_errors():
    rng = random.Random(20261019)

    def pick():
        return rng.choice(EDGES) if rng.random() < 0.5 else rng.choice(ORDINARY)

    def slope():
        return abs(pick()) or 1.0

    calls = []
    for _ in range(250):
        which = rng.choice(("theorem1", "theorem2"))
        point = [pick() for _ in range(6)]
        calls.append(lambda w=which, v=point: verify_grid(w, [TheoremParams(*v)], strict=False))
        calls.append(lambda a=pick(), b=pick(): lavoie_trottier_check(a, b))
        tol = rng.choice((1e-10, 1e-14, 1e-15))
        series = (pick(), pick(), pick(), pick())
        calls.append(lambda s=series, t=tol: k_struve(StruveParams(*s[:3]), s[3], tol=t))
        upper = [(pick(), slope()) for _ in range(rng.randint(0, 2))]
        lower = [(pick(), slope()) for _ in range(rng.randint(0, 2))]
        calls.append(lambda u=upper, v=lower, z=pick(), t=tol: wright_eval(WrightSpec(u, v), z, t))
        calls.append(lambda z=pick(), k=pick(): k_gamma(z, k))
        calls.append(lambda x=pick(): gamma(x))
    failures = 0
    for call in calls:
        try:
            call()
        except KStruveError:
            failures += 1
    assert 0 < failures < len(calls)


POINT = TheoremParams(1.0, 0.5, 2.0)
TOL_ENTRIES = [
    pytest.param(lambda t: verify("theorem1", POINT, tol=t), id="verify"),
    pytest.param(lambda t: verify("theorem1", POINT, threshold=t), id="verify-threshold"),
    pytest.param(lambda t: verify_grid("theorem1", [POINT], tol=t), id="verify_grid"),
    pytest.param(lambda t: verify_grid("theorem1", [POINT], threshold=t), id="verify_grid-threshold"),
    pytest.param(lambda t: lavoie_trottier_check(1.0, 1.0, tol=t), id="lavoie_trottier_check"),
    pytest.param(lambda t: k_struve(StruveParams(2.0, 1.0, 1.0), 1.0, tol=t), id="k_struve"),
    pytest.param(lambda t: wright_eval(WrightSpec([(1.0, 1.0)], [(1.0, 1.0)]), 1.0, t), id="wright_eval"),
]


@pytest.mark.parametrize("tol", ["1e-10", None], ids=["str", "None"])
@pytest.mark.parametrize("call", TOL_ENTRIES)
def test_a_tol_that_is_not_a_number_raises_domain_error(call, tol):
    with pytest.raises(DomainError, match="must be a finite positive number"):
        call(tol)


def broad_scan_points():
    """The 600-point broad scan over the theorems' relaxed domain, seeded."""
    rng = random.Random(20261019)
    log = math.log
    points = []
    for _ in range(600):
        which = rng.choice(("theorem1", "theorem2"))
        alpha = math.exp(rng.uniform(log(1e-3), log(30.0)))
        while True:
            mu = math.exp(rng.uniform(log(1e-3), log(10.0)))
            if rng.random() < 0.1:
                mu = -mu
            if alpha + mu > 0.0:
                break
        k = rng.choice((0.25, 0.5, 1.0, 2.0))
        nu_over_k = rng.uniform(-1.45, 0.0) if rng.random() < 0.2 else rng.uniform(0.0, 150.0)
        c = rng.choice((-2.0, -1.0, 0.5, 1.0, 2.0))
        y = math.exp(rng.uniform(log(1e-3), log(50.0)))
        points.append((which, TheoremParams(alpha, mu, nu_over_k * k, c, k, y)))
    return points


def test_broad_scan_rows_all_state_a_reason():
    # every INCONCLUSIVE row says why: a closed form or a factor outside the
    # normal doubles, an integrand overflow, a hypothesis, or a quadrature
    # that did not converge
    rows = [verify_grid(which, [p], strict=False)[0][1] for which, p in broad_scan_points()]
    inconclusive = [r for r in rows if r.verdict is Verdict.INCONCLUSIVE]
    assert {r.verdict for r in rows} == {Verdict.CONFIRMED_CORRECTED, Verdict.INCONCLUSIVE}
    assert all(r.error for r in inconclusive)
    # 423 points confirm; a quadrature change that loses reach shows here
    assert sum(r.verdict is Verdict.CONFIRMED_CORRECTED for r in rows) >= 423

"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints "[criterion NN] <name>: PASS|FAIL" on the live terminal
(bypassing capture) so a full run reads as a checklist, then asserts.
"""

import io
import json
import math
import random
import sys
import time

import pytest

from kstruve import (
    ConvergenceError,
    StruveParams,
    TheoremParams,
    Verdict,
    WrightSpec,
    convergence_index,
    default_grid,
    k_gamma,
    k_struve,
    lavoie_trottier_check,
    lavoie_trottier_rhs,
    struve_h,
    struve_l,
    verify,
    verify_grid,
    wright_eval,
)
from kstruve import struve as struve_module
from kstruve.cli import main
from kstruve.struve import _SIGMA_MAX, k_struve_poly

from oracles import k_gamma_integral_oracle, mp_k_struve, struve_ode_residual


def announce(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else f"FAIL{' (' + detail + ')' if detail else ''}"
    with capsys.disabled():
        print(f"[criterion {number:02d}] {name}: {tag}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_lavoie_trottier_grid(capsys):
    grid = [0.6, 1.0, 1.5, 2.0, 3.25]
    start = time.perf_counter()
    worst = 0.0
    for alpha in grid:
        for beta in grid:
            report = lavoie_trottier_check(alpha, beta, tol=1e-10)
            worst = max(worst, report.rel_dev_paper)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    announce(capsys, 1, "lavoie-trottier 25-point grid",
             ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_k_gamma_recurrence_and_oracle(capsys):
    worst_rec = 0.0
    for z in (0.3, 0.9, 1.7, 4.2):
        for k in (0.5, 1.0, 2.0, 3.5):
            lhs = k_gamma(z + k, k)
            worst_rec = max(worst_rec, abs(lhs - z * k_gamma(z, k)) / abs(lhs))
    worst_oracle = 0.0
    for z in (0.5, 1.0, 2.5):
        for k in (0.5, 1.0, 2.0):
            direct = k_gamma(z, k)
            oracle = k_gamma_integral_oracle(z, k, tol=1e-10)
            worst_oracle = max(worst_oracle, abs(direct - oracle) / direct)
    ok = worst_rec <= 1e-12 and worst_oracle <= 1e-8
    announce(capsys, 2, "k-gamma recurrence and integral oracle",
             ok, f"recurrence {worst_rec:.2e}, oracle {worst_oracle:.2e}")


def test_criterion_03_struve_reductions_and_scaling(capsys):
    bitwise = True
    for nu in (0.0, 0.5, 1.0, 2.5):
        for x in (0.1, 1.0, 5.0):
            bitwise &= k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x) == struve_h(nu, x)
            bitwise &= k_struve(StruveParams(nu=nu, c=-1.0, k=1.0), x) == struve_l(nu, x)
    worst = 0.0
    for k in (0.5, 2.0, 4.0):
        for c in (0.5, 1.0, 3.0):
            for order in (0.5, 1.5):  # nu/k
                for x in (0.5, 2.0):
                    left = k_struve(StruveParams(nu=order * k, c=c, k=k), x, tol=1e-13)
                    scale = k ** -(order + 0.5) * (c / k) ** (-(order + 1.0) / 2.0)
                    right = scale * struve_h(order, x * math.sqrt(c / k), tol=1e-13).value
                    worst = max(worst, abs(left.value - right) / abs(right))
    ok = bitwise and worst <= 1e-10
    announce(capsys, 3, "struve reductions and scaling identity",
             ok, f"bitwise={bitwise}, scaling dev {worst:.2e}")


def test_criterion_04_ode_residual(capsys):
    worst = 0.0
    for nu in (0.0, 1.0):
        for x in (0.5, 1.0, 2.0, 4.0):
            worst = max(worst, struve_ode_residual(nu, x, step=1e-4, tol=1e-12))
    ok = worst <= 1e-6
    announce(capsys, 4, "struve ODE residual", ok, f"worst residual {worst:.2e}")


def _theorem_criterion(which: str):
    pairs = verify_grid(which, default_grid(which), tol=1e-10, threshold=1e-6)
    n_points = len(pairs)
    all_confirmed = all(rep.verdict is Verdict.CONFIRMED_CORRECTED for _, rep in pairs)
    worst_corr = max(rep.rel_dev_corrected for _, rep in pairs)
    return pairs, n_points, all_confirmed, worst_corr


def test_criterion_05_theorem1_grid(capsys):
    pairs, n, confirmed, worst = _theorem_criterion("theorem1")
    k1_separated = all(
        rep.rel_dev_paper > 1e-3 for p, rep in pairs if p.k == 1.0
    )
    ok = n == 24 and confirmed and worst <= 1e-8 and k1_separated
    announce(capsys, 5, "theorem 1 default grid",
             ok, f"{n} points, worst corrected dev {worst:.2e}")


def test_criterion_06_theorem2_grid(capsys):
    pairs, n, confirmed, worst = _theorem_criterion("theorem2")
    separated = all(rep.rel_dev_paper > 1e-3 for _, rep in pairs)
    ok = n == 24 and confirmed and worst <= 1e-8 and separated
    announce(capsys, 6, "theorem 2 default grid",
             ok, f"{n} points, worst corrected dev {worst:.2e}")


def test_criterion_07_corollaries(capsys):
    ok = True
    detail = []
    for which, parent in (("corollary1", "theorem1"), ("corollary2", "theorem2")):
        pairs = verify_grid(which, default_grid(which))
        delegated = all(rep == verify(parent, p) for p, rep in pairs)
        confirmed = all(rep.verdict is Verdict.CONFIRMED_CORRECTED for _, rep in pairs)
        ok &= len(pairs) == 6 and delegated and confirmed
        detail.append(f"{which}: {len(pairs)} pts delegated={delegated}")
    announce(capsys, 7, "corollary delegation and verdicts", ok, "; ".join(detail))


def test_criterion_08_wright_evaluator(capsys):
    rng = random.Random(8)
    worst_ratio = 0.0
    checked = 0
    while checked < 20:
        spec = WrightSpec(
            upper=[(rng.uniform(0.2, 4.0), rng.uniform(0.3, 2.0))
                   for _ in range(rng.randint(0, 2))],
            lower=[(rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.0))
                   for _ in range(rng.randint(1, 3))],
        )
        if convergence_index(spec) <= -0.9:
            continue
        closed = math.prod(math.gamma(a) for a, _ in spec.upper)
        closed /= math.prod(math.gamma(b) for b, _ in spec.lower)
        value = wright_eval(spec, 0.0).value
        worst_ratio = max(worst_ratio, abs(value - closed) / abs(closed))
        checked += 1

    exp_spec = WrightSpec(upper=[(1.0, 1.0)], lower=[(1.0, 1.0)])
    worst_exp = max(
        abs(wright_eval(exp_spec, z, tol=1e-14).value - math.exp(z)) / math.exp(z)
        for z in (-2.0, -0.5, 0.5, 2.0)
    )

    # partial-sum oracle for sum 1/(m!)^2 with a factorial-squared tail bound
    oracle, term, m = 0.0, 1.0, 0
    while term > 1e-20:
        oracle += term
        m += 1
        term /= m * m
    bessel = wright_eval(WrightSpec(upper=[], lower=[(1.0, 1.0)]), 1.0, tol=1e-14).value
    bessel_dev = abs(bessel - oracle) / oracle

    ok = worst_ratio <= 1e-13 and worst_exp <= 1e-12 and bessel_dev <= 1e-10
    announce(capsys, 8, "wright evaluator reductions",
             ok, f"z=0 {worst_ratio:.2e}, exp {worst_exp:.2e}, I0(2) {bessel_dev:.2e}")


def test_criterion_09_error_bound_soundness(capsys):
    rng = random.Random(9)
    violations = 0
    for _ in range(25):
        params = StruveParams(
            nu=rng.uniform(-1.0, 6.0), c=rng.uniform(-2.0, 2.0), k=rng.uniform(0.5, 3.0)
        )
        x = rng.uniform(0.01, 8.0)
        loose = k_struve(params, x, tol=1e-8)
        tight = k_struve(params, x, tol=1e-10)
        if abs(loose.value - tight.value) > loose.error_bound:
            violations += 1
    checked = 0
    while checked < 25:
        spec = WrightSpec(
            upper=[(rng.uniform(0.2, 4.0), rng.uniform(0.3, 2.0))
                   for _ in range(rng.randint(0, 2))],
            lower=[(rng.uniform(0.3, 4.0), rng.uniform(0.3, 2.0))
                   for _ in range(rng.randint(1, 3))],
        )
        if convergence_index(spec) <= -0.9:
            continue
        z = rng.uniform(-3.0, 3.0)
        loose = wright_eval(spec, z, tol=1e-8)
        tight = wright_eval(spec, z, tol=1e-10)
        if abs(loose.value - tight.value) > loose.error_bound:
            violations += 1
        checked += 1
    ok = violations == 0
    announce(capsys, 9, "series error-bound soundness (50 evaluations)",
             ok, f"{violations} violations")


def _mp_wright(mp, spec, z):
    """The Fox-Wright series at the exact double inputs, summed in mpmath."""
    z = mp.mpf(z)
    with mp.workdps(60 + int(3.0 * math.sqrt(abs(float(z))) / 2.3)):
        total, m = mp.mpf(0), 0
        while True:
            term = z**m / mp.factorial(m)
            for a, al in spec.upper:
                term *= mp.gamma(mp.mpf(a) + mp.mpf(al) * m)
            for b, be in spec.lower:
                term /= mp.gamma(mp.mpf(b) + mp.mpf(be) * m)
            total += term
            m += 1
            if m > 10 and abs(term) < abs(total) * mp.mpf(10) ** -40:
                return +total


def test_k_struve_bounds_hold_against_mpmath_oracle():
    """error_bound >= |value - S| for x up to 100, rounding included."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(91)
    for i in range(60):
        c = rng.choice([-1.0, 1.0, 2.0])
        k = rng.choice([0.5, 1.0, 2.0])
        # every fourth point sits in the relaxed corner nu/k in (-1.35, -1.15)
        nu = k * rng.uniform(-1.35, -1.15) if i % 4 == 0 else rng.uniform(-0.5, 6.0)
        x = rng.choice([rng.uniform(0.01, 8.0), rng.uniform(8.0, 100.0), 100.0])
        tol = rng.choice([1e-8, 1e-10, 1e-12])
        res = k_struve(StruveParams(nu=nu, c=c, k=k), x, tol=tol)
        error = abs(mp.mpf(res.value) - mp_k_struve(mp, nu, c, k, x))
        assert error <= res.error_bound, (nu, c, k, x, tol, res)
        assert res.error_bound <= tol * abs(res.value)


def test_k_struve_poly_bounds_hold_against_mpmath_oracle():
    """Each polynomial value is within its bound, and the bound within tol, on (0, W]."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(93)
    returned = calls = 0
    for c in (-1.0, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            for tol in (1e-8, 1e-12):
                nu = k * rng.uniform(-1.35, -1.15) if rng.random() < 0.25 else rng.uniform(-0.5, 6.0)
                # below the fixed-point regime, W sqrt(|c|/k) < 8
                wmax = rng.uniform(0.5, 7.9) * math.sqrt(k / abs(c))
                poly = k_struve_poly(StruveParams(nu=nu, c=c, k=k), wmax, tol)
                for w in (1e-3 * wmax, *(wmax * j / 5.0 for j in range(1, 6))):
                    calls += 1
                    res = poly(w)
                    if res is None:
                        continue
                    returned += 1
                    value, bound = res
                    error = abs(mp.mpf(value) - mp_k_struve(mp, nu, c, k, w))
                    assert error <= bound <= tol * abs(value), (nu, c, k, w, tol, res)
    assert returned >= 0.9 * calls, (returned, calls)


def test_k_struve_poly_fixed_point_regime_against_mpmath_oracle():
    """W sqrt(c/k) in [8, 60]: nodes on both sides of 8 sqrt(k/c), the double polynomial's W."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(95)
    returned = calls = above = 0
    for c in (0.3, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            for tol in (1e-8, 1e-12):
                nu = k * rng.uniform(-1.35, -1.15) if rng.random() < 0.25 else rng.uniform(-0.5, 6.0)
                params = StruveParams(nu=nu, c=c, k=k)
                wmax = rng.uniform(8.0, 60.0) * math.sqrt(k / c)
                poly = k_struve_poly(params, wmax, tol)
                split = min(wmax, 8.0 * math.sqrt(k / c))
                below = (1e-3 * split, 0.5 * split, split)
                beyond = (split + (wmax - split) * j / 4.0 for j in (0.01, 1, 2, 3, 4))
                for w in (*below, *beyond):
                    calls += 1
                    res = poly(w)
                    if res is None:
                        continue
                    returned += 1
                    above += w > split
                    value, bound = res
                    error = abs(mp.mpf(value) - mp_k_struve(mp, nu, c, k, w))
                    assert error <= bound <= tol * abs(value), (nu, c, k, wmax, w, tol, res)
    assert returned >= 0.9 * calls, (returned, calls)
    assert above >= 0.5 * calls, (above, calls)


def test_k_struve_poly_negative_c_beyond_the_range_of_the_raw_coefficients():
    """c = -1, k = 1: a_r alone underflows once x exceeds about 120, a_r V**r does not."""
    mp = pytest.importorskip("mpmath")
    for nu in (0.0, 2.0, 10.0, 40.0):
        params = StruveParams(nu=nu, c=-1.0, k=1.0)
        for wmax in (120.0, 160.0, 200.0, 300.0):
            poly = k_struve_poly(params, wmax, 1e-10)
            for w in (0.7 * wmax, wmax):
                value, bound = poly(w)
                error = abs(mp.mpf(value) - mp_k_struve(mp, nu, -1.0, 1.0, w))
                assert error <= bound <= 1e-10 * abs(value), (nu, wmax, w, value, bound)


@pytest.mark.parametrize("y", [160.0, 200.0])
def test_modified_struve_theorem_at_large_y_is_confirmed(y):
    # the integrand's raw coefficients a_r underflow at these y; with unscaled ones the point
    # read NEITHER at y = 160 (dev 2.4e-4) and a dev of 0.498 at 200
    p = TheoremParams(alpha=1.0, mu=0.5, nu=2.0, c=-1.0, k=1.0, y=y)
    report = verify("theorem1", p)
    assert report.verdict is Verdict.CONFIRMED_CORRECTED
    assert report.rel_dev_corrected < 1e-10


def test_k_struve_poly_integer_horner_serves_where_the_double_bound_fails(monkeypatch):
    """nu = 2, c = k = 1, W = 40: at 7 and 7.5, below 8 sqrt(k/c), integer Horner takes over.

    Both nodes are far from W (sigma > 0.9), so the Taylor shift is not tried.
    """
    mp = pytest.importorskip("mpmath")
    params = StruveParams(nu=2.0, c=1.0, k=1.0)
    poly = k_struve_poly(params, 40.0, 1e-12)
    monkeypatch.setattr(struve_module, "_integer_horner", lambda *args: None)
    double = k_struve_poly(params, 8.0, 1e-12)  # the double polynomial alone
    for w in (7.0, 7.5):
        assert double(w) is None, w
        value, bound = poly(w)
        error = abs(mp.mpf(value) - mp_k_struve(mp, 2.0, 1.0, 1.0, w))
        assert error <= bound <= 1e-12 * abs(value), (w, value, bound)


def test_k_struve_poly_taylor_at_w_against_mpmath_oracle(monkeypatch):
    """Next to W the shifted polynomial serves, within its bound, and only for sigma <= sigma_max."""
    mp = pytest.importorskip("mpmath")
    rng = random.Random(97)
    sigmas = (0.0, 1e-9, 1e-4, 0.01, 0.5 * _SIGMA_MAX, _SIGMA_MAX * (1.0 - 1e-6), _SIGMA_MAX * (1.0 + 1e-6))
    cases = []
    for c in (0.3, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            for tol in (1e-8, 1e-12):
                nu = k * rng.uniform(-1.35, -1.15) if rng.random() < 0.25 else rng.uniform(-0.5, 6.0)
                cases.append((StruveParams(nu=nu, c=c, k=k), rng.uniform(8.0, 60.0) * math.sqrt(k / c), tol))
    polys = [k_struve_poly(p, wmax, tol) for p, wmax, tol in cases]
    # the same polynomials without the shift: a node that the shift serves reads differently
    monkeypatch.setattr(struve_module, "_taylor_at_one", lambda *args: None)
    plain = [k_struve_poly(p, wmax, tol) for p, wmax, tol in cases]
    near = served = 0
    for (p, wmax, tol), poly, unshifted in zip(cases, polys, plain):
        split = min(wmax, 8.0 * math.sqrt(p.k / p.c))
        for sigma in sigmas:
            w = wmax * math.sqrt(1.0 - sigma)
            res = poly(w)
            assert res is not None, (p, wmax, w, tol)
            value, bound = res
            error = abs(mp.mpf(value) - mp_k_struve(mp, p.nu, p.c, p.k, w))
            assert error <= bound <= tol * abs(value), (p, wmax, w, tol, res)
            computed = (wmax - w) * (wmax + w) / (wmax * wmax)
            if computed > _SIGMA_MAX:
                assert res == unshifted(w), (p, wmax, w, tol)
            elif w > split:
                near += 1
                served += res != unshifted(w)
    assert near >= 0.5 * len(cases) * len(sigmas), near
    assert served >= 0.9 * near, (served, near)


def _per_node(params, xmax, tol, x):
    """(value, bound) of the double polynomial at x, with the bound computed at the node.

    The polynomial is rebuilt as ``struve._double_horner`` builds it, the
    leading term is computed as the evaluator computes it inline, and the bound is the
    per-node formula that served every node before the certificate: the
    tail scaled by (v / V)**R, the rounding of M and the leading term's
    error.  The caller passes only nodes that the polynomial served.
    """
    consts = params._series
    base = consts.base
    ck = abs(params.c) / params.k
    half_max = 0.5 * xmax
    vmax = half_max * half_max
    coefs, mag = [1.0], 1.0
    for r in range(500):
        rho = ck * vmax / ((r + base) * (r + 1.5))
        if rho < 1.0 and mag * rho / (1.0 - rho) <= 0.125 * tol:
            break
        coefs.append(coefs[-1] * (ck / ((r + base) * (r + 1.5))))
        mag *= rho
    degree = len(coefs) - 1
    tail = mag * rho / (1.0 - rho)
    evens, odds = coefs[::2], coefs[1::2] + [0.0] * (len(coefs) % 2)
    half = 0.5 * x
    unit = struve_module.UNIT
    lead, lead_err = half**consts.power * consts.scale0, consts.lead_err
    if consts.power_delta:
        t = consts.power_delta * math.log(half)
        lead *= 1.0 + t
        lead_err += t * t + 3.0 * unit * abs(t)
    v = half * half
    s = v * v
    even = odd = 0.0
    for a_even, a_odd in zip(reversed(evens), reversed(odds)):
        even = even * s + a_even
        odd = odd * s + a_odd
    odd *= v
    mags = even + odd
    value = lead * (even + (-1.0 if params.c > 0.0 else 1.0) * odd)
    size = abs(value)
    rounding = unit * (consts.step_ulps * degree + degree + 2.0)
    bound = lead * (tail * (v / vmax) ** degree + rounding * mags) + (lead_err + unit) * size
    return value, bound


def test_double_polynomial_certificate_against_mpmath_oracle(monkeypatch):
    """Where rel <= tol every node returns rel |value|: a true bound, and above the per-node one.

    xmax puts rho0 = (|c|/k) V / ((nu/k + 3/2) 3/2) on both sides of 1; the
    nodes are xmax, its neighbour, x/2 at the smallest normal and a leading
    term next to 1e-300.  With no fixed-point regime and no integer part,
    k_struve_poly is the double polynomial on all of (0, xmax], even where
    xmax sqrt(c/k) >= 8.
    """
    mp = pytest.importorskip("mpmath")
    monkeypatch.setattr(struve_module, "_FIXED_RATIO_SCALE", -math.inf)
    monkeypatch.setattr(struve_module, "_integer_horner", lambda *args: None)
    rng = random.Random(99)
    certified = per_node = 0
    for c in (-2.0, -1.0, -0.3, 0.3, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            for nuk in (-1.4, rng.uniform(-1.4, 8.0), 8.0):
                params = StruveParams(nu=nuk * k, c=c, k=k)
                base = nuk + 1.5
                scale0 = math.exp(params.log_scale)
                for rho0 in (rng.uniform(0.5, 0.97), rng.uniform(1.05, 2.0)):
                    xmax = 2.0 * math.sqrt(rho0 * base * 1.5 * k / abs(c))
                    nodes = [xmax, xmax * (1.0 - 1e-12), 2.0 * sys.float_info.min]
                    if params.power > 0.0:
                        nodes.append(2.0 * (2e-300 / scale0) ** (1.0 / params.power))
                    for tol in (1e-8, 1e-12):
                        poly = k_struve_poly(params, xmax, tol)
                        rel = struve_module._double_horner(params, xmax, tol)[-1]
                        for x in nodes:
                            res = poly(x)
                            if res is None:
                                continue
                            value, bound = res
                            error = abs(mp.mpf(value) - mp_k_struve(mp, params.nu, c, k, x))
                            assert error <= bound <= tol * abs(value), (params, xmax, x, tol, res)
                            node_value, node_bound = _per_node(params, xmax, tol, x)
                            assert value == node_value, (params, xmax, x, tol)
                            if rel <= tol:
                                certified += 1
                                assert node_bound <= tol * abs(node_value), (params, xmax, x, tol)
                                assert node_bound <= bound, (params, xmax, x, tol, node_bound, bound)
                            else:
                                per_node += 1
    assert certified >= 300 and per_node >= 100, (certified, per_node)


def test_wright_log_sum_floor_is_relative():
    """Integer slopes with |t_0| < 1e-304 take the log-space path; 1e-280 once cut it short."""
    mp = pytest.importorskip("mpmath")
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((170.5, 1.0),))
    for z in (-30.0, -100.0):
        exact = _mp_wright(mp, spec, z)
        # at tol = 1e-12 the first term's own error leaves no room: refuse or be right
        try:
            res = wright_eval(spec, z, tol=1e-12)
        except ConvergenceError:
            pass
        else:
            assert abs(mp.mpf(res.value) - exact) <= res.error_bound <= 1e-12 * abs(res.value)
        res = wright_eval(spec, z, tol=1e-11)
        error = abs(mp.mpf(res.value) - exact)
        assert error <= res.error_bound and error <= 1e-12 * abs(exact), (z, res)


def test_wright_large_negative_z_against_mpmath_oracle():
    """z = -100 and -400 on both theorem specs; at -400 the fixed-point pass runs directly."""
    mp = pytest.importorskip("mpmath")
    from kstruve.identities import _wright_tail
    from kstruve.wright import _peak_bits

    p = TheoremParams(alpha=0.5, mu=0.25, nu=2.0, c=1.0, k=0.5, y=40.0)
    for corrected in (False, True):
        spec = _wright_tail(p, corrected)
        assert _peak_bits(spec._plan, -12.5, 1e-10) == 0  # small |z| keeps the double loop
        for z in (-100.0, -400.0):
            exact = _mp_wright(mp, spec, z)
            for tol in (1e-8, 1e-11, 1e-12):
                direct = _peak_bits(spec._plan, z, tol)
                assert (direct > 0) == (z == -400.0), (corrected, z, tol, direct)
                res = wright_eval(spec, z, tol=tol)
                error = abs(mp.mpf(res.value) - exact)
                assert error <= res.error_bound <= tol * abs(res.value), (corrected, z, tol, res)


def test_wright_bounds_hold_against_mpmath_oracle():
    """error_bound >= |value - Psi| on the theorem specs, z down to -2500."""
    mp = pytest.importorskip("mpmath")
    from kstruve.identities import _wright_tail

    rng = random.Random(92)
    for i in range(16):
        p = TheoremParams(
            alpha=rng.uniform(0.3, 3.0), mu=rng.uniform(0.1, 1.5), nu=rng.uniform(1.6, 4.0),
            c=1.0, k=rng.choice([0.5, 1.0, 2.0]), y=1.0,
        )
        spec = _wright_tail(p, corrected=i % 2 == 0)
        z = -rng.choice([rng.uniform(0.0, 3.0), rng.uniform(3.0, 400.0), 2500.0])
        tol = rng.choice([1e-8, 1e-11, 1e-12])
        res = wright_eval(spec, z, tol=tol)
        error = abs(mp.mpf(res.value) - _mp_wright(mp, spec, z))
        assert error <= res.error_bound, (p, z, tol, res)
        assert res.error_bound <= tol * abs(res.value)


def test_k_struve_tiny_argument_carries_the_exact_power():
    """nu/k + 1 is not a double here; at x = 1e-20 its error alone is 6.5e-15."""
    mp = pytest.importorskip("mpmath")
    params = StruveParams(nu=3.1, c=2.0, k=0.7)
    for x in (1e-20, 1e-12, 1e-5):
        res = k_struve(params, x, tol=1e-14)
        error = abs(mp.mpf(res.value) - mp_k_struve(mp, 3.1, 2.0, 0.7, x))
        assert error <= res.error_bound <= 1e-14 * abs(res.value), (x, res)


def test_k_struve_subnormal_argument_under_a_negative_power():
    """x/2 rounds below the normal range; with nu/k + 1 < 0 that error reaches the value."""
    mp = pytest.importorskip("mpmath")
    params = StruveParams(nu=-1.2, c=1.0, k=1.0)
    poly = k_struve_poly(params, 1.0, 1e-12)
    for x in (1e-310, 3e-310, 1.5e-323, 5e-324):
        res = k_struve(params, x)
        error = abs(mp.mpf(res.value) - mp_k_struve(mp, -1.2, 1.0, 1.0, x))
        assert error <= res.error_bound <= 1e-12 * abs(res.value), (x, res)
        assert poly(x) is None  # the caller falls back to k_struve


def test_k_struve_poly_where_the_squared_argument_underflows():
    """At W = 1e-170, (W/2)**2 is 0.0 while (x/2)**-0.2 is about 1e34."""
    mp = pytest.importorskip("mpmath")
    for c in (1.0, -1.0):
        params = StruveParams(nu=-1.2, c=c, k=1.0)
        poly = k_struve_poly(params, 1e-170, 1e-12)
        for x in (1e-170, 3e-171, 1e-200):
            value, bound = poly(x)
            error = abs(mp.mpf(value) - mp_k_struve(mp, -1.2, c, 1.0, x))
            assert error <= bound <= 1e-12 * abs(value), (c, x, value, bound)


def test_subnormal_results_carry_a_nonzero_bound():
    """Below the normal range rounding is absolute, a subnormal spacing per step."""
    mp = pytest.importorskip("mpmath")
    res = k_struve(StruveParams(nu=4.80, c=1.0, k=0.5), 1.55e-30)
    assert 0.0 < res.value < sys.float_info.min
    error = abs(mp.mpf(res.value) - mp_k_struve(mp, 4.80, 1.0, 0.5, 1.55e-30))
    assert 0.0 < error <= res.error_bound, res
    spec = WrightSpec(upper=((1.0, 1.0),), lower=((175.5, 1.0), (1.5, 1.0)))
    res = wright_eval(spec, -1.0)
    assert 0.0 < res.value < sys.float_info.min
    error = abs(mp.mpf(res.value) - _mp_wright(mp, spec, -1.0))
    assert 0.0 < error <= res.error_bound, res


def test_k_struve_leading_term_below_the_normal_range_keeps_its_digits():
    """nu = 1000, c = -1: (x/2)**1001 / Gamma(1001.5) underflows while the sum does not.

    At x = 345 and 350 the term rounds to 0, at 352 to a subnormal with 2e-3
    relative error, yet S is 8e-319, 3e-312 and 1.4e-309; at 355 S is normal.
    """
    mp = pytest.importorskip("mpmath")
    params = StruveParams(nu=1000.0, c=-1.0, k=1.0)
    for x in (300.0, 345.0, 350.0, 352.0, 355.0):
        res = k_struve(params, x, tol=1e-10)
        error = abs(mp.mpf(res.value) - mp_k_struve(mp, 1000.0, -1.0, 1.0, x))
        assert error <= res.error_bound, (x, res)
        assert res.error_bound <= 1e-10 * res.value + (res.terms_used + 2) * 2.0**-1074, (x, res)


def test_wright_small_sum_keeps_its_relative_accuracy():
    """A sum near 1e-300 that a large prefactor scales back up: the floor must not cut it short."""
    mp = pytest.importorskip("mpmath")
    from kstruve.identities import _wright_tail

    p = TheoremParams(alpha=2.1930734314213707, mu=0.6328100443815208, nu=81.61266224641241,
                      c=-1.0, k=0.5, y=2.165686070521333)
    spec = _wright_tail(p, corrected=True)
    z = p.y * p.y / (4.0 * p.k)
    res = wright_eval(spec, z, tol=1e-11)
    exact = _mp_wright(mp, spec, z)
    assert abs(mp.mpf(res.value) - exact) <= res.error_bound <= 1e-11 * abs(res.value)
    assert verify("theorem1", p, strict=False).verdict is Verdict.CONFIRMED_CORRECTED


def test_struve_h_at_60_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    res = struve_h(2.0, 60.0)
    assert res.value == pytest.approx(12.698717974725534, rel=1e-12)
    assert abs(res.value - 12.698717974725534) <= res.error_bound
    assert abs(mp.mpf(res.value) - mp_k_struve(mp, 2.0, 1.0, 1.0, 60.0)) <= res.error_bound
    # README and the CI eval step print this value, 12.698717974725659
    assert (res.value.hex(), res.error_bound.hex()) == ("0x1.965be5cc525ebp+3", "0x1.68cff65877cb5p-40")


def test_criterion_10_cli_determinism_and_exit_codes(capsys):
    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=out, stderr=err)
        return code, out.getvalue()

    first = run("verify", "theorem1", "--grid", "default", "--format", "json")
    second = run("verify", "theorem1", "--grid", "default", "--format", "json")
    deterministic = first == second and first[0] == 0

    codes = {
        0: run("verify", "lavoie", "--alpha", "1", "--beta", "1")[0],
        1: run("verify", "nonesuch")[0],
        2: run("eval", "gamma", "--", "-1")[0],
        3: run("eval", "kstruve", "--nu", "0", "--c", "1", "--k", "1", "--x", "1e8")[0],
        4: run("verify", "theorem1", "--alpha", "1", "--mu", "0.5", "--nu", "2",
               "--threshold", "1e-15")[0],
    }
    contract = all(want == got for want, got in codes.items())
    ok = deterministic and contract
    announce(capsys, 10, "CLI determinism and exit codes",
             ok, f"deterministic={deterministic}, codes={codes}")

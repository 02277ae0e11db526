"""Definite integration on (0, 1) with two complementary rules.

* ``adaptive_gk``: globally adaptive bisection driven by a Gauss-Kronrod
  7/15 pair (the classic QUADPACK dqk15 nodes).  Fast and sharp for
  integrands analytic on [0, 1].
* ``tanh_sinh``: the double-exponential transform x = (1 + tanh((pi/2)
  sinh t)) / 2, which crushes integrable endpoint singularities like
  x**p or (1-x)**q with p, q > -1.  Each level's nodes form one table,
  built on the level's first use and shared by every later integration.
  Each tail of a level ends on its own negligible samples, so an endpoint
  where f decays fast is sampled less than one where it decays slowly.

``select_method`` picks between them from the integrand's endpoint powers:
Gauss-Kronrod when every power is a non-negative integer (an analytic
integrand), tanh-sinh for any non-integer power, however large.

Endpoint precision.  Near x = 1 the quantity 1 - x loses all precision in
double arithmetic, which ruins weights like (1-x)**(2*beta-1) exactly where
tanh-sinh places its most delicate nodes.  Integrands may therefore accept a
second positional argument and will be called as ``f(x, 1 - x)`` with the
complement computed analytically from the transform (accurate down to about
1e-308).  Plain single-argument callables are never handed abscissae that
round to exactly 0.0 or 1.0.  A non-finite sample raises at once.
"""

from __future__ import annotations

import heapq
import inspect
import math
import types

from .errors import ConvergenceError, DomainError, NonFiniteSampleError
from .gamma import log_gamma
from .results import TINY, IdentityReport, QuadratureResult, Verdict

_METHODS = ("adaptive_gk", "tanh_sinh")

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (QUADPACK dqk15).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_MAX_GK_INTERVALS = 4096
_TS_MAX_LEVEL = 12
_TS_T_CAP = 6.8  # exp(-pi*sinh t) underflows to 0.0 just beyond this


# attributes through which inspect.signature departs from a function's code
_SIGNATURE_OVERRIDES = frozenset(("__wrapped__", "__signature__"))


def _takes_two(f) -> bool:
    """Whether f accepts two positional arguments.

    A plain function that ``inspect`` would not unwrap or override is read
    from its code object, which is much cheaper than ``inspect.signature``;
    every other callable goes through ``inspect``.
    """
    if type(f) is types.FunctionType and not (_SIGNATURE_OVERRIDES & f.__dict__.keys()):
        code = f.__code__
        return code.co_argcount >= 2 or bool(code.co_flags & inspect.CO_VARARGS)
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        return False
    positional = 0
    for par in sig.parameters.values():
        if par.kind in (par.POSITIONAL_ONLY, par.POSITIONAL_OR_KEYWORD):
            positional += 1
        elif par.kind == par.VAR_POSITIONAL:
            positional = 2
    return positional >= 2


def _normalize_integrand(f):
    """Return (g, endpoint_safe) where g(x, one_minus_x) wraps f.

    ``endpoint_safe`` is True when f itself takes the complement argument and
    can therefore be trusted arbitrarily close to x = 1.
    """
    if _takes_two(f):
        return f, True
    return (lambda x, omx: f(x)), False


def _bad_sample(value: float, x: float) -> NonFiniteSampleError:
    return NonFiniteSampleError(f"integrand returned {value!r} at x = {x!r}")


# each tanh-sinh level's nodes, built on first use (a race only builds one twice)
_TS_LEVELS: list[tuple | None] = [None] * (_TS_MAX_LEVEL + 1)


def _ts_level(level: int) -> tuple[tuple[float, float, float, bool], ...]:
    """Nodes (x, 1 - x, weight, past_two) at t = j h, h = 2**-level, up to underflow.

    Level 0 takes every j >= 1, later levels the odd j only.  ``past_two``
    marks where a negligible sample may end one side of the level, x or 1 - x:
    level 0 and t >= 2.
    """
    h = 0.5**level
    nodes = []
    for j in range(1, int(_TS_T_CAP / h) + 1, 2 if level else 1):
        t = j * h
        # e2 gives both the point and its complement without cancellation
        e2 = math.exp(-math.pi * math.sinh(t))
        denom = 1.0 + e2
        weight = math.pi * math.cosh(t) * e2 / (denom * denom)
        if weight == 0.0:
            break
        nodes.append((e2 / denom, 1.0 / denom, weight, not level or t >= 2.0))
    return tuple(nodes)


def _tanh_sinh(g, tol: float, endpoint_safe: bool) -> QuadratureResult:
    """Double-exponential rule on (0, 1) with successive level refinement.

    Each level walks its node table from t = h outwards and samples both
    abscissae of a node, x near 0 and 1 - x near 1.  The two sides end
    apart: at ``past_two`` nodes a sample w |f| is negligible when it is at
    most 1e-17 max(|level sum|, |previous total| / h, 1e-300), and a side
    with two negligible samples in a row is not sampled again in that level,
    so a fast-decaying tail stops while the slow one goes on.  The level
    ends when both sides have ended or its table runs out.
    """
    isfinite = math.isfinite
    f_mid = g(0.5, 0.5)
    if not isfinite(f_mid):
        raise _bad_sample(f_mid, 0.5)
    evaluations = 1
    # level 0 has step h = 1 and the node t = 0; each later level halves h
    # and adds the odd multiples of it, the even ones being known.  The
    # integral of |f| follows the same recurrence; level 0's estimate of it,
    # times 50 ulps, is the rounding floor of every later level
    level_sum = (math.pi / 4.0) * f_mid
    level_abs = abs(level_sum)
    previous = previous_abs = floor = 0.0
    for level in range(_TS_MAX_LEVEL + 1):
        h = 0.5**level
        nodes = _TS_LEVELS[level]
        if nodes is None:
            nodes = _TS_LEVELS[level] = _ts_level(level)
        # rounding is monotone, so 1e-17 max(|level_sum|, |previous| / h,
        # 1e-300) is the larger of 1e-17 |level_sum| and this, exactly
        cut_floor = 1e-17 * max(abs(previous) / h, 1e-300)
        run_big = run_small = 0
        walk = iter(nodes)
        for small, big, weight, past_two in walk:
            # small is never 0.0; a plain f(x) gets 0.0 where big rounds to 1.0
            if endpoint_safe or big != 1.0:
                f_big = g(big, small)
                if not isfinite(f_big):
                    raise _bad_sample(f_big, big)
                evaluations += 2
            else:
                f_big = 0.0
                evaluations += 1
            f_small = g(small, big)
            if not isfinite(f_small):
                raise _bad_sample(f_small, small)
            level_sum += weight * (f_big + f_small)
            level_abs += weight * (abs(f_big) + abs(f_small))
            if past_two:
                cut = 1e-17 * abs(level_sum)
                if cut < cut_floor:
                    cut = cut_floor
                run_big = run_big + 1 if weight * abs(f_big) <= cut else 0
                run_small = run_small + 1 if weight * abs(f_small) <= cut else 0
                if run_big >= 2 or run_small >= 2:
                    break
        # a side with two negligible samples in a row is done; the other one
        # walks the rest of the table alone, keeping its run (every node left
        # is past_two, and only a big abscissa can round to 1.0)
        if run_big < 2 <= run_small:
            big_live, run = True, run_big
        elif run_small < 2 <= run_big:
            big_live, run = False, run_small
        else:
            walk = ()
        for small, big, weight, _ in walk:
            x, omx = (big, small) if big_live else (small, big)
            if endpoint_safe or x != 1.0:
                f_x = g(x, omx)
                if not isfinite(f_x):
                    raise _bad_sample(f_x, x)
                evaluations += 1
            else:
                f_x = 0.0
            level_sum += weight * f_x
            level_abs += weight * abs(f_x)
            cut = 1e-17 * abs(level_sum)
            if cut < cut_floor:
                cut = cut_floor
            if weight * abs(f_x) <= cut:
                run += 1
                if run >= 2:
                    break
            else:
                run = 0
        total = 0.5 * previous + h * level_sum
        total_abs = 0.5 * previous_abs + h * level_abs
        estimate = abs(total - previous)
        previous, previous_abs = total, total_abs
        if level >= 2 and estimate <= max(tol * abs(total), TINY):
            return QuadratureResult(
                total, max(estimate, 1.1e-16 * abs(total)), evaluations, True, total_abs
            )
        if not level:
            floor = 50.0 * 2.220446049250313e-16 * total_abs
        if level >= 2 and estimate <= floor:
            raise ConvergenceError(
                f"tanh_sinh estimate {estimate:.3e} is below the rounding floor "
                f"{floor:.3e} but above tol * |value|",
                partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
            )
        level_sum = level_abs = 0.0

    raise ConvergenceError(
        f"tanh_sinh stalled at estimate {estimate:.3e} after level {_TS_MAX_LEVEL}",
        partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
    )


def _gk_rule(g, a: float, b: float, counter: list) -> tuple[float, float, bool, float]:
    """15-point Kronrod value, error estimate, floor flag and integral of |f| on [a, b].

    The estimate follows QUADPACK dqk15: the raw Gauss/Kronrod difference is
    sharpened through (200 d / resasc)**1.5 only relative to resasc, the
    integral of |f - mean|, so agreement by accident on a large-scale
    integrand is not mistaken for convergence; a 50-ulp floor on the
    integral of |f| covers plain rounding.  The flag is True when that floor
    set the estimate, so that bisection cannot lower it.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    counter[0] += 15  # the rule samples f at 15 points
    fc = g(center, 1.0 - center)
    if not math.isfinite(fc):
        raise _bad_sample(fc, center)
    res_gauss = _WG[3] * fc
    res_kronrod = _WGK[7] * fc
    res_abs = _WGK[7] * abs(fc)
    samples = []
    for i in range(7):
        dx = half * _XGK[i]
        x1 = center - dx
        x2 = center + dx
        f1 = g(x1, 1.0 - x1)
        if not math.isfinite(f1):
            raise _bad_sample(f1, x1)
        f2 = g(x2, 1.0 - x2)
        if not math.isfinite(f2):
            raise _bad_sample(f2, x2)
        samples.append((f1, f2))
        res_kronrod += _WGK[i] * (f1 + f2)
        res_abs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            res_gauss += _WG[i // 2] * (f1 + f2)
    mean = res_kronrod * 0.5
    res_asc = _WGK[7] * abs(fc - mean)
    for i, (f1, f2) in enumerate(samples):
        res_asc += _WGK[i] * (abs(f1 - mean) + abs(f2 - mean))
    scale = abs(half)
    res_abs *= scale
    res_asc *= scale
    error = abs((res_kronrod - res_gauss) * half)
    if res_asc != 0.0 and error != 0.0:
        error = res_asc * min(1.0, (200.0 * error / res_asc) ** 1.5)
    floored = False
    if res_abs > 1e-290:
        floor = 50.0 * 2.220446049250313e-16 * res_abs
        if floor >= error:
            error = floor
            floored = True
    return res_kronrod * half, error, floored, res_abs


def _resummed_partial(heap, counter) -> QuadratureResult:
    """Exact heap totals for a non-converged result."""
    value = math.fsum(item[4] for item in heap)
    error = math.fsum(item[5] for item in heap)
    return QuadratureResult(value, error, counter[0], False, math.fsum(item[7] for item in heap))


def _adaptive_gk(g, tol: float) -> QuadratureResult:
    """Globally adaptive bisection on (0, 1) with a worst-interval heap."""
    counter = [0]
    value, error, floored, mag = _gk_rule(g, 0.0, 1.0, counter)
    heap = [(-error, 0, 0.0, 1.0, value, error, floored, mag)]
    seq = 1
    rough = 0 if floored else 1  # live intervals above their rounding floor
    total_value = value
    total_error = error
    while True:
        if total_error <= max(tol * abs(total_value), TINY) or not rough:
            # the running accumulator can drift (or be annihilated outright
            # when one interval's estimate dwarfs the rest), so convergence
            # is only declared on an exact resummation of the live heap
            total_value = math.fsum(item[4] for item in heap)
            total_error = math.fsum(item[5] for item in heap)
            if total_error <= max(tol * abs(total_value), TINY):
                total_abs = math.fsum(item[7] for item in heap)
                return QuadratureResult(total_value, total_error, counter[0], True, total_abs)
            if not rough:
                partial = _resummed_partial(heap, counter)
                raise ConvergenceError(
                    f"adaptive_gk estimate {partial.error_estimate:.3e} is the rounding "
                    f"floor of every interval, above tol * |value|",
                    partial=partial,
                )
        if len(heap) >= _MAX_GK_INTERVALS:
            partial = _resummed_partial(heap, counter)
            raise ConvergenceError(
                f"adaptive_gk exhausted {_MAX_GK_INTERVALS} intervals "
                f"at estimate {partial.error_estimate:.3e}",
                partial=partial,
            )
        item = heapq.heappop(heap)
        _, _, a, b, val, err, floored, _ = item
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            heapq.heappush(heap, item)
            partial = _resummed_partial(heap, counter)
            raise ConvergenceError(
                f"adaptive_gk interval at [{a}, {b}] is too small to bisect",
                partial=partial,
            )
        v1, e1, f1, m1 = _gk_rule(g, a, mid, counter)
        v2, e2, f2, m2 = _gk_rule(g, mid, b, counter)
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1, f1, m1))
        heapq.heappush(heap, (-e2, seq + 1, mid, b, v2, e2, f2, m2))
        seq += 2
        rough += (not f1) + (not f2) - (not floored)
        total_value += v1 + v2 - val
        total_error += e1 + e2 - err


def integrate(f, tol: float, method: str = "adaptive_gk") -> QuadratureResult:
    """Integrate f over (0, 1) to relative tolerance tol.

    ``f`` is either ``f(x)`` or ``f(x, one_minus_x)``; see the module
    docstring.  Convergence means the internal error estimate satisfies
    ``estimate <= max(tol * |value|, 1e-280)``: relative to the value, with
    an absolute floor that only an integrand vanishing to underflow reaches.
    An integral that is zero only to rounding, such as that of x - 1/2,
    therefore does not converge.  Failure to converge raises
    :class:`ConvergenceError` whose ``partial`` attribute holds the best
    :class:`QuadratureResult` so far (``converged=False``).
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive number, got {tol!r}")
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {_METHODS}")
    g, endpoint_safe = _normalize_integrand(f)
    if method == "tanh_sinh":
        return _tanh_sinh(g, tol, endpoint_safe)
    return _adaptive_gk(g, tol)


def select_method(*endpoint_exponents: float) -> str:
    """Pick a rule from the powers of the whole integrand at its endpoints.

    Gauss-Kronrod runs only when every power is a non-negative integer, so
    that the integrand is analytic on [0, 1] and the 15-point rule converges
    geometrically.  Any other power, even one above 1, leaves a derivative
    unbounded at an endpoint: Gauss-Kronrod then converges only algebraically
    there and its estimate under-reports, while tanh-sinh keeps its
    double-exponential rate.
    """
    if all(e >= 0.0 and e == math.floor(e) for e in endpoint_exponents):
        return "adaptive_gk"
    return "tanh_sinh"


def lavoie_trottier_rhs(alpha: float, beta: float) -> float:
    """Closed form (2/3)**(2 alpha) * Gamma(alpha) Gamma(beta) / Gamma(alpha+beta)."""
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(f"Lavoie-Trottier needs alpha, beta > 0, got {alpha}, {beta}")
    log_ratio = log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
    return (2.0 / 3.0) ** (2.0 * alpha) * math.exp(log_ratio)


def lavoie_trottier_check(alpha: float, beta: float, tol: float = 1e-10) -> IdentityReport:
    """Quadrature-versus-closed-form test of the Lavoie-Trottier integral.

    The integral int_0^1 x**(a-1) (1-x)**(2b-1) (1-x/3)**(2a-1) (1-x/4)**(b-1) dx
    is evaluated numerically and compared against :func:`lavoie_trottier_rhs`;
    agreement within ``tol`` (relative) yields verdict BOTH_AGREE.  One
    :func:`integrate` pass stops once its estimate is at most
    ``max(q * |value|, 1e-280)`` with ``q = max(tol / 100, 1e-14)``.  The
    integrand is positive, so the integral is never zero to rounding; a
    quadrature that does not converge contributes its partial result and the
    verdict is INCONCLUSIVE.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(f"Lavoie-Trottier needs alpha, beta > 0, got {alpha}, {beta}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive number, got {tol!r}")
    rhs = lavoie_trottier_rhs(alpha, beta)

    e_x = alpha - 1.0
    e_omx = 2.0 * beta - 1.0
    e_third = 2.0 * alpha - 1.0
    e_quarter = beta - 1.0

    def integrand(x, omx):
        return x**e_x * omx**e_omx * (1.0 - x / 3.0) ** e_third * (1.0 - x / 4.0) ** e_quarter

    method = select_method(e_x, e_omx)
    try:
        quad = integrate(integrand, tol=max(tol * 1e-2, 1e-14), method=method)
    except ConvergenceError as exc:
        quad = exc.partial
    denom = max(abs(quad.value), 1e-300)
    dev = abs(quad.value - rhs) / denom
    if not quad.converged or quad.error_estimate > tol * denom:
        verdict = Verdict.INCONCLUSIVE
    elif dev <= tol:
        verdict = Verdict.BOTH_AGREE
    else:
        verdict = Verdict.NEITHER
    return IdentityReport(
        lhs_value=quad.value,
        lhs_error_estimate=quad.error_estimate,
        rhs_paper=rhs,
        rhs_corrected=rhs,
        rel_dev_paper=dev,
        rel_dev_corrected=dev,
        verdict=verdict,
        strict_hypotheses=True,
    )

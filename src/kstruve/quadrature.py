"""Definite integration on (0, 1) with two complementary rules.

Two engines cover everything the identity checks need:

* ``adaptive_gk``: globally adaptive bisection driven by a Gauss-Kronrod
  7/15 pair (the classic QUADPACK dqk15 nodes).  Fast and sharp for smooth
  integrands.
* ``tanh_sinh``: the double-exponential transform x = (1 + tanh((pi/2)
  sinh t)) / 2, which crushes integrable endpoint singularities like
  x**p or (1-x)**q with p, q > -1.

Endpoint precision.  Near x = 1 the quantity 1 - x loses all precision in
double arithmetic, which ruins weights like (1-x)**(2*beta-1) exactly where
tanh-sinh places its most delicate nodes.  Integrands may therefore accept a
second positional argument and will be called as ``f(x, 1 - x)`` with the
complement computed analytically from the transform (accurate down to about
1e-308).  Plain single-argument callables keep working; they are simply never
handed abscissae that round to exactly 0.0 or 1.0.
"""

from __future__ import annotations

import heapq
import inspect
import math

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


def _normalize_integrand(f):
    """Return (g, endpoint_safe) where g(x, one_minus_x) wraps f.

    ``endpoint_safe`` is True when f itself takes the complement argument and
    can therefore be trusted arbitrarily close to x = 1.
    """
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        sig = None
    takes_two = False
    if sig is not None:
        positional = 0
        for par in sig.parameters.values():
            if par.kind in (par.POSITIONAL_ONLY, par.POSITIONAL_OR_KEYWORD):
                positional += 1
            elif par.kind == par.VAR_POSITIONAL:
                positional = 2
        takes_two = positional >= 2
    if takes_two:
        return f, True

    def unary(x, omx, _f=f):
        return _f(x)

    return unary, False


def _check_sample(value: float, x: float) -> float:
    if not math.isfinite(value):
        raise NonFiniteSampleError(f"integrand returned {value!r} at x = {x!r}")
    return value


def _tanh_sinh(g, tol: float, endpoint_safe: bool) -> QuadratureResult:
    """Double-exponential rule on (0, 1) with successive level refinement."""
    evaluations = 0

    def node(t: float):
        # abscissa pair at +-t; e2 = exp(-pi sinh t) gives both the point
        # and its complement without cancellation
        e2 = math.exp(-math.pi * math.sinh(t))
        if e2 == 0.0:
            return None
        denom = 1.0 + e2
        small = e2 / denom
        big = 1.0 / denom
        weight = math.pi * math.cosh(t) * e2 / (denom * denom)
        return small, big, weight

    def sample(x: float, omx: float) -> float:
        nonlocal evaluations
        if not endpoint_safe and (x == 0.0 or x == 1.0):
            return 0.0  # unrepresentable abscissa for a plain f(x)
        evaluations += 1
        return _check_sample(g(x, omx), x)

    # level 0: h = 1, nodes at integer t; level_abs estimates the integral
    # of |f|, whose 50-ulp share is the rounding floor of every later level
    h = 1.0
    mid = sample(0.5, 0.5)
    level_sum = (math.pi / 4.0) * mid
    level_abs = (math.pi / 4.0) * abs(mid)
    j = 1
    tiny_run = 0
    while j * h <= _TS_T_CAP:
        pair = node(j * h)
        if pair is None or pair[2] == 0.0:
            break
        small, big, weight = pair
        f_big = sample(big, small)
        f_small = sample(small, big)
        contrib = weight * (f_big + f_small)
        level_abs += weight * (abs(f_big) + abs(f_small))
        level_sum += contrib
        if abs(contrib) <= 1e-17 * max(abs(level_sum), 1e-300):
            tiny_run += 1
            if tiny_run >= 2:
                break
        else:
            tiny_run = 0
        j += 1
    total = h * level_sum
    floor = 50.0 * 2.220446049250313e-16 * h * level_abs

    previous = total
    estimate = math.inf
    for level in range(1, _TS_MAX_LEVEL + 1):
        h *= 0.5
        new_sum = 0.0
        tiny_run = 0
        j = 1
        while j * h <= _TS_T_CAP:
            pair = node(j * h)
            if pair is None or pair[2] == 0.0:
                break
            small, big, weight = pair
            contrib = weight * (sample(big, small) + sample(small, big))
            new_sum += contrib
            if j * h >= 2.0 and abs(contrib) <= 1e-17 * max(
                abs(new_sum), abs(previous) / h, 1e-300
            ):
                tiny_run += 1
                if tiny_run >= 2:
                    break
            else:
                tiny_run = 0
            j += 2  # odd multiples only; even ones were seen at coarser levels
        total = 0.5 * previous + h * new_sum
        estimate = abs(total - previous)
        previous = total
        if level >= 2 and estimate <= max(tol * abs(total), TINY):
            return QuadratureResult(total, max(estimate, 1.1e-16 * abs(total)), evaluations, True)
        if level >= 2 and estimate <= floor:
            raise ConvergenceError(
                f"tanh_sinh estimate {estimate:.3e} is below the rounding floor "
                f"{floor:.3e} but above tol * |value|",
                partial=QuadratureResult(total, estimate, evaluations, False),
            )

    partial = QuadratureResult(total, estimate, evaluations, False)
    raise ConvergenceError(
        f"tanh_sinh stalled at estimate {estimate:.3e} after level {_TS_MAX_LEVEL}",
        partial=partial,
    )


def _gk_rule(g, a: float, b: float, counter: list) -> tuple[float, float, bool]:
    """15-point Kronrod value, error estimate and floor flag on [a, b].

    The estimate follows QUADPACK dqk15: the raw Gauss/Kronrod difference is
    sharpened through (200 d / resasc)**1.5 only relative to resasc, the
    integral of |f - mean|, so agreement by accident on a large-scale
    integrand is not mistaken for convergence; a 50-ulp floor on the
    integral of |f| covers plain rounding.  The flag is True when that floor
    set the estimate, so that bisection cannot lower it.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = _check_sample(g(center, 1.0 - center), center)
    counter[0] += 1
    res_gauss = _WG[3] * fc
    res_kronrod = _WGK[7] * fc
    res_abs = _WGK[7] * abs(fc)
    samples = []
    for i in range(7):
        dx = half * _XGK[i]
        x1 = center - dx
        x2 = center + dx
        f1 = _check_sample(g(x1, 1.0 - x1), x1)
        f2 = _check_sample(g(x2, 1.0 - x2), x2)
        counter[0] += 2
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
    return res_kronrod * half, error, floored


def _resummed_partial(heap, counter) -> QuadratureResult:
    """Exact heap totals for a non-converged result."""
    value = math.fsum(item[4] for item in heap)
    error = math.fsum(item[5] for item in heap)
    return QuadratureResult(value, error, counter[0], False)


def _adaptive_gk(g, tol: float) -> QuadratureResult:
    """Globally adaptive bisection on (0, 1) with a worst-interval heap."""
    counter = [0]
    value, error, floored = _gk_rule(g, 0.0, 1.0, counter)
    heap = [(-error, 0, 0.0, 1.0, value, error, floored)]
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
                return QuadratureResult(total_value, total_error, counter[0], True)
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
        _, _, a, b, val, err, floored = item
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            heapq.heappush(heap, item)
            partial = _resummed_partial(heap, counter)
            raise ConvergenceError(
                f"adaptive_gk interval at [{a}, {b}] is too small to bisect",
                partial=partial,
            )
        v1, e1, f1 = _gk_rule(g, a, mid, counter)
        v2, e2, f2 = _gk_rule(g, mid, b, counter)
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1, f1))
        heapq.heappush(heap, (-e2, seq + 1, mid, b, v2, e2, f2))
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
    """Pick a rule from the power-law exponents of the endpoint weights.

    Any exponent below 1 means the integrand (or one of its low derivatives)
    is unbounded at an endpoint, which is tanh-sinh territory; otherwise the
    cheaper Gauss-Kronrod engine wins.
    """
    if any(e < 1.0 for e in endpoint_exponents):
        return "tanh_sinh"
    return "adaptive_gk"


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

    def integrand(x, omx):
        return (
            x ** (alpha - 1.0)
            * omx ** (2.0 * beta - 1.0)
            * (1.0 - x / 3.0) ** (2.0 * alpha - 1.0)
            * (1.0 - x / 4.0) ** (beta - 1.0)
        )

    method = select_method(alpha - 1.0, 2.0 * beta - 1.0)
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

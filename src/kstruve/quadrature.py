"""Definite integration on (0, 1) with three rules.

* ``adaptive_gk``: globally adaptive bisection driven by a Gauss-Kronrod
  7/15 pair (the classic QUADPACK dqk15 nodes).  Fast and sharp for
  integrands analytic on [0, 1].
* ``tanh_sinh``: the double-exponential transform x = (1 + tanh((pi/2)
  sinh t)) / 2, which crushes integrable endpoint singularities like
  x**p or (1-x)**q with p, q > -1.  Each level's nodes form one table,
  built on the level's first use and shared by every later integration.
  Each tail of a level ends on its own negligible samples, so an endpoint
  where f decays fast is sampled less than one where it decays slowly.
* Jacobi-weight Clenshaw-Curtis, for x**(p-1) (1-x)**(q-1) h(x) with h
  smooth on [0, 1] (``integrate``'s ``weight`` keyword): h is interpolated
  at 17, or once doubled 33, Chebyshev points and the weight is integrated
  exactly through its Chebyshev moments (QUADPACK's QAWS idea, with both
  endpoints in one weight).  When its estimate cannot meet the tolerance,
  the whole integrand goes to tanh-sinh.

Integrands take (x, 1 - x).  Every rule calls ``f(x, 1 - x)``, and
tanh-sinh and Clenshaw-Curtis compute the complement from their transforms,
accurate down to about 1e-308: near x = 1 the difference 1 - x loses all
precision in double arithmetic, which would ruin weights like
(1-x)**(2*beta-1) exactly where tanh-sinh places its most delicate nodes.
An integrand singular at x = 1 therefore reads its second argument.
Tanh-sinh may pass x = 1.0 with a positive complement, and Clenshaw-Curtis
samples the smooth factor at both endpoints.  A non-finite sample, or an
integrand that overflows, raises at once.
"""

from __future__ import annotations

import heapq
import math
from operator import add, mul, sub

from .errors import (
    ConvergenceError,
    DomainError,
    KStruveError,
    NonFiniteSampleError,
    OverflowRangeError,
)
from .fixedpoint import UNIT
from .gamma import _LOG_DBL_MAX, log_gamma
from .results import TINY, QuadratureResult

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


def _bad_sample(value: float, x: float) -> NonFiniteSampleError:
    return NonFiniteSampleError(f"integrand returned {value!r} at x = {x!r}")


def _overflow(exc: OverflowError, g, *nodes: tuple[float, float]) -> NonFiniteSampleError:
    """The error for an integrand that raised ``exc`` while a loop sampled ``nodes``.

    The sampling loops catch OverflowError once, around the whole loop, so
    the handler knows which (x, 1 - x) the failing sample was among, not
    which one it was: it samples them again in the loop's order and names
    the first that overflows again.  An OverflowError that is one of the
    package's own errors propagates unchanged.
    """
    if isinstance(exc, KStruveError):
        return exc
    for x, omx in nodes:
        try:
            g(x, omx)
        except OverflowError:
            break
    return NonFiniteSampleError(f"integrand overflowed at x = {x!r} (1 - x = {omx!r})")


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


def _tanh_sinh(g, tol: float) -> QuadratureResult:
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
    small = big = 0.5  # the node being sampled, for the overflow handler
    try:
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
                f_big = g(big, small)
                if not isfinite(f_big):
                    raise _bad_sample(f_big, big)
                f_small = g(small, big)
                if not isfinite(f_small):
                    raise _bad_sample(f_small, small)
                evaluations += 2
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
            # is past_two)
            if run_big < 2 <= run_small:
                big_live, run = True, run_big
            elif run_small < 2 <= run_big:
                big_live, run = False, run_small
            else:
                walk = ()
            for small, big, weight, _ in walk:
                x, omx = (big, small) if big_live else (small, big)
                f_x = g(x, omx)
                if not isfinite(f_x):
                    raise _bad_sample(f_x, x)
                evaluations += 1
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
                floor = 50.0 * (2.0 * UNIT) * total_abs
            if level >= 2 and estimate <= floor:
                raise ConvergenceError(
                    f"tanh_sinh estimate {estimate:.3e} is below the rounding floor "
                    f"{floor:.3e} but above tol * |value|",
                    partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
                )
            level_sum = level_abs = 0.0
    except OverflowError as exc:
        raise _overflow(exc, g, (big, small), (small, big)) from None

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
    x1 = x2 = center  # the node being sampled, for the overflow handler
    try:
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
    except OverflowError as exc:
        raise _overflow(exc, g, (x1, 1.0 - x1), (x2, 1.0 - x2)) from None
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
        floor = 50.0 * (2.0 * UNIT) * res_abs
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


# Clenshaw-Curtis sizes: n + 1 = 17 Chebyshev points, doubled at most once;
# the moment recurrence drifts by up to 3 k**2 ulps, so n stays at 32 or below
_CC_SIZES = (16, 32)
# each size's table, built on first use (a race only builds one twice)
_CC_TABLES: dict[int, tuple] = {}


def _cc_table(n: int) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """(nodes, even_rows, odd_rows, even_squares, odd_squares) for n + 1 points.

    Node j is (x, 1 - x) = (cos(theta)**2, sin(theta)**2), theta = j pi / 2n,
    both accurate to an ulp: the Chebyshev extrema of [0, 1], from x = 1 at
    j = 0 to x = 0 at j = n; the nodes of n are the even nodes of 2n.  Row k
    holds (2/n) s_k d_j cos(j k pi / n) for j = 0 .. n/2, with s_k = 1/2 at
    k = 0, n and d_j = 1/2 at j = 0, n/2: its dot product with the folded
    samples f_j + f_(n-j) (k even) or f_j - f_(n-j) (k odd) is the
    coefficient a_k of the interpolant sum_k a_k T_k(2x - 1).  The squares
    are k**2 for the same k.
    """
    half = n // 2
    head, tail = [], []
    for j in range(half + 1):
        theta = j * math.pi / (2 * n)
        c, s = math.cos(theta), math.sin(theta)
        head.append((c * c, s * s))
        tail.append((s * s, c * c))
    nodes = tuple(head + tail[-2::-1])
    rows = []
    for k in range(n + 1):
        scale = (1.0 if 0 < k < n else 0.5) * 2.0 / n
        row = [scale * math.cos((j * k % (2 * n)) * math.pi / n) for j in range(half + 1)]
        row[0] *= 0.5
        row[half] *= 0.5
        rows.append(tuple(row))
    squares = tuple(float(k * k) for k in range(n + 1))
    table = (nodes, tuple(rows[0::2]), tuple(rows[1::2]), squares[0::2], squares[1::2])
    _CC_TABLES[n] = table
    return table


def _jacobi_moments(p: float, q: float, n: int) -> list[float]:
    """m_k = int x**(p-1) (1-x)**(q-1) T_k(2x - 1) dx / B(p, q) for k = 0 .. n.

    The three-term recurrence of Piessens and Branders (Math. Comp. 1973),
    (p + q + k) m_(k+1) = 2 (p - q) m_k - (p + q - k) m_(k-1), in the
    weight's Beta parameters rather than its exponents p - 1, q - 1, which
    lose all of a tiny p or q to rounding.
    """
    s = p + q
    twice_gap = 2.0 * (p - q)
    before, last = 1.0, (p - q) / s
    moments = [before, last]
    for k in range(1, n):
        before, last = last, (twice_gap * last - (s - k) * before) / (s + k)
        moments.append(last)
    return moments


def _jacobi_cc(g, p: float, q: float, tol: float) -> tuple[QuadratureResult | None, int]:
    """(result, evaluations) for int_0^1 x**(p-1) (1-x)**(q-1) g(x, 1 - x) dx.

    Clenshaw-Curtis for the Jacobi weight: g is interpolated at the n + 1
    Chebyshev extrema of [0, 1], and the weight integrates the interpolant
    exactly, value = B(p, q) sum_k a_k m_k.  The estimate has two parts:

    * the coefficient tail B(p, q) (|c_(n-1)| + |c_n|), c_n = 2 a_n: it
      bounds 2 B(p, q) sum_(k > n) |c_k|, the most that the truncated and
      aliased terms can move the value, whenever the coefficients decay
      geometrically by a factor of sqrt(3) or more (Aurentz and Trefethen,
      ACM TOMS 2017, judge resolution from the same tail);
    * the rounding of the coefficients, the moments, sum a_k m_k and
      B(p, q), itself from three log-gammas.

    n starts at 16 and doubles once, to 32, reusing its samples.  The result
    is None when neither meets max(tol |value|, TINY), or when the rounding
    alone cannot, as when g spans many orders of magnitude and the sum
    cancels; when the error of B(p, q) alone exceeds tol, g is not sampled.
    ``abs_integral`` is B(p, q) sum |a_k m_k|, at least |value|.
    """
    s = p + q
    lg_p, lg_q, lg_s = log_gamma(p), log_gamma(q), log_gamma(s)
    log_beta = lg_p + lg_q - lg_s
    if log_beta > _LOG_DBL_MAX:
        raise OverflowRangeError(f"B({p!r}, {q!r}) exceeds the double range")
    beta = math.exp(log_beta)
    # relative error of beta, in units of UNIT: each math.lgamma is within
    # 5 (|value| + 6) (against mpmath for x in (1e-300, 1e12) the worst was
    # 3.2 (|value| + 6)), each of the two sums within the magnitudes, the
    # rounding of p + q moves lgamma(s) by s |digamma(s)| <= 1 + s |log s|,
    # and exp adds one
    magnitude = abs(lg_p) + abs(lg_q) + abs(lg_s)
    beta_err = UNIT * (7.0 * magnitude + 92.0 + s * abs(math.log(s)))
    if beta_err > tol:
        return None, 0  # no sample can bring the estimate under tol |value|
    isfinite = math.isfinite
    samples: list[float] = []
    for n in _CC_SIZES:
        nodes, even_rows, odd_rows, even_squares, odd_squares = _CC_TABLES.get(n) or _cc_table(n)
        fresh = nodes[1::2] if samples else nodes
        try:
            new = [g(x, omx) for x, omx in fresh]
        except OverflowError as exc:
            raise _overflow(exc, g, *fresh) from None
        if not all(map(isfinite, new)):
            value, x = next((v, node[0]) for v, node in zip(new, fresh) if not isfinite(v))
            raise _bad_sample(value, x)
        if samples:
            merged = samples + new
            merged[0::2] = samples
            merged[1::2] = new
            samples = merged
        else:
            samples = new
        half = n // 2
        head, tail = samples[: half + 1], samples[: half - 1 : -1]
        even = list(map(add, head, tail))
        odd = list(map(sub, head, tail))
        a_even = [sum(map(mul, row, even)) for row in even_rows]
        a_odd = [sum(map(mul, row, odd)) for row in odd_rows]
        moments = _jacobi_moments(p, q, n)
        terms = list(map(mul, a_even, moments[0::2])) + list(map(mul, a_odd, moments[1::2]))
        value_s = sum(terms)
        abs_s = sum(map(abs, terms))
        # each row sum is within n/2 + 4 ulps of sum_j |row_j| |folded_j|,
        # which is at most (2/n) sum |f_j|, and moves the value through m_k;
        # the last sum is within n + 2 ulps of abs_s; and the recurrence
        # drifts by up to 3 k**2 ulps of m_k (against the exact 3F2 form, for
        # p, q in (1e-8, 1e4) and k <= 32)
        row_bound = 2.0 * sum(map(abs, samples)) / n
        drift = sum(map(mul, even_squares, map(abs, a_even)))
        drift += sum(map(mul, odd_squares, map(abs, a_odd)))
        rounding = (half + 4) * row_bound * sum(map(abs, moments)) + (n + 2) * abs_s + 3.0 * drift
        value = beta * value_s
        target = max(tol * abs(value), TINY)
        round_err = beta * UNIT * rounding + abs(value) * beta_err
        estimate = beta * (abs(a_odd[-1]) + 2.0 * abs(a_even[-1])) + round_err
        if estimate <= target:
            return QuadratureResult(value, estimate, len(samples), True, beta * abs_s), len(samples)
        if round_err > target:
            break
    return None, len(samples)


def require_tol(tol: float) -> None:
    """Raise DomainError unless tol is a finite positive number."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive number, got {tol!r}")


def integrate(
    f, tol: float, method: str | None = None, weight: tuple[float, float] | None = None
) -> QuadratureResult:
    """Integrate f over (0, 1) to relative tolerance tol.

    ``f`` is called as ``f(x, 1 - x)``, with the complement accurate where
    x is near 1; see the module docstring.  ``method`` is ``"adaptive_gk"``
    (the default) or ``"tanh_sinh"``; the theorem integrands of
    :mod:`kstruve.identities` always run tanh-sinh.  Convergence means the
    internal error estimate satisfies
    ``estimate <= max(tol * |value|, 1e-280)``: relative to the
    value, with an absolute floor that only an integrand vanishing to
    underflow reaches.  An integral that is zero only to rounding, such as
    that of x - 1/2, therefore does not converge.  Failure to converge
    raises :class:`ConvergenceError` whose ``partial`` attribute holds the
    best :class:`QuadratureResult` so far (``converged=False``).

    For a caller-supplied integrand the estimate is a heuristic: no estimate
    built from finite samples survives an adversarial f.  For instance
    ``f = T_34(2x - 1)`` equals ``T_2(2x - 1)`` at the 17 Clenshaw-Curtis
    nodes, so with ``weight=(1.0, 1.0)`` the call returns -0.3333 with an
    estimate of 1.3e-14, where the integral is -1/1155.

    ``weight = (p, q)``, with p, q > 0, integrates x**(p-1) (1-x)**(q-1)
    f(x, 1 - x) instead, for f smooth on [0, 1], by the Jacobi-weight
    Clenshaw-Curtis rule; ``method`` must then be left out.  The weight is
    taken by its Beta parameters, not its exponents, so that a tiny p or q
    keeps its digits.  When that rule's estimate cannot meet tol, the same
    call hands the whole integrand to tanh-sinh, and the result counts the
    evaluations of both.
    """
    require_tol(tol)
    if weight is not None:
        if method is not None:
            raise DomainError(f"a weight is integrated by Clenshaw-Curtis, got method {method!r}")
        try:
            p, q = weight
        except (TypeError, ValueError):
            p = q = None  # not a pair: refused below
        if not (isinstance(p, (int, float)) and isinstance(q, (int, float))
                and 0.0 < p < math.inf and 0.0 < q < math.inf):
            raise DomainError(f"weight needs finite p, q > 0, got {weight!r}")
        result, evaluations = _jacobi_cc(f, p, q, tol)
        if result is not None:
            return result
        e_p, e_q = p - 1.0, q - 1.0

        def whole(x, omx):
            return x**e_p * omx**e_q * f(x, omx)

        try:
            result = _tanh_sinh(whole, tol)
        except ConvergenceError as exc:
            exc.partial = exc.partial._replace(evaluations=exc.partial.evaluations + evaluations)
            raise
        return result._replace(evaluations=result.evaluations + evaluations)
    if method is None:
        method = "adaptive_gk"
    if method not in _METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {_METHODS}")
    if method == "tanh_sinh":
        return _tanh_sinh(f, tol)
    return _adaptive_gk(f, tol)

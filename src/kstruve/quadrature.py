"""Definite integration on (0, 1) with three rules.

* ``adaptive_gk``: globally adaptive bisection driven by a Gauss-Kronrod
  7/15 pair (the classic QUADPACK dqk15 nodes).  Fast and sharp for
  integrands analytic on [0, 1].
* ``tanh_sinh``: the double-exponential transform x = (1 + tanh((pi/2)
  sinh t)) / 2, which crushes integrable endpoint singularities like
  x**p or (1-x)**q with p, q > -1.  Each level's nodes form one table,
  built on the level's first use and shared by every later integration.
  A level samples its two sides one after the other, x near 0 first.
  Levels 0 and 1 end each side on its own negligible samples, so an
  endpoint where f decays fast is sampled less than one where it decays
  slowly, and locate where each tail became negligible; every finer level
  samples a located side up to that point and no further, walks a side
  that was not located as levels 0 and 1 do, and its estimate bounds the
  tails that it left out.
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
from .results import QuadratureResult, require_tol

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


# each tanh-sinh level's nodes, and its two sides' tables, built on first use
# (a race only builds one twice)
_TS_LEVELS: list[tuple | None] = [None] * (_TS_MAX_LEVEL + 1)
_TS_SIDES: list[tuple | None] = [None] * (_TS_MAX_LEVEL + 1)


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


def _ts_sides(level: int) -> tuple[tuple, tuple]:
    """A level's table for the side near x = 0, and for the side near 1 mirrored.

    The mirror holds the same nodes as (1 - x, x, weight, past_two), so one
    loop samples either side as ``g(x, omx)``.
    """
    nodes = _TS_LEVELS[level] = _TS_LEVELS[level] or _ts_level(level)
    _TS_SIDES[level] = nodes, tuple((omx, x, weight, two) for x, omx, weight, two in nodes)
    return _TS_SIDES[level]


def _located(level_0: tuple[int, float], level_1: tuple[int, float]) -> tuple[int, float]:
    """One side's located (2 t, w |f|) from the (i, w |f|) that levels 0 and 1 found.

    Node i lies at t = i + 1 at level 0 and at t = i + 1/2 at level 1.  The
    located t is the smaller of the two, unless the other level sampled
    above the cut past it: the sample before the other level's run, at 1
    less than its t, was tested (level 1 tests from t = 5/2 on) and lies
    past the smaller t.
    """
    (i_0, s_0), (i_1, s_1) = level_0, level_1
    twice_0, twice_1 = 2 * i_0 + 2, 2 * i_1 + 1
    if twice_0 < twice_1:
        return (twice_1, s_1) if twice_0 < twice_1 - 2 and twice_1 >= 7 else (twice_0, s_0)
    return (twice_0, s_0) if twice_1 < twice_0 - 2 else (twice_1, s_1)


def _tanh_sinh(g, tol: float) -> QuadratureResult:
    """Double-exponential rule on (0, 1) with successive level refinement.

    Each level samples its two sides one after the other, each from t = h
    outwards in its own loop: first the abscissae x near 0, then 1 - x near
    1.  Each side is walked or sliced on its own, and the two end apart:

    * The cut.  At a ``past_two`` node a sample w |f| is negligible when it
      is at most eps max(|level sum|, |previous total| / h), where eps =
      max(1e-17, tol / 100) is the share of tol that the theorem
      integrands' series also get, and no larger than the sample before it
      on its side.  The level sum is the running one, so the side near 1 is
      cut against a sum that already holds the whole side near 0.
    * Levels 0 and 1 walk each side until two negligible samples in a row
      end it, so a fast-decaying tail stops while the slow one goes on.
      Each records the t of the first of those two samples and its w |f|.
      A side's located t is the smaller of the two levels' t (see
      ``_located`` for the exception), and s is its sample.
    * From level 2 on, a side that both levels ended is sliced: it samples
      exactly the nodes with t <= its located t, with no test per node.  A
      side that was not located is walked at every level, as levels 0 and
      1 walk it, whatever the other side does.
    * The estimate adds to |total - previous total| a bound on the nodes
      that the total leaves out.  Past a side's first negligible sample s,
      at t, w |f| is taken to fall, as the cut already assumes, at a
      log-rate of at least 2 per unit t.  (Where the double-exponential
      decay has set in, the rate at a negligible sample is about
      ln(1 / eps), 11 or more for tol <= 1e-3.)  Past t, w |f| then
      integrates to at most s / 2, and d times its sum over nodes spaced d
      past t is at most that integral.  Hence:

      - a walk skips the nodes past its two negligible samples, spaced d = 1
        at level 0 and 2 h later.  They move that level's total by at most
        h (s / 2) / d, a bound that halves at each later level;
      - a slice skips only nodes of its grid of step h past the located t.
        They move the total by at most s / 2 at every level, a term that
        enters the estimate from level 1 on.  Where the smaller t is the
        located one, the nodes that levels 0 and 1 skipped lie past it too,
        and are counted twice.

    The stopping test is estimate <= tol |total|, from level 2 on.  A level
    whose total moved by no more than the rounding floor, 50 ulps of level
    0's integral of |f|, ends the search.  The cut, the stopping test and
    the floor are all relative, with no absolute term.
    """
    isfinite = math.isfinite
    share = max(1e-17, tol * 0.01)
    x = omx = 0.5  # the node being sampled, for the overflow handler
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
        level_abs = mid = abs(level_sum)
        previous = previous_abs = floor = tail = beyond = 0.0
        # per side, x near 0 first: level 0's (i, w |f|) of the first of its two
        # negligible samples, then from level 1 on its located (2 t, w |f|)
        located = [None, None]
        for level in range(_TS_MAX_LEVEL + 1):
            h = 0.5**level
            # rounding is monotone, so share max(|level_sum|, |previous| / h)
            # is the larger of share |level_sum| and this, exactly
            cut_floor = share * (abs(previous) / h)
            tail *= 0.5
            for side, nodes in enumerate(_TS_SIDES[level] or _ts_sides(level)):
                if level >= 2 and located[side]:
                    # a side located at t takes this level's nodes t = h, 3 h,
                    # ... up to t, 2 t * 2**(level - 2) of them
                    nodes = nodes[: located[side][0] << (level - 2)]
                    for x, omx, weight, _ in nodes:
                        f_x = g(x, omx)
                        if not isfinite(f_x):
                            raise _bad_sample(f_x, x)
                        level_sum += weight * f_x
                        level_abs += weight * abs(f_x)
                    evaluations += len(nodes)
                    continue
                # a negligible sample must also be no larger than the one before
                # it on its side, t = 0's included: a side whose w |f| still rises
                # has not reached its tail, however small its samples are next to
                # a sum that its endpoint dominates
                run, last = 0, mid
                for i, (x, omx, weight, past_two) in enumerate(nodes):
                    f_x = g(x, omx)
                    if not isfinite(f_x):
                        raise _bad_sample(f_x, x)
                    evaluations += 1
                    level_sum += weight * f_x
                    s = weight * abs(f_x)
                    level_abs += s
                    if past_two:
                        cut = share * abs(level_sum)
                        if cut < cut_floor:
                            cut = cut_floor
                        if s > cut or s > last:
                            run = 0
                        elif run:
                            break
                        else:
                            run, first = 1, (i, s)
                    last = s
                else:
                    first = None  # the table ended before two negligible samples
                # the nodes past the first of two negligible samples, spaced d = 1
                # at level 0 and 2 h later, add at most h (s / 2) / d to the total
                if first:
                    tail += (0.5 if not level else 0.25) * first[1]
                if not level:
                    located[side] = first
                elif level == 1:
                    located[side] = first and located[side] and _located(located[side], first)
                    if located[side]:
                        beyond += 0.5 * located[side][1]
            total = 0.5 * previous + h * level_sum
            total_abs = 0.5 * previous_abs + h * level_abs
            change = abs(total - previous)
            estimate = change + tail + beyond
            previous, previous_abs = total, total_abs
            if level >= 2 and estimate <= tol * abs(total):
                return QuadratureResult(
                    total, max(estimate, 1.1e-16 * abs(total)), evaluations, True, total_abs
                )
            if not level:
                floor = 50.0 * (2.0 * UNIT) * total_abs
            if level >= 2 and change <= floor:
                raise ConvergenceError(
                    f"tanh_sinh estimate {estimate:.3e} is above tol * |value|, and the value "
                    f"moved between levels by no more than the rounding floor {floor:.3e}",
                    partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
                )
            level_sum = level_abs = 0.0
    except OverflowError as exc:
        raise _overflow(exc, g, (x, omx)) from None

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
    integral of |f|, at every scale of f, covers plain rounding.  The flag is
    True when that floor set the estimate, so that bisection cannot lower it.
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
    floor = 50.0 * (2.0 * UNIT) * res_abs
    floored = floor >= error
    return res_kronrod * half, max(error, floor), floored, res_abs


def _resummed_partial(heap, counter) -> QuadratureResult:
    """Exact heap totals for a non-converged result."""
    value = math.fsum(item[4] for item in heap)
    error = math.fsum(item[5] for item in heap)
    return QuadratureResult(value, error, counter[0], False, math.fsum(item[7] for item in heap))


def _adaptive_gk(g, tol: float) -> QuadratureResult:
    """Globally adaptive bisection on (0, 1) with a worst-interval heap."""
    import heapq  # here, not at the top: no identity runs this rule

    counter = [0]
    value, error, floored, mag = _gk_rule(g, 0.0, 1.0, counter)
    heap = [(-error, 0, 0.0, 1.0, value, error, floored, mag)]
    seq = 1
    rough = 0 if floored else 1  # live intervals above their rounding floor
    total_value = value
    total_error = error
    while True:
        if total_error <= tol * abs(total_value) or not rough:
            # the running accumulator can drift (or be annihilated outright
            # when one interval's estimate dwarfs the rest), so convergence
            # is only declared on an exact resummation of the live heap
            total_value = math.fsum(item[4] for item in heap)
            total_error = math.fsum(item[5] for item in heap)
            if total_error <= tol * abs(total_value):
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
    is None when neither estimate is at most tol |value|, or when the
    rounding alone is not, as when g spans many orders of magnitude and the
    sum cancels; when the error of B(p, q) alone exceeds tol, g is not sampled.
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
        target = tol * abs(value)
        round_err = beta * UNIT * rounding + abs(value) * beta_err
        estimate = beta * (abs(a_odd[-1]) + 2.0 * abs(a_even[-1])) + round_err
        if estimate <= target:
            return QuadratureResult(value, estimate, len(samples), True, beta * abs_s), len(samples)
        if round_err > target:
            break
    return None, len(samples)


def integrate(
    f, tol: float, method: str | None = None, weight: tuple[float, float] | None = None
) -> QuadratureResult:
    """Integrate f over (0, 1) to relative tolerance tol.

    ``f`` is called as ``f(x, 1 - x)``, with the complement accurate where
    x is near 1; see the module docstring.  ``method`` is ``"adaptive_gk"``
    (the default) or ``"tanh_sinh"``; the theorem integrands of
    :mod:`kstruve.identities` always run tanh-sinh.  Convergence means the
    internal error estimate satisfies ``estimate <= tol * |value|``.  No
    absolute term enters a stopping test, a tail cut or a rounding floor, so
    f and 2**-1000 f take the same nodes.  Tanh-sinh cuts a tail where a
    weighted sample falls to max(1e-17, tol / 100) of the level's sum,
    samples each side of a level in its own loop, x near 0 first, locates
    each tail at levels 0 and 1 and samples finer levels only up to it, and
    adds a bound on the tails that it did not sample to its estimate (see
    ``_tanh_sinh``).  An exactly zero integral
    converges on a zero estimate, but one that is zero only to rounding,
    such as that of x - 1/2, or one so small that its estimate cannot get
    under tol times it, does not.
    Failure to converge raises :class:`ConvergenceError` whose ``partial``
    attribute holds the best :class:`QuadratureResult` so far
    (``converged=False``).

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

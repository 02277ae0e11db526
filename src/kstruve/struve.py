"""Generalized k-Struve series and the classical Struve functions.

The central object is

    S[k, nu, c](x) = sum_{r>=0} (-c)**r (x/2)**(2r + nu/k + 1)
                     / (Gamma_k(r k + nu + 3k/2) * Gamma(r + 3/2)),

an entire function of x for every k > 0, nu > -3k/2 and real c.  Setting
c = k = 1 recovers the Struve function H_nu, c = -1, k = 1 the modified
Struve function L_nu.  Terms are generated by the exact ratio recurrence

    t_{r+1} / t_r = -c (x/2)**2 / (k (r + nu/k + 3/2) (r + 3/2)),

whose magnitude decreases monotonically in r, so a geometric majorant gives
a rigorous truncation bound.

The series is summed by one mechanism, :func:`k_struve_poly`: for x in
(0, X], the leading term times a polynomial in (x/2)**2 whose degree makes
the tail at X small, built once.  Each value carries a bound (tail, Horner
and coefficient rounding, leading term), at most tol times the value.  One
evaluator computes the leading term and tries up to three forms of the
polynomial, in this order, until a value's bound fits:

- double: Horner's rule on double coefficients, on all of (0, X] below the
  fixed-point regime (c <= 0, or X sqrt(c/k) < 8) and on (0, 8 sqrt(k/c)]
  in it;
- Taylor at X: where tol is not below the floor of the integer bounds,
  next to X, where sigma = 1 - (x/X)**2 is small, the integer terms u_m of
  one fixed-point pass at X (:func:`kstruve.fixedpoint.fixed_terms`),
  shifted exactly to x = X and evaluated in doubles in -sigma;
- integer: the same u_m, evaluated by integer Horner's rule in s = (x/X)**2.

The integer terms are built only where a node needs them.  Each node
computes its own bound.  For the double and the Taylor form one constant
threshold, from the numbers the polynomial already has, names the values
whose per-node test is sure to pass: a caller that evaluates many nodes
repeats the evaluator's operations there without calling it.

:func:`k_struve` is one node of that evaluator: it evaluates at x the
polynomial built for X = |x|.  There, and only there, a leading term outside
(1e-300, 1e300) is taken from its logarithm; at other nodes such a value is
left to the caller, which then calls :func:`k_struve`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import accumulate

from .errors import ConvergenceError, DomainError
from .fixedpoint import LOG2_E, SUBNORMAL_ULP, UNIT, LinearRatio, fixed_terms
from .gamma import _LOG_DBL_MAX, _MIN_NORMAL, _lgamma, log_k_gamma
from .results import EvaluationResult, require_tol

_LGAMMA_3_2 = math.lgamma(1.5)
# from x sqrt(c/k) = 8 (ratio_scale = -16) on, with c > 0, the terms outgrow
# the sum by more than about 150: double Horner would fail the relative rule
# at the usual tolerances, so it stops at 8 sqrt(k/c) and the integer terms serve beyond
_FIXED_RATIO_SCALE = -16.0
# the polynomials' degree cap
_MAX_TERMS = 500
# s = (x/xmax)**2 <= r*r * (1 + 8 ulps) for the rounded quotient r = x / xmax
_S_PAD = 1.0 + 8.0 * UNIT
# nodes with sigma = 1 - (x/xmax)**2 up to this evaluate the integer terms'
# Taylor shift to s = 1 in doubles (see _taylor_at_one); the shifted terms'
# rounding grows with it, and at xmax sqrt(c/k) = 20-57 bounds start to fail
# from about 0.5 on
_SIGMA_MAX = 0.2


def _gap(f: float, num: int, den: int) -> float:
    """num/den - f for a double f, without rounding before the subtraction."""
    fn, fd = f.as_integer_ratio()
    return (num * fd - fn * den) / (fd * den)


class _SeriesConstants:
    """Per-parameter constants of the k-Struve evaluator, built once.

    The exact term ratio at x is -c x**2 / (4k (r + bn/bd)(r + 3/2)), with
    base = nu/k + 3/2 = bn/bd read exactly from the doubles nu and k.
    ``factors`` holds its two downstairs factors, (1, bn, bd) and (1, 3, 2),
    as :class:`kstruve.fixedpoint.LinearRatio` takes them, and ``const``
    the constant -c / (4k) as an integer pair, to be multiplied by x**2.
    ``power_delta`` is the exact leading power nu/k + 1 minus its double,
    and ``scale_err`` bounds the absolute error of ``log_scale``.
    """

    def __init__(self, p: "StruveParams"):
        nn, nd = p.nu.as_integer_ratio()
        kn, kd = p.k.as_integer_ratio()
        cn, cd = p.c.as_integer_ratio()
        bn, bd = 2 * nn * kd + 3 * nd * kn, 2 * nd * kn
        g = math.gcd(bn, bd)
        bn, bd = bn // g, bd // g
        self.base = p.nu / p.k + 1.5
        # ulps a term of the double polynomial gains per index: 3 from c/k and
        # v, 4 from the ratio and the product, and the error of the double base,
        # a relative error of at most |base error| / base in each r + base
        self.step_ulps = 7.0 + abs(_gap(self.base, bn, bd)) / self.base / UNIT
        self.power_delta = _gap(p.power, 2 * bn - bd, 2 * bd)
        self.factors = ((1, bn, bd), (1, 3, 2))
        self.const = (-cn * kd, 4 * cd * kn)
        # log_scale = -((t - 1) log k + lgamma(t)) - lgamma(3/2), t = (nu + 1.5k)/k:
        # the error of t moves lgamma by at most |psi(t)| <= 1/t + log(t + 1) + 1,
        # each libm call is within 2 ulps and each operation within one
        t = (p.nu + 1.5 * p.k) / p.k
        t_err = abs(_gap(t, bn, bd))
        log_k = math.log(p.k)
        lg = _lgamma(t)
        prod = (t - 1.0) * log_k
        psi = 1.0 / t + math.log(t + 1.0) + 1.0
        self.scale_err = (
            abs(log_k) * (t_err + UNIT * abs(t - 1.0))
            + psi * t_err
            + UNIT * (3.0 * abs(prod) + 4.0 * (abs(lg) + 1.0) + abs(prod + lg))
            + UNIT * (4.0 * abs(_LGAMMA_3_2) + abs(p.log_scale))
        )
        # 1 / (Gamma_k(nu + 3k/2) Gamma(3/2)) as a double, when that is normal,
        # and the error of (x/2)**power * scale0: pow, exp and the product, and
        # the power correction 1 + t and its product
        self.scale0 = math.exp(p.log_scale) if abs(p.log_scale) < 690.0 else 0.0
        self.lead_err = self.scale_err + 7.0 * UNIT
        self.power = p.power


class StruveParams(namedtuple("StruveParams", "nu c k")):
    """Parameter triple (nu, c, k) of the generalized k-Struve series.

    ``k`` must be positive and ``nu > -3k/2`` so that every k-gamma argument
    nu + (r + 3/2) k stays off the poles.  Instances keep a ``__dict__`` for
    their cached constants.
    """

    def __new__(cls, nu: float, c: float, k: float = 1.0):
        self = super().__new__(cls, nu, c, k)
        if not (math.isfinite(nu) and math.isfinite(c) and math.isfinite(k)):
            raise DomainError(f"parameters must be finite, got {self!r}")
        if k <= 0.0:
            raise DomainError(f"k must be positive, got k={k}")
        if nu <= -1.5 * k:
            raise DomainError(f"need nu > -3k/2 for pole-free denominators, got nu={nu}, k={k}")
        if not (math.isfinite(nu / k) and math.isfinite(nu + 1.5 * k)):
            raise DomainError(f"nu/k and nu + 3k/2 must be finite doubles, got nu={nu}, k={k}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here: run the checks of __new__ on it too
        return cls(*iterable)

    @property
    def power(self) -> float:
        """Leading exponent nu/k + 1 of the series."""
        return self.nu / self.k + 1.0

    @cached_property
    def log_scale(self) -> float:
        """log of 1 / (Gamma_k(nu + 3k/2) Gamma(3/2)), the r = 0 coefficient."""
        return -log_k_gamma(self.nu + 1.5 * self.k, self.k) - _LGAMMA_3_2

    @cached_property
    def _series(self) -> _SeriesConstants:
        return _SeriesConstants(self)

    @property
    def lead_error(self) -> float:
        """Relative error bound of the computed r = 0 coefficient.

        :func:`k_struve` cannot meet a relative tolerance much below it.
        """
        return self._series.lead_err


def _lead(params: StruveParams, x: float) -> tuple[float, float, float]:
    """The r = 0 term at x > 0 as (lead, relative error, scale), from its logarithm.

    :func:`k_struve_poly`'s evaluator computes the term inline as
    (x/2)**power * scale0 and calls this only where that leaves
    (1e-300, 1e300), or x/2 is below the normal range: there 0.5 * x may
    have rounded, and a negative power would carry that error or divide by
    a half rounded to 0.  The term is lead * scale.  Below the normal range
    exp would round it to a subnormal spacing, which no relative error
    covers, so there lead is kept near e**-700 and scale is a power of two
    (0 below 2**-1074), applied once to the finished value.  Raises
    ConvergenceError when the term overflows.
    """
    consts = params._series
    lam = consts.power
    half = 0.5 * x
    # below the normal range the halving may round; take the log before scaling then
    log_half = math.log(half) if half >= _MIN_NORMAL else math.log(x) - math.log(2.0)
    log_t0 = (lam * log_half + consts.power_delta * log_half) + params.log_scale
    if log_t0 > _LOG_DBL_MAX:
        raise ConvergenceError(
            f"leading term overflows at x={x}; argument too large for the series"
        )
    shift = min(math.floor(max(log_t0 + 700.0, -800.0) * LOG2_E), 0)
    # the log and products, the two sums, exp, and shift log 2 and its difference
    lead_err = (
        UNIT * (4.0 * abs(lam * log_half) + 3.0 * abs(consts.power_delta * log_half))
        + UNIT * (abs(log_t0) + 2.0 - shift)
        + consts.scale_err
    )
    return math.exp(log_t0 - shift * math.log(2.0)), lead_err, 2.0**shift


def k_struve(params: StruveParams, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Evaluate the k-Struve series at real x with a certified error bound.

    Negative x is admitted only when the leading exponent nu/k + 1 is an
    integer, in which case S(-x) = (-1)**(nu/k + 1) S(x); otherwise the
    fractional power has no real value and DomainError is raised.

    Every x != 0 is the one node of its own polynomial,
    ``k_struve_poly(params, |x|, tol)(x)``, and ``terms_used`` is that
    polynomial's degree plus one.  The ``error_bound`` covers the truncated
    tail and every rounding, and is at most ``tol * |value|`` before
    (terms + 2) * 2**-1074 is added for results below the normal range.  Raises
    ConvergenceError when tol is below the accuracy of the leading term that
    the polynomial took at x, when the leading term overflows, and when no
    polynomial of degree up to 500 meets tol.
    """
    require_tol(tol)
    if not math.isfinite(x):
        raise DomainError(f"need finite x, got x={x!r}")
    consts = params._series
    lam = consts.power

    if x < 0.0 and lam != math.floor(lam):
        raise DomainError(f"negative argument x={x} needs integer nu/k + 1, got {lam}")
    if x == 0.0:
        if lam > 0.0:
            return EvaluationResult(0.0, 0.0, 0)
        if lam == 0.0:
            # only the r = 0 term survives: (x/2)**0 = 1
            value = math.exp(params.log_scale)
            bound = value * (consts.scale_err + 2.0 * UNIT) + 3.0 * SUBNORMAL_ULP
            return EvaluationResult(value, bound, 1)
        raise DomainError(f"x = 0 diverges for nu/k + 1 = {lam} < 0")

    evaluate = k_struve_poly(params, abs(x), tol)
    out = evaluate and evaluate(x)
    if out:
        return EvaluationResult(*out, evaluate.degree + 1)
    # the error of the leading term the evaluator took at x
    lead_err = evaluate.lead_err if evaluate else consts.lead_err
    if lead_err + 3.0 * UNIT > 0.5 * tol:
        raise ConvergenceError(
            f"k-Struve series at x={x}: tol={tol} is below the accuracy of the leading term "
            f"(relative error {lead_err:.2e})"
        )
    raise ConvergenceError(
        f"k-Struve series at x={x}: needed more than {_MAX_TERMS} terms, or more bits than "
        f"the double and fixed-point sums hold, for tol={tol}"
    )


def k_struve_poly(params: StruveParams, xmax: float, tol: float):
    """The k-Struve series on (0, xmax] as its leading term times a polynomial, built once.

    With v = (x/2)**2, S(x) = lead(x) g(v), where lead(x) is the r = 0 term
    and g(v) = sum_r a_r v**r has a_0 = 1 and a_{r+1} = a_r (-c/k) /
    ((r + nu/k + 3/2)(r + 3/2)), the series' exact term ratio.

    Returns ``evaluate(x)``, which gives ``(value, error_bound)`` with
    ``error_bound <= tol * |value|`` before (degree + 3) * 2**-1074 is
    added for values below the normal range, or None when |x| is not in
    (0, xmax] or when that bound fails.  A negative x takes the value at -x
    times (-1)**(nu/k + 1), and None when that power is fractional.
    ``evaluate.degree`` is the largest degree of the forms built so far,
    and ``evaluate.lead_err`` the relative error of its leading term at
    xmax (the inline term's, until it takes that term from its logarithm).
    k_struve_poly itself returns None when no degree up to 500 serves.

    ``evaluate`` computes the leading term once, inline as (x/2)**power *
    scale0 with the exact-power correction.  Where that leaves
    (1e-300, 1e300), or x/2 is below the normal range, it returns None,
    except at x = xmax, the node :func:`k_struve` asks for: there it takes
    the term from its logarithm (:func:`_lead`).  Then it tries up to three
    forms of g, in this order, until one value's own bound fits tol:

    - double: Horner's rule on double coefficients on (0, W]
      (:func:`_double_horner`), with W = xmax below the fixed-point regime
      (c <= 0, or xmax sqrt(c/k) < 8) and W = 8 sqrt(k/c) in it;
    - unless tol is below the floor of their bounds, the integer terms of
      one fixed-point pass at xmax (:func:`_integer_horner`): first, where
      sigma = 1 - (x/xmax)**2 <= ``_SIGMA_MAX``, their exact Taylor shift
      to x = xmax in doubles, then integer Horner's rule.  They are built
      up front where W < xmax, since every node above W needs them, and
      otherwise at the first node whose double value fails its bound.

    ``evaluate.inline`` is the tuple (W, g_min, t_min, power, scale0,
    power_delta, vscale, pairs, sign, shifted, sigma_max), with which a
    caller repeats, operation for operation, what ``evaluate`` does at a
    node whose leading term is in range (:func:`kstruve.identities._integrand`
    does): the double polynomial at x <= W, the Taylor shift at W < x <=
    xmax with sigma <= sigma_max (shifted = () and sigma_max = -1 for none).
    A value with g_min |lead| <= |value| < inf (t_min on the Taylor shift)
    passes the evaluator's own test in that form (:func:`_threshold`).
    """
    if not 0.0 < xmax < math.inf:
        return None
    half_max = 0.5 * xmax
    fixed = -params.c * half_max * half_max / params.k <= _FIXED_RATIO_SCALE
    wmax = min(xmax, 8.0 * math.sqrt(params.k / params.c)) if fixed else xmax
    double = _double_horner(params, wmax, tol)
    if double is None:
        return None
    pairs, sign, vscale, tail, span, rounding, mags = double
    consts = params._series
    # the integer terms serve only where tol is not below the floor of their
    # bounds: both integer bounds exceed (lead_err + 3u) |value|, and the
    # leading term's lead_err is at least scale_err + 7u inline and
    # scale_err + 2u from its logarithm (:func:`_lead`), so below
    # scale_err + 5u (less u for the roundings of the bound) no node can take them
    reach = consts.scale_err + 4.0 * UNIT <= tol
    integer = _integer_horner(params, xmax, tol) if reach and wmax < xmax else None
    pending = reach and wmax == xmax
    power = consts.power
    # S(-x) = (-1)**power S(x); 0 marks a fractional power, which has no real value
    flip = (-1.0) ** power if power.is_integer() else 0.0
    scale0 = consts.scale0
    delta = consts.power_delta
    lead_err0 = consts.lead_err
    degree = max(span // 2, len(integer[4]) if integer else 0)
    # below the normal range each step may be off by a subnormal spacing
    subnormal = (degree + 3) * SUBNORMAL_ULP
    xmax_sq = xmax * xmax
    log = math.log
    inf = math.inf

    # L_max, the inline leading term's error at every node x/2 in [m, xmax/2], m the
    # smallest normal: lead_err + t**2 + 3u t at the largest |t| = |power_delta log(x/2)|
    t_max = abs(delta) * max(-log(_MIN_NORMAL), abs(log(max(half_max, _MIN_NORMAL))))
    lead_err_max = lead_err0 + (t_max * t_max + 3.0 * UNIT * t_max)
    if params.c > 0.0:
        # the double form's numerator at W: its tail and the rounding of M(W)
        g_min = _threshold(tail + rounding * mags, tol, lead_err_max + UNIT)
    else:
        # every a_r >= 0: the computed g is the computed M, so eps M joins L + u
        g_min = _threshold(tail, tol, lead_err_max + UNIT + rounding * _SLACK)
    shifted, sigma_max, t_min = (), -1.0, inf
    if integer and integer[13] > 0.0:
        (_, _, bits, _, _, pass_tail, tail_power, _, floors, shifted, order, rest_units,
         taylor_rounding, sigma_max) = integer
        # the Taylor shift's numerator at s = 1 and sigma = sigma_max: its units
        # (floors, pass tail, remainder) and its rounding
        units = floors + pass_tail * _S_PAD**tail_power + rest_units * (sigma_max * _S_PAD) ** order
        top = math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT) + taylor_rounding
        t_min = _threshold(top, tol, lead_err_max + 3.0 * UNIT)

    def evaluate(x: float) -> tuple[float, float] | None:
        nonlocal integer, pending, degree, subnormal
        half = 0.5 * x
        if half >= _MIN_NORMAL:  # not for x <= 0 and nan
            try:
                lead = half**power * scale0
            except OverflowError:
                lead = inf
        else:
            lead = 0.0
        if 1e-300 < lead < 1e300:
            lead_err, scale = lead_err0, 1.0
            if delta:
                # the exact power: (x/2)**delta = exp(t), within t**2 of 1 + t for
                # |t| < 1/2; delta is a few ulps of nu/k, so t is of order 1e-13
                t = delta * log(half)
                lead *= 1.0 + t
                lead_err += t * t + 3.0 * UNIT * abs(t)
        elif x == xmax:
            lead, lead_err, scale = _lead(params, x)
            evaluate.lead_err = lead_err
        elif x < 0.0 and flip:
            out = evaluate(-x)
            return out and (flip * out[0], out[1])
        else:
            return None
        if x <= wmax:
            v = half * half * vscale
            s = v * v
            even = odd = 0.0
            for a_even, a_odd in pairs:
                even = even * s + a_even
                odd = odd * s + a_odd
            odd *= v
            value = lead * (even + sign * odd)
            size = abs(value)
            bound = scale * (
                lead * (tail * (x / wmax) ** span + rounding * (even + odd))
                + (lead_err + UNIT) * size
            )
            if bound <= tol * size * scale < inf:
                return value * scale, bound + subnormal
        if x > xmax:
            return None
        if pending:
            pending = False
            integer = _integer_horner(params, xmax, tol)
            if integer:
                evaluate.degree = degree = max(degree, len(integer[4]))
                subnormal = (degree + 3) * SUBNORMAL_ULP
        if integer is None:
            return None
        (inv, guard, bits, top, rest, pass_tail, tail_power, units_fixed, floors,
         shifted, order, rest_units, taylor_rounding, sigma_max) = integer
        r = x / xmax
        pass_units = pass_tail * (r * r * _S_PAD) ** tail_power
        sigma = (xmax - x) * (xmax + x) / xmax_sq
        if sigma <= sigma_max:
            neg = -sigma
            acc = 0.0
            for b in shifted:
                acc = acc * neg + b
            value = lead * acc
            size = abs(value)
            units = floors + pass_units + rest_units * (sigma * _S_PAD) ** order
            bound = scale * (
                lead * (math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT) + taylor_rounding)
                + size * (lead_err + 3.0 * UNIT)
            )
            if bound <= tol * size * scale < inf:
                return value * scale, bound + subnormal
        n, d = x.as_integer_ratio()
        s = n * n * inv >> (guard + 2 * d.bit_length() - 2)
        acc = top
        for u in rest:
            acc = (acc * s >> bits) + u
        value = lead * math.ldexp(float(acc), -bits)
        size = abs(value)
        bound = scale * (
            lead * math.ldexp(units_fixed + pass_units, -bits) * (1.0 + 8.0 * UNIT)
            + size * (lead_err + 3.0 * UNIT)
        )
        if bound <= tol * size * scale < inf:
            return value * scale, bound + subnormal
        return None

    evaluate.degree = degree
    evaluate.lead_err = lead_err0
    evaluate.inline = (wmax, g_min, t_min, power, scale0, delta, vscale, pairs, sign, shifted,
                       sigma_max)
    return evaluate


# each inline threshold's factor over its numerator; see _threshold
_SLACK = 1.0 + 2.0**-20


def _threshold(numerator: float, tol: float, lead_err: float) -> float:
    """A form's inline threshold: g_min (or t_min), with g_min |lead| <= |value| passing its test.

    ``numerator`` N is at least the form's per-node bound over |lead|, less
    its leading-term part, at every node of its range: it is computed in
    the evaluator's own operations at the range's end, and each of them, a
    sum, product or pow of nonnegative doubles, is monotone.  ``lead_err``
    E is at least every node's rounded L(x) + u (double) or L(x) + 3u
    (Taylor), L(x) <= L_max.  Returns N' _SLACK / room, N' = max(N, 2u) and
    room = tol / (1 + 64u) - E, or inf where tol > 1 or room <= 0.

    Proof that a node with fl(g_min lead) <= size = |value| < inf and lead
    in (1e-300, 1e300) (scale = 1) passes B = fl(fl(lead A) + fl(E_x size))
    <= fl(tol size) < inf, A <= N' and E_x <= E.  Each operation is within
    u relative, and within eta = 2**-1075 absolute below the normal range.
    g_min >= N' S (1 - u)**2 / room, so lead N' <= (size + eta) room / (S
    (1 - u)**3).  With S = _SLACK >= (1 + s)(1 + u)**2 / (1 - u)**3, s =
    2**-21, and room <= (tol' - E)(1 + u), tol' the rounded tol / (1 + 64u):

        B <= (1 + u) ((size + eta) room / (1 + s) + E size (1 + u) + 2 eta)
          <= size tol (1 + u)**3 / (1 + 64u) - size room s / (1 + s) + 3.01 eta.

    fl(tol size) >= tol size (1 - u) - eta and (1 + u)**3 / (1 + 64u) <
    1 - 58u, so B <= fl(tol size) once size room s / (1 + s) >= 4.01 eta;
    and size room >= N' lead (1 - 3u) - eta > 2**-1049 (1 - 2**-25), since
    N' >= 2**-52 and lead > 2**-997, which gives 2**-1070 > 4.01 eta.
    tol <= 1 keeps fl(tol size) <= size < inf.

    For c <= 0 the double form passes N = T and E = L_max + u + eps S:
    every coefficient is nonnegative, so its computed g is the double m >=
    1 whose eps m the bound adds, and lead eps m <= eps (size + eta)(1 +
    2u).  With A = T q**(2R) + eps m, the eps S in E covers that part,
    with the roundings of E at most 3u tol size, within the 58u above.
    """
    room = tol / (1.0 + 64.0 * UNIT) - lead_err
    if not (tol <= 1.0 and room > 0.0):
        return math.inf
    return max(numerator, 2.0 * UNIT) * _SLACK / room


def _double_horner(params: StruveParams, xmax: float, tol: float):
    """g in doubles on (0, xmax] for :func:`k_struve_poly`: its constants, or None.

    The degree R is the first index whose geometric tail at V = (xmax/2)**2
    is at most tol / 8.  g is evaluated by Horner's rule in s = v**2 on the
    even and the odd coefficients.  Each half has coefficients |a_r| of one
    sign, so the same pass gives M = sum |a_r| v**r, and Higham's bound
    (Accuracy and Stability of Numerical Algorithms, sec. 5.1) for the two
    halves, the product and the sum is (R + 2) ulps of it.  A node's bound,
    relative to the leading term, adds the tail T (x/xmax)**(2R), with
    T = |a_R| V**R rho / (1 - rho) and rho the ratio at V; eps M, where
    eps = (step_ulps R + R + 2) ulps also counts ``step_ulps`` per index for
    the coefficients and the argument; and the leading term's error L(x)
    and the final product, (L(x) + u) |value|, with u the unit roundoff.

    M(W), W = xmax, is M as a node at W computes it.  Every step of the
    loop, a product or a sum of nonnegative doubles, is monotone in v, and
    v in x, so every node x <= W computes an M of at most M(W); and
    (x/xmax)**(2R) <= 1, so T + eps M(W) bounds every node's bound over
    its leading term, less (L(x) + u) |value|.

    Scaling.  The coefficients are stored as |a_r| 2**(e r), with 2**e <= V
    a power of two, and evaluated at v 2**-e.  Every coefficient, partial
    Horner sum and product is then the unscaled one times a power of two,
    so the rounding, and every value whose coefficients are normal, is the
    same; but |a_r| alone underflows for c < 0 once x sqrt(|c|/k) exceeds
    about 120, while |a_r| 2**(e r) <= |a_r| V**r stays in range.  Returns
    (pairs, sign, 2**-e, T, 2R, eps, M(W)), with pairs the scaled (even,
    odd) coefficients from the top and sign that of c's odd terms.
    """
    consts = params._series
    base = consts.base
    ck = abs(params.c) / params.k
    half_max = 0.5 * xmax
    vmax = half_max * half_max
    # 2**e <= V, or 2**-1022 below it: the coefficients are stored scaled by 2**(e r).
    # A step that overflows has c V / k overflow too, so rho = inf and no degree serves
    e = max(math.frexp(vmax)[1] - 1, -1022)
    step = ck * 2.0**e
    coefs = [1.0]  # |a_r| 2**(e r)
    mag = 1.0  # |a_r| V**r
    for r in range(_MAX_TERMS):
        rho = ck * vmax / ((r + base) * (r + 1.5))
        if rho < 1.0 and mag * rho / (1.0 - rho) <= 0.125 * tol:
            break
        coefs.append(coefs[-1] * (step / ((r + base) * (r + 1.5))))
        mag *= rho
    else:
        return None
    degree = len(coefs) - 1
    tail = mag * rho / (1.0 - rho)  # at V
    evens = coefs[::2]
    odds = coefs[1::2]
    if len(odds) < len(evens):
        odds.append(0.0)
    pairs = tuple(zip(reversed(evens), reversed(odds)))
    sign = -1.0 if params.c > 0.0 else 1.0
    rounding = UNIT * (consts.step_ulps * degree + degree + 2.0)
    vscale = 2.0**-e
    v = vmax * vscale
    s = v * v
    even = odd = 0.0
    for a_even, a_odd in pairs:
        even = even * s + a_even
        odd = odd * s + a_odd
    # the tail scales by (x/xmax)**(2R), not (v/V)**R: V is 0.0 for xmax below about 3e-162
    return pairs, sign, vscale, tail, 2 * degree, rounding, even + odd * v


def _integer_horner(params: StruveParams, xmax: float, tol: float):
    """g on (0, xmax] from the integer terms of one fixed-point pass: its constants, or None.

    :func:`kstruve.fixedpoint.fixed_terms` on the series' exact term ratio
    at x = xmax (the :class:`_SeriesConstants` factors, with the constant
    -c xmax**2 / (4k)) and tol / 8 gives u_m, within e_m of 2**bits a_m V**m,
    so that 2**bits g(v) = sum_m u_m s**m with s = (x / xmax)**2 <= 1.  Each node
    reads s exactly from the doubles x and xmax as S = floor(s 2**bits), to
    within 1.25 units, by one multiply with a reciprocal and a shift, and
    Horner's rule runs on integers: acc = (acc * S >> bits) + u_m, with no
    division.  In units of 2**-bits, the bound adds the coefficient floors
    (sum e_m s**m <= sum e_m, the pass's floor bound), one unit per Horner
    floor, the rounding of s (1.25 * 2**-bits * sum m (|u_m| + e_m)),
    and the pass's tail at xmax times s**(R + 1); then the leading term's
    error, the conversion of acc and the product, as the Fox-Wright
    fixed-point sum does, and a subnormal ulp.  The largest term comes near
    m = peak = (xmax/2) sqrt(|c|/k), and the pass provisions one cond bit per
    bit of e**(2 peak), which the terms outgrow their sum by when they
    cancel; where all of them are positive (c < 0) that over-provisions.

    Next to xmax, where sigma = 1 - s <= ``_SIGMA_MAX``, a node first tries
    the same polynomial shifted to s = 1 (:func:`_taylor_at_one`) in doubles:
    sum_n b_n (-sigma)**n, b_n = B_n 2**-bits.  sigma = (xmax - x)(xmax + x)
    / xmax**2, with xmax - x exact for x >= xmax / 2 (Sterbenz), is within 4
    ulps.  The shift is exact, so the floors and the pass's tail carry over;
    the bound adds the shift's remainder sigma**(N + 1) sum |q_j| and
    (6N + 8) ulps of sum |b_n| sigma_max**n for Horner's rule (2N; Higham,
    sec. 5.1), the rounding of sigma (4N) and the conversion of each B_n.
    A value whose bound fails runs integer Horner instead.

    Returns (inv, guard, bits, u_R, (u_{R-1}, ..., u_0), the pass's tail,
    R + 1, the fixed units, the floors, the shifted polynomial's four
    constants, sigma_max), which :func:`k_struve_poly`'s evaluator unpacks
    on this path only; sigma_max is -1 when there is no shifted polynomial.
    """
    consts = params._series
    peak = 0.5 * xmax * math.sqrt(abs(params.c) / params.k)
    if peak >= _MAX_TERMS or xmax * xmax < _MIN_NORMAL:
        # the largest term would come after the pass's last; the nodes' sigma divides by xmax**2
        return None
    xn, xd = xmax.as_integer_ratio()
    cn, cd = consts.const
    table = LinearRatio((), consts.factors, (cn * xn * xn, cd * xd * xd), 0)
    try:
        terms, bits, tail, floors = fixed_terms(
            # terms up to about e**(2 peak) times their sum, as when c > 0 cancels
            table, math.ceil(2.0 * LOG2_E * peak) + 8, 0.125 * tol, _MAX_TERMS
        )
    except ConvergenceError:
        return None
    magnitude = sum(map(abs, terms))
    if magnitude.bit_length() > 1000:
        return None  # |acc| and the bound must stay in the double range
    degree = len(terms) - 1
    # sum m (|u_m| + e_m) <= R (sum |u_m| + R floors), times 1.25 units of s
    s_units = 1.25 * degree * math.ldexp(float(magnitude) + floors * degree, -bits)
    units_fixed = floors + (degree + 1) + s_units
    # S = floor(xn'**2 inv / 2**(guard + 2 log2 xd')) for x = xn' / xd', where
    # inv = floor(xd**2 2**(bits + guard) / xn**2); dropping inv's fraction
    # costs below x**2 / 2**guard <= 1/4 unit
    guard = max(2 * math.frexp(xmax)[1] + 2, 0)
    inv = (xd * xd << (bits + guard)) // (xn * xn)
    taylor = _taylor_at_one(terms, bits, tol) or ((), 0, 0.0, 0.0)
    return (
        inv, guard, bits, terms[-1], tuple(reversed(terms[:-1])), tail, degree + 1, units_fixed,
        floors, *taylor, _SIGMA_MAX if taylor[0] else -1.0,
    )


def _taylor_at_one(terms: list[int], bits: int, tol: float):
    """sum_m u_m s**m shifted to s = 1, for sigma = 1 - s <= ``_SIGMA_MAX``, or None.

    Each pass of synthetic division by s - 1 (integer additions only; von
    zur Gathen and Gerhard, ISSAC 1997) gives the next B_n = sum_m C(m, n)
    u_m and leaves the exact remainder (s - 1)**(N + 1) q(s), at most
    sigma**(N + 1) sum_j |q_j| on s in [0, 1].  The passes stop at the first
    N whose remainder at ``_SIGMA_MAX`` is at most tol / 16 of
    sum_n |B_n| sigma_max**n.  Returns (b_N, ..., b_0) with b_n = B_n 2**-bits
    for Horner's rule in -sigma, the order N + 1, sum |q_j| in units of
    2**-bits, and the rounding term: (6N + 8) ulps of sum |b_n| sigma_max**n
    plus N + 1 subnormal ulps for the conversions, to be scaled by the
    leading term.  Each node checks its own bound.
    """
    unit = 1 << bits
    rev = terms[::-1]
    shifted = []
    limit = 0.0625 * tol
    try:
        reach = 0.0  # sum |B_n| sigma_max**n, in units of 2**-bits
        for n in range(len(terms)):
            rev = list(accumulate(rev))
            shifted.append(rev.pop())
            scale = _SIGMA_MAX**n
            term = float(abs(shifted[-1])) * scale
            reach += term
            # the remainder is summed only once the shifted terms have become small
            if term <= limit * reach or not rev:
                remainder = sum(map(abs, rev))
                if float(remainder) * scale * _SIGMA_MAX <= limit * reach:
                    break
        coefs = [b / unit for b in reversed(shifted)]
        majorant = math.fsum(abs(b) * _SIGMA_MAX**i for i, b in enumerate(reversed(coefs)))
        remainder = float(remainder)
    except OverflowError:
        return None
    order = len(coefs)
    rounding = (6.0 * (order - 1) + 8.0) * UNIT * majorant + order * SUBNORMAL_ULP
    return tuple(coefs), order, remainder, rounding


def struve_h(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Struve function H_nu(x), the k-Struve series at c = k = 1."""
    return k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x, tol=tol)


def struve_l(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Modified Struve function L_nu(x), the k-Struve series at c = -1, k = 1."""
    return k_struve(StruveParams(nu=nu, c=-1.0, k=1.0), x, tol=tol)

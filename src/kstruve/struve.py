"""Generalized k-Struve series and the classical Struve functions.

The central object is

    S[k, nu, c](x) = sum_{r>=0} (-c)**r (x/2)**(2r + nu/k + 1)
                     / (Gamma_k(r k + nu + 3k/2) * Gamma(r + 3/2)),

an entire function of x for every k > 0, nu > -3k/2 and real c.  Setting
c = k = 1 recovers the Struve function H_nu, c = -1, k = 1 the modified
Struve function L_nu.  Terms are generated by the exact ratio recurrence

    t_{r+1} / t_r = -c (x/2)**2 / (k (r + nu/k + 3/2) (r + 3/2)),

whose magnitude decreases monotonically in r, so a geometric majorant gives
a rigorous truncation bound.  The series is a Fox-Wright series times a
power, and the terms are summed by the same exact-ratio loop
(:func:`kstruve.fixedpoint.sum_ratio`).  The returned bound adds the
rounding of the double-precision loop; where the terms cancel too much for
doubles (c > 0 and large x sqrt(c/k)) the same ratio, read as an exact
rational, is summed in fixed point on integers.

A caller that needs S at many x in (0, X] builds :func:`k_struve_poly` once:
the leading term times a polynomial in (x/2)**2 whose degree makes the tail
at X small.  Each value carries a bound (tail, Horner and coefficient
rounding, leading term), at most tol times the value.  One evaluator
computes the leading term and tries up to three forms of the polynomial,
in this order, until a value's bound fits:

- double: Horner's rule on double coefficients, on all of (0, X] below the
  fixed-point regime (c <= 0, or X sqrt(c/k) < 8) and on (0, 8 sqrt(k/c)]
  in it.  Where the terms cannot cancel much (c <= 0, or a first term
  ratio below 1 at that range's end), one relative bound, proved once for
  the whole interval, serves every node; otherwise each node computes its
  own;
- Taylor at X: in the fixed-point regime, next to X, where sigma = 1 -
  (x/X)**2 is small, the integer terms u_m of one fixed-point pass at X,
  shifted exactly to x = X and evaluated in doubles in -sigma;
- integer: in the fixed-point regime, the same u_m, evaluated by integer
  Horner's rule in s = (x/X)**2.

Where a value's bound fails, or where the leading term leaves
(1e-300, 1e300), the caller falls back to :func:`k_struve`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, partial
from itertools import accumulate

from .errors import ConvergenceError, DomainError
from .fixedpoint import LOG2_E, SUBNORMAL_ULP, UNIT, LinearRatio, fixed_terms, sum_fixed, sum_ratio
from .gamma import _LOG_DBL_MAX, _MIN_NORMAL, _lgamma, log_k_gamma
from .results import TINY, EvaluationResult

_LGAMMA_3_2 = math.lgamma(1.5)
# from x sqrt(c/k) = 8 (ratio_scale = -16) on, with c > 0, the terms outgrow
# the sum by more than about 150: the double loop would fail the relative rule
# at the usual tolerances, so the fixed-point path runs directly
_FIXED_RATIO_SCALE = -16.0
# k_struve's term cap and the polynomials' degree cap
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

    ``table`` holds the exact ratio -c x**2 bd / (2k (r bd + bn)(2r + 3)) with
    base = nu/k + 3/2 = bn/bd read exactly from the doubles nu and k;
    ``num_const`` times xn**2 is its numerator for x = xn / 2**e.
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
        # ulps a term of the double loop gains per step: 3 from ratio_scale,
        # 4 from the ratio and the product, and the error of the double base,
        # a relative error of at most |base error| / base in each r + base
        self.step_ulps = 7.0 + abs(_gap(self.base, bn, bd)) / self.base / UNIT
        self.power_delta = _gap(p.power, 2 * bn - bd, 2 * bd)
        self._exact = (bn, bd, abs(cn) * kd * bd, 2 * cd * kn)
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

    @cached_property
    def table(self) -> LinearRatio:
        bn, bd, num_const, den_const = self._exact
        return LinearRatio((), ((bd, bn), (2, 3)), num_const, den_const, 0)


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


def _lead(params: StruveParams, x: float) -> tuple[float, float]:
    """The r = 0 term at x > 0 and its relative error.

    The term is (x/2)**power * scale0 with the exact-power correction, as
    :func:`k_struve_poly`'s evaluator computes it.  Where that is outside
    (1e-300, 1e300), or x/2 is below the normal range, it is taken from its
    logarithm instead: there 0.5 * x may have rounded, and a negative power
    would carry that error or divide by a half rounded to 0.  Raises
    ConvergenceError when the term overflows.
    """
    consts = params._series
    lam = consts.power
    half = 0.5 * x
    if half >= _MIN_NORMAL:
        try:
            lead = half**lam * consts.scale0
        except OverflowError:
            lead = math.inf
        if 1e-300 < lead < 1e300:
            lead_err = consts.lead_err
            if consts.power_delta:
                # the exact power: (x/2)**delta = exp(t), within t**2 of 1 + t for
                # |t| < 1/2; delta is a few ulps of nu/k, so t is of order 1e-13
                t = consts.power_delta * math.log(half)
                lead *= 1.0 + t
                lead_err += t * t + 3.0 * UNIT * abs(t)
            return lead, lead_err
        log_half = math.log(half)
    else:
        # below the normal range the halving may round; take the log before scaling then
        log_half = math.log(x) - math.log(2.0)
    log_t0 = (lam * log_half + consts.power_delta * log_half) + params.log_scale
    if log_t0 > _LOG_DBL_MAX:
        raise ConvergenceError(
            f"leading term overflows at x={x}; argument too large for the series"
        )
    # the log and products, the two sums, exp
    lead_err = (
        UNIT * (4.0 * abs(lam * log_half) + 3.0 * abs(consts.power_delta * log_half))
        + UNIT * (abs(log_t0) + 2.0)
        + consts.scale_err
    )
    return math.exp(log_t0), lead_err


def k_struve(params: StruveParams, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Evaluate the k-Struve series at real x with a certified error bound.

    Negative x is admitted only when the leading exponent nu/k + 1 is an
    integer, in which case S(-x) = (-1)**(nu/k + 1) S(x); otherwise the
    fractional power has no real value and DomainError is raised.  Summation
    stops once the error bound is at most ``max(tol * |value|, 1e-280)``,
    relative to the value with an absolute floor for sums lost to underflow.

    The terms are summed in doubles by :func:`kstruve.fixedpoint.sum_ratio`,
    the loop the Fox-Wright series shares, with the ratio -c (x/2)**2 /
    (k (r + nu/k + 3/2)(r + 3/2)): it stops once the next term is within the
    rule, after adding it, and at most 500 terms are summed.  The returned
    ``error_bound`` covers the truncated tail and the rounding: the error of
    the leading term, (s n + 2) ulps of sum |t_r| for the double loop after
    n + 1 terms, with s about 7 roundings a step, the fixed-point floors when
    that path runs, and (terms + 2) * 2**-1074 for results below the normal
    range.  The series is summed in fixed point on integers, at about
    64 + log2(sum |t_r| / |S|) bits, when c > 0 and x sqrt(c/k) >= 8, or when
    the rounding of the double loop alone would break the rule above.
    """
    if not (math.isfinite(x) and math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"need finite x and tol > 0, got x={x!r}, tol={tol!r}")
    consts = params._series
    lam = consts.power

    if x < 0.0:
        if lam != math.floor(lam):
            raise DomainError(
                f"negative argument x={x} needs integer nu/k + 1, got {lam}"
            )
        flipped = k_struve(params, -x, tol=tol)
        sign = 1.0 if lam % 2.0 == 0.0 else -1.0
        return EvaluationResult(sign * flipped.value, flipped.error_bound, flipped.terms_used)

    if x == 0.0:
        if lam > 0.0:
            return EvaluationResult(0.0, 0.0, 0)
        if lam == 0.0:
            # only the r = 0 term survives: (x/2)**0 = 1
            value = math.exp(params.log_scale)
            bound = value * (consts.scale_err + 2.0 * UNIT) + 3.0 * SUBNORMAL_ULP
            return EvaluationResult(value, bound, 1)
        raise DomainError(f"x = 0 diverges for nu/k + 1 = {lam} < 0")

    half = 0.5 * x
    lead, lead_err = _lead(params, x)
    ratio_scale = -params.c * half * half / params.k
    fixed = partial(_fixed, params, x, lead, lead_err, ratio_scale, tol)
    try:
        if ratio_scale <= _FIXED_RATIO_SCALE:
            return fixed(0)
        return sum_ratio(
            lead, lead_err, ratio_scale, (), ((1, consts.base), (1, 1.5)), consts.step_ulps,
            0, TINY, tol, _MAX_TERMS, fixed,
        )
    except ConvergenceError as exc:
        raise ConvergenceError(f"k-Struve series at x={x}: {exc}") from None


def k_struve_poly(params: StruveParams, xmax: float, tol: float):
    """The k-Struve series on (0, xmax] as its leading term times a polynomial, built once.

    With v = (x/2)**2, S(x) = lead(x) g(v), where lead(x) is the r = 0 term
    that :func:`k_struve` computes and g(v) = sum_r a_r v**r has a_0 = 1 and
    a_{r+1} = a_r (-c/k) / ((r + nu/k + 3/2)(r + 3/2)), the series' exact
    term ratio.

    Returns ``evaluate(x)``, which gives ``(value, error_bound)`` with
    ``error_bound <= tol * |value|``, or None when x is not in (0, xmax],
    when the leading term is outside (1e-300, 1e300) or x/2 is below the
    normal range, or when that bound fails; the caller then calls
    :func:`k_struve`.  k_struve_poly itself returns None when no degree up
    to 500 serves.

    ``evaluate`` computes the leading term once, as :func:`_lead` does, and
    then tries up to three forms of g, in this order, until one value's
    bound fits tol:

    - double: Horner's rule on double coefficients on (0, W]
      (:func:`_double_horner`), with W = xmax below the fixed-point regime
      (c <= 0, or xmax sqrt(c/k) < 8) and W = 8 sqrt(k/c) in it.  When the
      polynomial's certificate, a relative bound rel proved once for all of
      (0, W], is at most tol, every value's bound is rel |value|; rel
      exists for c <= 0, and for c > 0 when the first term ratio at W,
      (c/k)(W/2)**2 / ((nu/k + 3/2) 3/2), is below 1.  The certificate
      implies the per-node test, so the same nodes are served with the same
      values either way;
    - in the fixed-point regime, the integer terms of one fixed-point pass
      at xmax (:func:`_integer_horner`): first, where sigma = 1 -
      (x/xmax)**2 <= ``_SIGMA_MAX``, their exact Taylor shift to x = xmax
      in doubles, then integer Horner's rule.
    """
    if not 0.0 < xmax < math.inf:
        return None
    half_max = 0.5 * xmax
    wmax, integer = xmax, None
    if -params.c * half_max * half_max / params.k <= _FIXED_RATIO_SCALE:
        wmax = min(xmax, 8.0 * math.sqrt(params.k / params.c))
        integer = _integer_horner(params, xmax, tol)
    double = _double_horner(params, wmax, tol)
    if double is None:
        return None
    pairs, sign, tail, span, rounding, rel = double
    certified = rel <= tol
    consts = params._series
    power = consts.power
    scale0 = consts.scale0
    delta = consts.power_delta
    lead_err0 = consts.lead_err
    xmax_sq = xmax * xmax
    log = math.log
    inf = math.inf

    def evaluate(x: float) -> tuple[float, float] | None:
        half = 0.5 * x
        if not half >= _MIN_NORMAL:  # also x <= 0 and nan
            return None
        try:
            lead = half**power * scale0
        except OverflowError:
            return None
        if not 1e-300 < lead < 1e300:
            return None
        t = 0.0
        if delta:
            t = delta * log(half)
            lead *= 1.0 + t
        if x <= wmax:
            v = half * half
            s = v * v
            even = odd = 0.0
            for a_even, a_odd in pairs:
                even = even * s + a_even
                odd = odd * s + a_odd
            odd *= v
            value = lead * (even + sign * odd)
            size = abs(value)
            if certified:
                if size < inf:  # an overflowed value fails
                    return value, rel * size
            else:
                bound = (
                    lead * (tail * (x / wmax) ** span + rounding * (even + odd))
                    + (lead_err0 + (t * t + 3.0 * UNIT * abs(t)) + UNIT) * size
                )
                if bound <= tol * size < inf:
                    return value, bound
        if integer is None or x > xmax:
            return None
        (inv, guard, bits, top, rest, pass_tail, tail_power, units_fixed, floors,
         shifted, order, rest_units, taylor_rounding, sigma_max) = integer
        lead_err = lead_err0 + (t * t + 3.0 * UNIT * abs(t))
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
            bound = (
                lead * (math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT) + taylor_rounding)
                + size * (lead_err + 3.0 * UNIT)
                + SUBNORMAL_ULP
            )
            if bound <= tol * size < inf:
                return value, bound
        n, d = x.as_integer_ratio()
        s = n * n * inv >> (guard + 2 * d.bit_length() - 2)
        acc = top
        for u in rest:
            acc = (acc * s >> bits) + u
        value = lead * math.ldexp(float(acc), -bits)
        size = abs(value)
        bound = (
            lead * math.ldexp(units_fixed + pass_units, -bits) * (1.0 + 8.0 * UNIT)
            + size * (lead_err + 3.0 * UNIT)
            + SUBNORMAL_ULP
        )
        if bound <= tol * size < inf:
            return value, bound
        return None

    return evaluate


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

    Certificate.  Once per polynomial, rel bounds that node bound over
    |value| at every x in (0, xmax] where the leading term is in range:

    - c <= 0: every a_r >= 0, so the computed g is the computed M, and it is
      at least 1 (Horner's rule on nonnegative numbers ending in + 1).  With
      (x/xmax)**(2R) <= 1, rel = T + eps + L_max + u.
    - c > 0 and rho0 = (c/k) V / ((nu/k + 3/2) 3/2) < 1: the ratio's
      denominators grow with r, so each ratio |a_{r+1}| v / |a_r| of the
      computed coefficients at a computed v <= V is at most rho0 (1 + 4u),
      and r0 = rho0 (1 + 8u) bounds it.  The terms alternate and decrease,
      so the exact sums of the computed coefficients obey g >= d = 1 - r0
      and M <= 1/d.  The computed g and M are within eps M of them (eps is
      at least Horner's (2R + 4) ulps with the argument's rounding), so
      |g| >= d (1 - kappa) and M <= (1 + kappa) / d, with kappa = eps / d**2.
      For kappa <= 1/4, (1 + kappa) / (1 - kappa) <= 1 + 3 kappa, and
      rel = (T/d + kappa)(1 + 3 kappa) + L_max + u.  Otherwise rel = inf.
    - L_max = lead_err + t**2 + 3u t at t = |power_delta| max(|log m|,
      |log(xmax/2)|), m the smallest normal: the power correction
      t = power_delta log(x/2) for every served x/2 in [m, xmax/2].
    - Slack: every quantity above is nonnegative, and each rounding moves
      the sum, product or quotient it makes by at most u of itself (a libm
      log by at most 2u).  rel, the node's bound with its L(x), |value| and
      tol |value| take fewer than 40 roundings between them, d's counted
      twice; the factor 1 + 64u covers them.

    So rel <= tol implies, in floating point, the per-node test at every
    node, and then every node returns rel |value|, skipping the tail, the
    power of x/xmax and the rounding arithmetic.  Otherwise each node
    computes its own bound.  Returns (pairs, sign, T, 2R, eps, rel), with
    pairs the (even, odd) coefficients from the top and sign that of c's
    odd terms.
    """
    consts = params._series
    base = consts.base
    ck = abs(params.c) / params.k
    half_max = 0.5 * xmax
    vmax = half_max * half_max
    coefs = [1.0]  # |a_r|
    mag = 1.0  # |a_r| V**r
    for r in range(_MAX_TERMS):
        rho = ck * vmax / ((r + base) * (r + 1.5))
        if rho < 1.0 and mag * rho / (1.0 - rho) <= 0.125 * tol:
            break
        coefs.append(coefs[-1] * (ck / ((r + base) * (r + 1.5))))
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

    log_extent = max(-math.log(_MIN_NORMAL), abs(math.log(max(half_max, _MIN_NORMAL))))
    t_max = abs(consts.power_delta) * log_extent
    lead_err_max = consts.lead_err + (t_max * t_max + 3.0 * UNIT * t_max)
    rel = math.inf
    if params.c <= 0.0:
        rel = tail + rounding
    else:
        rho0 = ck * vmax / (base * 1.5)
        d = 1.0 - rho0 * (1.0 + 8.0 * UNIT)
        if d > 0.0 and rounding <= 0.25 * d * d:
            kappa = rounding / (d * d)
            rel = (tail / d + kappa) * (1.0 + 3.0 * kappa)
    rel = (rel + lead_err_max + UNIT) * (1.0 + 64.0 * UNIT)
    # the tail scales by (x/xmax)**(2R), not (v/V)**R: V is 0.0 for xmax below about 3e-162
    return pairs, sign, tail, 2 * degree, rounding, rel


def _integer_horner(params: StruveParams, xmax: float, tol: float):
    """g on (0, xmax] from the integer terms of one fixed-point pass: its constants, or None.

    :func:`kstruve.fixedpoint.fixed_terms` at x = xmax and tol / 8 gives
    u_m, within e_m of 2**bits a_m V**m, so that
    2**bits g(v) = sum_m u_m s**m with s = (x / xmax)**2 <= 1.  Each node
    reads s exactly from the doubles x and xmax as S = floor(s 2**bits), to
    within 1.25 units, by one multiply with a reciprocal and a shift, and
    Horner's rule runs on integers: acc = (acc * S >> bits) + u_m, with no
    division.  In units of 2**-bits, the bound adds the coefficient floors
    (sum e_m s**m <= sum e_m, the pass's floor bound), one unit per Horner
    floor, the rounding of s (1.25 * 2**-bits * sum m (|u_m| + e_m)),
    and the pass's tail at xmax times s**(R + 1); then the leading term's
    error, the conversion of acc and the product, as :func:`sum_fixed`
    does, and a subnormal ulp.

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
    half_max = 0.5 * xmax
    peak = half_max * math.sqrt(params.c / params.k)
    if peak >= _MAX_TERMS:
        return None  # the largest term comes after the pass's last, as in _fixed
    xn, xd = xmax.as_integer_ratio()
    try:
        terms, bits, tail, floors = fixed_terms(
            consts.table,
            xn * xn,
            2 * (xd.bit_length() - 1),
            True,
            _cancellation_bits(peak),
            0.125 * tol,
            _MAX_TERMS,
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
    leading term.
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


def _cancellation_bits(peak: float) -> int:
    """Working bits for the c > 0 terms, which outgrow their sum by about e**(2 peak).

    ``peak`` is sqrt|ratio_scale| = (x/2) sqrt(c/k), the index of the largest term.
    """
    return math.ceil(2.0 * LOG2_E * peak) + 8


def _fixed(params, x, lead, lead_err, ratio_scale, tol, cond_bits):
    """The fixed-point path of :func:`k_struve`, after its guards."""
    # the terms grow while (r + base)(r + 3/2) < |ratio_scale|, that is up to
    # r = sqrt|ratio_scale|, and reach about e**(2 sqrt|ratio_scale|) times the first
    peak = math.sqrt(abs(ratio_scale))
    if peak >= _MAX_TERMS:
        raise ConvergenceError(f"needed more than {_MAX_TERMS} terms for tol={tol}")
    if params.c > 0.0:
        cond_bits = max(cond_bits, _cancellation_bits(peak))
    xn, xd = x.as_integer_ratio()
    return sum_fixed(
        params._series.table, xn * xn, 2 * (xd.bit_length() - 1), params.c > 0.0, lead, lead_err,
        cond_bits, tol, _MAX_TERMS,
    )


def struve_h(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Struve function H_nu(x), the k-Struve series at c = k = 1."""
    return k_struve(StruveParams(nu=nu, c=1.0, k=1.0), x, tol=tol)


def struve_l(nu: float, x: float, tol: float = 1e-12) -> EvaluationResult:
    """Modified Struve function L_nu(x), the k-Struve series at c = -1, k = 1."""
    return k_struve(StruveParams(nu=nu, c=-1.0, k=1.0), x, tol=tol)

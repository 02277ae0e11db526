"""Fox-Wright generalized hypergeometric series p Psi q.

    Psi(z) = sum_{m>=0} prod_i Gamma(a_i + alpha_i m)
                        / prod_j Gamma(b_j + beta_j m) * z**m / m!

with all alpha_i, beta_j > 0.  The series is entire whenever the convergence
index  delta = sum(beta_j) - sum(alpha_i)  exceeds -1; at delta = -1 it has a
finite radius and below that it is purely asymptotic, so evaluation is
refused there.  With integer slopes up to 64 (every identity in the package
has 1 and 2) and a first term within e**-700 to e**700 the terms follow
their exact ratio recurrence, re-summed in fixed point when they cancel
beyond double precision; every other spec assembles each term in log space
with explicit sign tracking and reads each term ratio from the logarithms,
so a term that underflows to 0.0 still has one.  One predicate routes a
spec, and :attr:`WrightSpec.lead_error` follows it.

:func:`wright_pair` sums a spec together with its companion, the spec with
its last lower parameter raised by 1 at a scaled argument, whose terms are
the spec's own times a short factor: one plan and one double loop serve
both, each sum with its own stopping test and bound.  The closed forms of
the identities are such a pair (the printed form and the corrected one).
Both entries run every integer-slope sum through one driver, with one set
of refusals and one routing decision per pass, the peak screen of the
spec's plan.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import ConvergenceError, DomainError, KStruveError, OverflowRangeError, PoleError
from .fixedpoint import LOG2_E, MAX_BITS, SUBNORMAL_ULP, UNIT, LinearRatio, fixed_terms
from .gamma import _LOG_DBL_MAX, _lgamma, log_abs_gamma
from .results import EvaluationResult, require_tol

_POLE_SNAP = 1e-9
_MAX_TERMS = 1000
# the exact ratio has one linear factor per unit of slope; beyond this slope
# the log path, whose cost does not grow with the slopes, runs instead
_MAX_SLOPE = 64
# beyond a peak of e**this times the first term the fixed-point pass would
# need more than MAX_BITS bits: the double loop runs and reports the overflow
_MAX_LOG_PEAK = MAX_BITS / LOG2_E
# a first term is used as a double only within e**-700 to e**700
_LEAD_MAX = math.exp(700.0)
_LEAD_MIN = 1.0 / _LEAD_MAX


class WrightSpec(namedtuple("WrightSpec", "upper lower")):
    """Parameter lists ((a_i, alpha_i), ...) upstairs and ((b_j, beta_j), ...) downstairs.

    Each pair is stored as a tuple of two floats.  Instances keep a
    ``__dict__`` for their cached evaluator.
    """

    def __new__(cls, upper, lower):
        upper = tuple((float(a), float(al)) for a, al in upper)
        lower = tuple((float(b), float(be)) for b, be in lower)
        for a, al in upper:
            if not (math.isfinite(a) and math.isfinite(al) and al > 0.0):
                raise DomainError(f"upper pair ({a}, {al}) needs finite a and alpha > 0")
        for b, be in lower:
            if not (math.isfinite(b) and math.isfinite(be) and be > 0.0):
                raise DomainError(f"lower pair ({b}, {be}) needs finite b and beta > 0")
        return super().__new__(cls, upper, lower)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here: run the checks of __new__ on it too
        return cls(*iterable)

    @cached_property
    def _plan(self) -> "_Plan":
        """The integer-slope evaluator, built on first use."""
        return _Plan(self)

    @property
    def lead_error(self) -> float:
        """Relative error bound of the m = 0 term as the path that sums this spec computes it.

        That is the exact-ratio plan's first term for integer slopes with a
        first term within e**-700 to e**700, and the log path's otherwise:
        ``wright_eval(spec, 0.0)`` returns this times |t_0| (plus
        3 * 2**-1074) as its bound, and :func:`wright_eval` cannot meet a
        relative tolerance much below it.
        """
        if _exact_ratio(self):
            return self._plan.lead_err
        return _log_path_term(self, 0.0, 0)[2]


def _integer_slopes(spec: WrightSpec) -> bool:
    """Whether every slope is an integer of at most _MAX_SLOPE."""
    return all(w.is_integer() and w <= _MAX_SLOPE for _, w in spec.upper + spec.lower)


def _exact_ratio(spec: WrightSpec) -> bool:
    """Whether :func:`wright_eval` sums spec by its exact term ratio.

    That needs integer slopes and a first term within e**-700 to e**700.
    """
    return _integer_slopes(spec) and spec._plan.lead != 0.0


def convergence_index(spec: WrightSpec) -> float:
    """delta = sum of lower slopes minus sum of upper slopes."""
    try:
        return math.fsum(be for _, be in spec.lower) - math.fsum(al for _, al in spec.upper)
    except OverflowError:
        raise OverflowRangeError("the sum of the slopes exceeds the double range") from None


def _near_nonpositive_integer(v: float) -> bool:
    if not math.isfinite(v):
        return False  # log_abs_gamma refuses it
    nearest = round(v)
    return nearest <= 0 and abs(v - nearest) <= _POLE_SNAP


def _log_term(spec: WrightSpec, m: int) -> tuple[float, float, float]:
    """(log magnitude, sign, sum of |log Gamma|) of the m-th term without z**m / m!."""
    log_mag = 0.0
    sign = 1.0
    size = 0.0
    for side, where, pairs in ((1.0, "upper", spec.upper), (-1.0, "lower", spec.lower)):
        for a, al in pairs:
            arg = a + al * m
            if _near_nonpositive_integer(arg):
                raise PoleError(f"{where} gamma argument {arg} at term {m} hits a pole")
            lg, s = log_abs_gamma(arg)
            log_mag += side * lg
            size += abs(lg)
            sign *= s
    return log_mag, sign, size


def _first_positive(forms) -> int:
    """Smallest m >= 0 with p*m + q > 0 for every (p, q) in forms, at most _MAX_TERMS + 1.

    No sum certifies its tail before this index, so one beyond the term cap
    stands for any later one.
    """
    first = 0
    for p, q in forms:
        if q > 0.0:
            continue
        root = -q / p
        if not root < _MAX_TERMS:
            return _MAX_TERMS + 1
        m = max(0, math.floor(root) + 1)
        while p * m + q <= 0.0:
            m += 1
        first = max(first, m)
    return first


def _forms(pairs, shift: int = 0) -> list[tuple[int, float, int, int]]:
    """The factors slope*m + a + s, shift <= s < slope + shift, of the pairs as (slope, q, n, d).

    q is a + s rounded, for the double loop, and n / d = a + s exactly, in
    lowest terms with d the denominator of a (a power of two), for the
    fixed-point table; equal forms are equal factors.  A q that rounds is positive: for
    |a| < 2**53, a + s is exact if |a + s| <= |a|.  With shift = 1 they are
    the factors of the pair (a + 1, slope).
    """
    forms = []
    for a, slope in pairs:
        p = int(slope)
        n, d = a.as_integer_ratio()
        for s in range(shift, p + shift):
            forms.append((p, a + s, n + s * d, d))
    return forms


class _Plan:
    """Integer-slope evaluator of one spec, built once.

    With integer slopes Gamma(a + alpha (m + 1)) / Gamma(a + alpha m) is the
    product of alpha linear factors, so the term ratio is z times a ratio of
    linear factors in m; a factor shared by both sides (such as m + 1 from
    m!) cancels.  From ``tail_start`` on every factor is positive and the
    ratio magnitude is non-increasing, which certifies a geometric tail.

    Given a :class:`_Companion` of spec, it is instead the plan of that
    companion: spec with its last lower pair (b, beta) moved to
    (b + 1, beta), summed at scale * z, with the companion's first term.
    """

    def __init__(self, spec: WrightSpec, companion: "_Companion | None" = None):
        exact_num = []
        if companion is None:
            exact_den = _forms(spec.lower)
        else:
            exact_den = _forms(spec.lower[:-1]) + _forms(spec.lower[-1:], 1)
        exact_den.append((1, 1.0, 1, 1))  # m + 1 from z**m / m!
        for form in _forms(spec.upper):
            if form in exact_den:  # the factor cancels
                exact_den.remove(form)
            else:
                exact_num.append(form)
        self._exact = (exact_num, exact_den)
        num = [(p, q) for p, q, _, _ in exact_num]
        den = [(p, q) for p, q, _, _ in exact_den]
        start = _first_positive(num + den)
        if num:
            low = min(q / p for p, q in num)
            high = max(q / p for p, q in den)
            # sum 1/(m + q/p) upstairs <= downstairs once this holds
            edge = (len(num) * high - len(den) * low) / (len(den) - len(num))
            # (no sum certifies past _MAX_TERMS; below -1 the edge does not bind)
            if edge < _MAX_TERMS:
                start = max(start, math.ceil(max(edge, -1.0)) + 1)
            else:
                start = _MAX_TERMS + 1
        self.num_forms = tuple(num)
        self.den_forms = tuple(den)
        # roundings per step: one per factor and product, the quotient, the
        # update, and one for each q = a + s that is not a double
        inexact = sum(q.as_integer_ratio() != (n, d) for _, q, n, d in exact_num + exact_den)
        self.step_ulps = 2.0 * (len(num) + len(den)) + 1.0 + inexact
        self.tail_start = start
        # |t_m / t_0| is about (|z| kappa)**m / m!**order for large m, which
        # peaks near m = (|z| kappa)**(1/order) at about e**(order m)
        self.order = len(den) - len(num)
        self.kappa = math.prod([p for p, _ in num]) / math.prod([p for p, _ in den])
        if companion is not None:
            self.scale, self.lead, self.lead_err = companion.scale, companion.lead, companion.lead_err
            return
        self.scale = 1.0
        log_mag, sign, size = _log_term(spec, 0)
        count = len(spec.upper) + len(spec.lower)
        self.lead = sign * math.exp(log_mag) if -700.0 < log_mag < 700.0 else 0.0
        # each log Gamma within 2 ulps (plus 4 ulps absolute), the sum, exp
        self.lead_err = UNIT * ((4.0 + count) * size + 4.0 * count + 2.0)

    @cached_property
    def log_forms(self) -> tuple[tuple[float, float, float, float], ...] | None:
        """(sign, log p, q/p, lgamma(q/p)) of each factor, upstairs +1; None unless every q > 0.

        Then prod_{j<m} (p j + q) = p**m Gamma(m + q/p) / Gamma(q/p), which
        gives log |t_m / t_0| from log-gamma values.
        """
        groups = ((1.0, self.num_forms), (-1.0, self.den_forms))
        if any(q <= 0.0 for _, forms in groups for _, q in forms):
            return None
        return tuple(
            (sign, math.log(p), q / p, _lgamma(q / p)) for sign, forms in groups for p, q in forms
        )

    def table(self, z: float) -> LinearRatio:
        """The exact term ratio at z for the fixed-point path, built once per sum by :func:`_fixed`.

        Its factors are the plan's (p, n, d) and its constant is scale * z,
        both read exactly from the doubles; the sign of z is the constant's.
        """
        zn, zd = z.as_integer_ratio()
        sn, sd = self.scale.as_integer_ratio()
        num, den = ([(p, n, d) for p, _, n, d in forms] for forms in self._exact)
        return LinearRatio(num, den, (sn * zn, sd * zd), self.tail_start)


def wright_eval(spec: WrightSpec, z: float, tol: float = 1e-12) -> EvaluationResult:
    """Sum the Fox-Wright series at real z with a certified error bound.

    Summation stops once the error bound is at most ``tol * |value|``, with
    no absolute term; a sum that cannot get under it raises
    ConvergenceError.  The bound covers the truncated tail and the rounding
    of every term and of the sum, with (terms + 2) * 2**-1074 for results
    below the normal range.  A tol that is not a finite positive number
    raises DomainError.

    When every slope is an integer up to 64 the terms follow their exact
    ratio recurrence in a double loop: from the index at which every factor
    is positive and the ratio magnitude can no longer rise, the tail is
    majorized by a geometric series, and summation stops once the next term
    is within the rule, after adding it.  If the rounding of the double loop
    alone would break the rule, the series is re-summed in fixed point on
    integers (:func:`kstruve.fixedpoint.fixed_terms`); for z < 0 whose
    largest term exceeds tol / 2**-53 times the first, which an O(1)
    estimate detects, the fixed-point pass runs without the double loop.
    Every other spec (another slope, or a first term outside e**-700 to
    e**700) takes the log path: each term is assembled from log Gamma
    values, and each term ratio is read from their logarithms,
    exp(log |t_m| - log |t_{m-1}|), which exists where a term underflows to
    0.0; there is no underflow exit.  The tail is certified once every gamma
    argument is positive, the observed term ratios decrease over a
    three-term window and the latest ratio is below 1.  A rounding bound the
    rule cannot absorb raises ConvergenceError naming that rounding, which
    comes from each term's log Gamma values, and sum |t| / |sum t|.
    ConvergenceError is also raised if delta <= -1 (outside the entire
    regime), if a term or the sum leaves the double range, or if 1000 terms
    do not suffice.
    """
    require_tol(tol)
    _refuse(spec, z)
    if _exact_ratio(spec):
        return _ratio_sums(spec, z, tol)[0]
    return _log_sum(spec, z, tol)


def _refuse(spec: WrightSpec, z: float) -> None:
    """Refuse, for every sum, a z that is not finite (DomainError) and delta <= -1 (ConvergenceError)."""
    if not math.isfinite(z):
        raise DomainError(f"need finite z, got z={z!r}")
    delta = convergence_index(spec)
    if delta <= -1.0:
        raise ConvergenceError(
            f"convergence index {delta} <= -1: series is not entire, refusing to sum"
        )


def _ratio_sums(spec: WrightSpec, z: float, tol: float, companion=None) -> tuple:
    """Spec's sum at z by its exact term ratio, and with a :class:`_Companion` that sum too.

    Returns (spec's sum, the companion's sum or None) as EvaluationResults.
    z = 0 leaves the first terms.  For z < 0 the peak screen of spec's plan
    (:func:`_peak_bits`) is the one routing decision: where it rules out
    doubles, both sums go to :func:`_fixed` with its cond bits.  Otherwise
    :func:`_double` runs both in one pass, and a sum whose rounding cannot
    fit goes to :func:`_fixed` with the cond bits it measured.  The
    companion's :class:`_Plan` is built only for its fixed-point table.
    """
    plan = spec._plan
    if z == 0.0:
        second = companion and _lead_only(companion.lead, companion.lead_err)
        return _lead_only(plan.lead, plan.lead_err), second
    try:
        bits = _peak_bits(plan, z, tol) if z < 0.0 else 0
        printed, second = (bits, companion and bits) if bits else _double(plan, z, tol, companion)
        if not isinstance(printed, EvaluationResult):
            printed = _fixed(plan, z, tol, printed)
        if companion and not isinstance(second, EvaluationResult):
            second = _fixed(_Plan(spec, companion), z, companion.tol, second)
    except ConvergenceError as exc:
        raise ConvergenceError(f"Fox-Wright series at z={z}: {exc}") from None
    return printed, second


def _peak_bits(plan: _Plan, z: float, tol: float) -> int:
    """log2 max |t_m / t_0| at z < 0 when it is too large for doubles, else 0.

    Doubles cannot serve once UNIT times the largest term exceeds tol * |t_0|,
    since the sum of the alternating terms is below |t_0| there.  The test
    costs O(1) in z: the upper estimate order (|z| kappa)**(1/order) of the
    log peak screens out small |z|, and only then is log |t_m / t_0| taken
    from log-gamma values at m = round((|z| kappa)**(1/order)), at or near
    the peak.
    """
    budget = math.log(tol / UNIT)
    root = (-z * plan.kappa) ** (1.0 / plan.order)
    if not budget < plan.order * root <= _MAX_LOG_PEAK or plan.log_forms is None:
        return 0
    m = round(root)
    log_peak = m * math.log(-z)
    for sign, log_p, shift, lgamma_shift in plan.log_forms:
        log_peak += sign * (m * log_p + _lgamma(m + shift) - lgamma_shift)
    if log_peak <= budget:
        return 0
    return math.ceil(log_peak * LOG2_E)


def _lead_only(lead: float, lead_err: float) -> EvaluationResult:
    """The sum at z = 0: the first term alone."""
    return EvaluationResult(lead, abs(lead) * lead_err + 3.0 * SUBNORMAL_ULP, 1)


class _Companion:
    """The second sum of :func:`wright_pair`, run on the printed spec's plan.

    (b, beta) is the spec's last lower pair and scale the argument's factor.
    The first term is t_0 / b, with the division's 2 ulps added to t_0's
    relative error.  From ``tail_start`` on b + beta m > 0 as well, so each
    ratio, the printed one times scale (b + beta m) / (b + beta (m + 1)), is
    at most scale times the printed ratio in magnitude.  (A plain class: a
    named tuple would add about 0.1 ms to ``import kstruve``.)
    """

    __slots__ = ("b", "beta", "scale", "lead", "lead_err", "tol", "tail_start")

    def __init__(self, b, beta, scale, lead, lead_err, tol, tail_start):
        self.b, self.beta, self.scale = b, beta, scale
        self.lead, self.lead_err, self.tol, self.tail_start = lead, lead_err, tol, tail_start


def wright_pair(
    spec: WrightSpec, z: float, tol: float, scale: float
) -> tuple[EvaluationResult, EvaluationResult] | None:
    """The sums of spec at z and of its companion at scale * z, from one plan in one pass.

    The companion is spec with its last lower pair (b, beta) moved to
    (b + 1, beta).  Since Gamma(b + 1 + beta m) = (b + beta m) Gamma(b + beta m),
    its terms are t_m scale**m / (b + beta m), with t_m the terms of spec, so
    it runs through the driver of :func:`wright_eval` (:func:`_ratio_sums`)
    as a second accumulator on spec's plan, with its own stopping test and
    bound.  Each sum runs to tol, raised to 4 times its first term's
    relative error where tol is below that, and has the certified bound of
    :func:`wright_eval`; spec's sum is the one ``wright_eval`` returns at
    that tol, to the bit.  The printed sum's peak screen routes both sums:
    where it rules out doubles, the companion goes to the fixed-point pass
    with the same cond bits.

    None where wright_eval must serve them one by one: where it takes its
    log path (a slope that is not an integer up to 64, or a first term of
    either sum outside e**-700 to e**700), refuses z or the spec, or where
    either sum raises a package error.  ``scale`` is a positive double.
    """
    if not (spec.lower and _integer_slopes(spec)):
        return None
    try:
        _refuse(spec, z)
        plan = spec._plan
        b, beta = spec.lower[-1]
        lead, lead_err = plan.lead / b, plan.lead_err + 2.0 * UNIT
        if not _LEAD_MIN < abs(lead) < _LEAD_MAX:
            return None
        tail_start = max(plan.tail_start, _first_positive([(beta, b)]))
        companion = _Companion(b, beta, scale, lead, lead_err, max(tol, 4.0 * lead_err), tail_start)
        return _ratio_sums(spec, z, max(tol, 4.0 * plan.lead_err), companion)
    except KStruveError:
        return None


def _settle(term, total, comp, mags, rho, m, lead_err, step_ulps, tol):
    """One sum's test at step m, past its tail start with ratio bound rho < 1.

    term is t_{m+1} and total the Kahan sum of t_0 ... t_m (carry comp),
    mags the sum of their magnitudes.  Returns the EvaluationResult once the
    next term, added as well, leaves a tail and a rounding that fit
    tol * |sum|; else None while the rounding alone fits half of it, so
    the sum goes on; and the cond bits, about log2(sum |t_m| / |sum t_m|),
    once it cannot.  ConvergenceError once the sum or the sum of the
    magnitudes has left the double range.
    """
    # each t_j, j <= m, carries at most m * step_ulps and the leading
    # term's error; Kahan summation adds 2
    rounding = UNIT * (step_ulps * m + 2.0) * mags + lead_err * abs(total)
    if not math.isfinite(rounding):  # inf or nan once the terms' sum overflowed
        raise ConvergenceError(f"the sum overflowed at m={m}")
    reach = abs(total) + abs(term) / (1.0 - rho)  # bounds |sum| from here on
    if abs(term) <= (1.0 - rho) * tol * abs(total):
        # the next term and all after it are within tol: add it as well,
        # which leaves a tail of at most |t_{m+1}| rho / (1 - rho)
        total += term - comp
        mag = abs(term)
        mags += mag
        bound = mag * rho / (1.0 - rho)
        rounding = UNIT * (step_ulps * (m + 1) + 2.0) * mags + lead_err * abs(total)
        if bound + rounding <= tol * abs(total):
            return EvaluationResult(total, bound + rounding + (m + 4) * SUBNORMAL_ULP, m + 2)
    if rounding <= 0.5 * tol * reach:
        return None
    # the rounding cannot fit under tol * |value| any more
    return math.ceil(math.log2(mags / abs(total))) if total else 0


def _double(plan: _Plan, z: float, tol: float, companion=None) -> tuple:
    """t_0 * sum_m t_m / t_0 in doubles, and with a :class:`_Companion` that sum too, in one pass.

    The ratio magnitude rho is non-increasing from ``plan.tail_start`` on.
    t_0 has relative error at most ``plan.lead_err``, and each step adds at
    most ``plan.step_ulps`` ulps to a term; the companion's ratio takes 5
    roundings more.  Each sum stops by :func:`_settle`.  Returns the
    (printed, companion) outcomes: an EvaluationResult, or the cond bits
    with which that sum goes to :func:`_fixed`; the companion's is None
    without one.  ConvergenceError if a term or a sum overflows or 1000
    terms do not suffice.
    """
    lead, lead_err, step_ulps = plan.lead, plan.lead_err, plan.step_ulps
    num_forms, den_forms, tail_start = plan.num_forms, plan.den_forms, plan.tail_start
    term = lead
    total = 0.0
    comp = 0.0  # Kahan carry
    mags = 0.0  # sum of |t_m|
    done = done_c = None
    running_c = companion is not None
    if running_c:
        b, beta, scale, term_c = companion.b, companion.beta, companion.scale, companion.lead
        lead_err_c, tol_c, tail_c = companion.lead_err, companion.tol, companion.tail_start
        step_ulps_c = step_ulps + 5.0
        total_c = comp_c = mags_c = 0.0
    for m in range(_MAX_TERMS):
        num = z
        for p, q in num_forms:
            num *= p * m + q
        den = 1.0
        for p, q in den_forms:
            den *= p * m + q
        ratio = num / den
        rho = abs(ratio)
        if done is None:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            mags += abs(term)
            term *= ratio
            if not math.isfinite(term):
                raise ConvergenceError(f"term overflowed at m={m + 1}")
            if m >= tail_start and rho < 1.0:
                done = _settle(term, total, comp, mags, rho, m, lead_err, step_ulps, tol)
        if running_c:
            y = term_c - comp_c
            t = total_c + y
            comp_c = (t - total_c) - y
            total_c = t
            mags_c += abs(term_c)
            term_c *= ratio * (scale * (b + beta * m) / (b + beta * (m + 1)))
            if not math.isfinite(term_c):
                raise ConvergenceError(f"companion term overflowed at m={m + 1}")
            rho_c = scale * rho
            if m >= tail_c and rho_c < 1.0:
                done_c = _settle(term_c, total_c, comp_c, mags_c, rho_c, m, lead_err_c, step_ulps_c, tol_c)
                running_c = done_c is None
        if done is not None and not running_c:
            return done, done_c
    raise ConvergenceError(f"needed more than {_MAX_TERMS} terms for tol={tol}")


def _fixed(plan: _Plan, z: float, tol: float, cond_bits: int) -> EvaluationResult:
    """t_0 * sum_m u_m / 2**bits from :func:`fixed_terms`, with a bound on truncation and rounding.

    Every pass reads the one table ``plan.table(z)``.  ``cond_bits``
    estimates log2(sum |t_m| / |sum t_m|) and sets the working precision.
    While the fixed-point floors, not the leading term, keep the bound
    above tol * |value|, the pass is repeated with the bits that bring them
    under tol / 16, up to 4 passes.
    """
    table = plan.table(z)
    lead, lead_err = plan.lead, plan.lead_err
    for _ in range(4):
        terms, bits, tail, floors = fixed_terms(table, cond_bits, tol, _MAX_TERMS)
        total = sum(terms)
        units = tail + floors
        if total.bit_length() - bits > 1000 or not math.isfinite(units):
            break
        value = lead * (total / (1 << bits))
        if not math.isfinite(value):
            break
        error = abs(lead) * math.ldexp(units, -bits) * (1.0 + 8.0 * UNIT)
        error += abs(value) * (lead_err + 3.0 * UNIT)
        limit = tol * abs(value)
        if error <= limit:
            return EvaluationResult(value, error + (len(terms) + 2) * SUBNORMAL_ULP, len(terms))
        if abs(value) * (lead_err + 3.0 * UNIT) > 0.5 * limit:
            raise ConvergenceError(
                f"tol={tol} is below the accuracy of the leading term "
                f"(relative error {lead_err:.2e})"
            )
        # the floors dominate: add the bits that bring them under tol/16
        if total:
            shortfall = math.log2(units) - math.log2(tol / 16.0) - (total.bit_length() - 1)
        else:
            shortfall = bits
        cond_bits = max(cond_bits, 0) + max(int(shortfall), 0) + 16
    raise ConvergenceError(f"the terms cancel or grow beyond {MAX_BITS} bits of precision")


def _log_path_term(spec: WrightSpec, z: float, m: int) -> tuple[float, float, float]:
    """(log |t_m|, sign, bound on the relative rounding error of t_m) from log Gamma values."""
    log_mag, sign, size = _log_term(spec, m)
    if m > 0:
        power = m * math.log(abs(z))
        lg_fact = math.lgamma(m + 1.0)
        log_mag += power - lg_fact
        size += abs(power) + abs(lg_fact)
        if z < 0.0 and m % 2 == 1:
            sign = -sign
    count = len(spec.upper) + len(spec.lower)
    # each log within 2 ulps (plus 4 ulps absolute), the sums, exp
    return log_mag, sign, UNIT * ((6.0 + count) * size + 4.0 * (count + 1) + 2.0)


def _log_sum(spec: WrightSpec, z: float, tol: float) -> EvaluationResult:
    """Any slopes: each term from log Gamma values, with a running rounding bound.

    Each ratio is read from the logarithms, exp(log |t_m| - log |t_{m-1}|),
    so it exists where a term underflows to 0.0, and the one stopping test
    ends every sum.
    """

    def term_value(m: int) -> tuple[float, float, float]:
        """(log |t_m|, t_m, bound on its relative rounding error)."""
        log_mag, sign, err = _log_path_term(spec, z, m)
        if log_mag > _LOG_DBL_MAX:
            raise ConvergenceError(f"Fox-Wright series at z={z}: term {m} overflows")
        return log_mag, sign * math.exp(log_mag), err  # below e**-745 exp gives 0.0

    positive_from = _first_positive([(w, a) for a, w in spec.upper + spec.lower])
    total = 0.0
    comp = 0.0
    log_previous, previous, previous_err = term_value(0)
    if z == 0.0:
        return _lead_only(previous, previous_err)
    mags = 0.0
    rounding = 0.0
    steps: list[float] = []  # the latest three log |t_m / t_{m-1}|
    for m in range(1, _MAX_TERMS + 1):
        y = previous - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mags += abs(previous)
        rounding += abs(previous) * previous_err
        log_current, current, current_err = term_value(m)
        steps = steps[-2:] + [log_current - log_previous]
        rho = math.exp(min(steps[-1], 0.0))  # only a ratio below 1 is used
        window_ok = len(steps) == 3 and steps[0] >= steps[1] >= steps[2]
        if window_ok and rho < 1.0 and m >= positive_from:
            bound = abs(current) / (1.0 - rho)
            limit = tol * abs(total)
            if bound <= limit:
                rounding += abs(current) * current_err + UNIT * 2.0 * (mags + abs(current))
                error = bound + rounding
                if error <= limit:
                    y = current - comp
                    total = total + y
                    return EvaluationResult(total, error + (m + 3) * SUBNORMAL_ULP, m + 1)
                if rounding > 0.5 * limit:
                    cancellation = mags / abs(total) if total else math.inf
                    raise ConvergenceError(
                        f"Fox-Wright series at z={z}: the rounding {rounding:.2e} of terms "
                        f"computed from log Gamma values exceeds tol * |value| = {limit:.2e} "
                        f"(sum |t| / |sum t| = {cancellation:.2e})"
                    )
        log_previous, previous, previous_err = log_current, current, current_err
    raise ConvergenceError(
        f"Fox-Wright series needed more than {_MAX_TERMS} terms at z={z} for tol={tol}"
    )

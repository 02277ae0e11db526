"""Closed-form integral identities for the k-Struve function.

Both theorems integrate one Lavoie-Trottier weight on (0, 1),

    x**(a-1) (1-x)**(2b-1) (1-x/3)**(2a-1) (1-x/4)**(b-1),

times the k-Struve series S(y u(x)).  In theorem1, u = (1-x/4)(1-x)**2
and (a, b) = (alpha + mu, alpha); in theorem2, u = x (1-x/3)**2 and
(a, b) = (alpha, alpha + mu).  The corollaries are the theorems at the
(c, k) of :data:`COROLLARY_PINS`.  The weight alone integrates to
(2/3)**(2a) Gamma(a) Gamma(b) / Gamma(a+b), which
``lavoie_trottier_check`` verifies on its own, with one closed form.

Each theorem's corrected right side is derived by integrating S term by
term: term r carries (y u / 2)**(2r + lam), so it shifts the slot that u
feeds (b in theorem1, a in theorem2) by 2r + lam, and its integral is the
Lavoie-Trottier value there.  Summed, that is Gamma(alpha + mu)
k**-(nu/k + 1/2) (2/3)**(2a') (y/2)**lam times a 2 Psi 3 Fox-Wright
series, with a' = a in theorem1 and a + lam in theorem2, where each term's
(2/3)**(4r) puts 16/81 into the series argument.  The paper's printed
form, ``rhs_paper``, is that derivation with four misprints:

1. ``k_power``: the power of k is -nu/k instead of -(nu/k + 1/2);
2. ``third_lower``: the series' third lower parameter lacks its +1;
3. ``argument_scale``: theorem2's series argument lacks the
   (2/3)**4 = 16/81;
4. ``power_of_4``: theorem2's prefactor has (2/3)**(2 alpha) 3**(-2 lam)
   instead of (2/3)**(2 (alpha + lam)), a factor 4**-lam.

Each is applied once, where it acts: 1 and 4 in the prefactor of
:func:`_closed_forms`, 2 in :func:`_wright_tail`, 3 in the scale that
:func:`wright_pair` takes.  The corrected forms agree with quadrature to
full precision.

``lhs``, ``rhs`` and ``integrand`` serve either side of every theorem;
``verify`` evaluates both sides, then classifies the point by the verdict
rule that the Lavoie-Trottier check shares; ``verify_grid`` sweeps parameter
grids without aborting on individual failures.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import ConvergenceError, DomainError, KStruveError
from .fixedpoint import UNIT
from .gamma import _MIN_NORMAL, log_gamma
from .quadrature import _bad_sample, _overflow, integrate
from .results import IdentityReport, QuadratureResult, Verdict, require_normal, require_tol
from .struve import StruveParams, k_struve, k_struve_poly
from .wright import WrightSpec, wright_eval, wright_pair

IDENTITIES = ("theorem1", "theorem2", "corollary1", "corollary2")

# the default values of each grid axis, in the order of default_grid's product
DEFAULT_AXES = {
    "alpha": (0.5, 1.0, 2.0), "mu": (0.25, 1.0), "nu": (2.0, 3.0),
    "c": (1.0,), "k": (0.5, 1.0), "y": (1.0,),
}
# each corollary is its theorem at a pinned (c, k); nu is pinned in its default grid only
COROLLARY_PINS = {
    "corollary1": {"nu": 2.0, "c": 1.0, "k": 1.0},
    "corollary2": {"nu": 2.0, "c": -1.0, "k": 1.0},
}
_THEOREM_OF = {"corollary1": "theorem1", "corollary2": "theorem2"}


class TheoremParams(namedtuple("TheoremParams", "alpha mu nu c k y")):
    """Parameter point (alpha, mu, nu, c, k, y) of either theorem."""

    __slots__ = ()

    def __new__(
        cls, alpha: float, mu: float, nu: float, c: float = 1.0, k: float = 1.0, y: float = 1.0
    ):
        self = super().__new__(cls, alpha, mu, nu, c, k, y)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in self):
            raise DomainError(f"all parameters must be finite reals, got {self!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here: run the checks of __new__ on it too
        return cls(*iterable)

    @property
    def lam(self) -> float:
        """Leading series exponent nu/k + 1."""
        return self.nu / self.k + 1.0

    def validate(self, strict: bool = True) -> None:
        """Check the theorem hypotheses; strict mode enforces nu > 3k/2.

        The relaxed mode admits every nu > -3k/2 for which the two sides are
        still defined; reports carry a flag saying which regime a point is in.
        """
        if self.k <= 0.0:
            raise DomainError(f"k must be positive, got {self.k}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not math.isfinite(self.lam):
            raise DomainError(f"nu/k must be a finite double, got nu={self.nu}, k={self.k}")
        if self.alpha + self.mu <= 0.0:
            raise DomainError(f"need alpha + mu > 0, got {self.alpha + self.mu}")
        if self.alpha + self.lam <= 0.0:
            raise DomainError(f"need alpha + nu/k + 1 > 0, got {self.alpha + self.lam}")
        if self.y < 0.0 and self.lam != math.floor(self.lam):
            # (w/2)**(nu/k + 1) of a negative w has no real value
            raise DomainError(f"negative y={self.y} needs integer nu/k + 1, got {self.lam}")
        bound = 1.5 * self.k if strict else -1.5 * self.k
        label = "3k/2" if strict else "-3k/2"
        if self.nu <= bound:
            raise DomainError(f"need nu > {label}, got nu={self.nu} with k={self.k}")

    def satisfies_strict(self) -> bool:
        return self.nu > 1.5 * self.k

    def struve_params(self) -> StruveParams:
        return StruveParams(nu=self.nu, c=self.c, k=self.k)


def _weight(which: str, p: TheoremParams) -> tuple[float, float, bool]:
    """(a, b, fed_a): theorem ``which``'s Lavoie-Trottier (a, b), and whether u feeds the a slot."""
    return (
        (p.alpha + p.mu, p.alpha, False) if which == "theorem1" else (p.alpha, p.alpha + p.mu, True)
    )


def _wright_tail(p: TheoremParams, corrected: bool = False) -> WrightSpec:
    """The 2 Psi 3 series of both theorems' closed forms, as derived when ``corrected``."""
    nuk = p.nu / p.k
    # misprint 2, third_lower: the printed Gamma(a' + b') = Gamma(2 alpha + mu + lam + 2m)
    # lacks the +1
    third = 2.0 * p.alpha + p.mu + nuk + (1.0 if corrected else 0.0)
    return WrightSpec(
        upper=((p.alpha + nuk + 1.0, 2.0), (1.0, 1.0)),
        lower=((nuk + 1.5, 1.0), (1.5, 1.0), (third, 2.0)),
    )


_LOG_2_3 = math.log(2.0 / 3.0)
_LOG_3 = math.log(3.0)


def rhs(which: str, p: TheoremParams, corrected: bool = True, tol: float = 1e-12) -> float:
    """Right side of identity ``which`` at p: as printed, or re-derived when ``corrected``.

    Both forms come from one Fox-Wright pass (:func:`_closed_forms`), so at
    the same tol this form is the one :func:`verify` reports, to the bit.
    ``tol`` bounds the relative error of the Fox-Wright sum alone, and no
    tighter than a few times the accuracy of its first term
    (``WrightSpec.lead_error``), whose gamma values lose accuracy as their
    arguments grow; the prefactor's rounding, which grows with the size of
    its logarithm, comes on top.  So the value is not within tol of the exact
    closed form everywhere: at tol 1e-12 one broad-scan point of theorem1,
    at nu/k near 150, is 1.7e-12 from it, with a first term good to 1.8e-12.
    Raises ConvergenceError when (y/2)**lam, the gamma prefactor, the
    Fox-Wright sum or their product is not a normal double; only y = 0
    gives an exact 0.0.  A k that is not positive raises DomainError, as in
    :func:`lhs`, and so does a (y/2)**lam with no real value: y = 0 with
    lam < 0, or y < 0 with a fractional lam.
    """
    require_tol(tol)
    which, p = _resolve(which, p)
    if p.k <= 0.0:
        raise DomainError(f"k must be positive, got k={p.k}")
    return _closed_forms(which, p, tol, (bool(corrected),))[0]


def _closed_forms(which: str, p: TheoremParams, tol: float, forms) -> list[float]:
    """The closed forms of ``which`` at p named by ``forms`` (True: corrected), in that order.

    Each is a prefactor times the 2 Psi 3 sum of :func:`_wright_tail`.
    The prefactor's logarithm is the derived one of the module docstring,
    with misprints 1 and 4 in the printed form.  The corrected sum's terms
    are the printed ones times scale**m / (b + 2m), with scale 1 in
    theorem1 and 16/81 in theorem2 (misprint 3 leaves it out of the printed
    argument), so one :func:`wright_pair` pass on the printed spec's plan
    sums both, each to tol (no tighter than the accuracy of its first term
    allows).  Where the pair declines, :func:`wright_eval` sums each form's
    own spec.  The shared logs and ``math.pow(y/2, lam)``, whose C pow
    rules give the sign of a negative base, are taken once.  Each form
    raises as :func:`rhs` says, in the order of ``forms``.
    """
    a, _, fed_a = _weight(which, p)
    nuk = p.nu / p.k
    lam = p.lam
    # Gamma of the slot that u does not feed, alpha + mu in both theorems
    log_gamma_am = log_gamma(p.alpha + p.mu)
    log_k = math.log(p.k)
    z = -p.c * p.y * p.y / (4.0 * p.k)
    # (2/3)**(2a') with a' = a + 2r + lam in the a slot: (2/3)**(4r) scales the
    # argument; misprint 3, argument_scale, leaves that scale out of the printed one
    scale, a_fed = (16.0 / 81.0, a + lam) if fed_a else (1.0, a)
    # the power of k and the log of (2/3)**(2a'), derived and printed: misprint 1,
    # k_power, prints k**(-nu/k); misprint 4, power_of_4, prints theorem2's
    # (2/3)**(2 alpha) 3**(-2 lam), a factor 4**-lam
    derived = (nuk + 0.5, 2.0 * a_fed * _LOG_2_3)
    printed = (nuk, 2.0 * a * _LOG_2_3 - 2.0 * lam * _LOG_3 if fed_a else derived[1])
    y_power = pair = None
    values = []
    for corrected in forms:
        k_power, two_thirds = derived if corrected else printed
        try:
            if y_power is None:
                y_power = math.pow(0.5 * p.y, lam)
            gamma_factor = math.exp(log_gamma_am - k_power * log_k + two_thirds)
        except OverflowError:
            raise ConvergenceError(
                f"a factor of the {which} closed form overflows the double range"
            ) from None
        except ValueError:
            # 0 to a negative power, or a negative base to a fractional one
            raise DomainError(f"(y/2)**lam has no real value at y={p.y}, lam={lam}") from None
        if y_power == 0.0 and p.y == 0.0:
            values.append(0.0)
            continue
        prefactor = require_normal(y_power, "(y/2)**lam")
        prefactor *= require_normal(gamma_factor, "the gamma prefactor")
        if pair is None:
            pair = wright_pair(_wright_tail(p), z, tol, scale) or (None, None)
        series = pair[corrected]
        if series is None:
            spec = _wright_tail(p, corrected)
            # no tighter than the accuracy of the series' first term allows
            series = wright_eval(spec, scale * z if corrected else z, max(tol, 4.0 * spec.lead_error))
        series_value = require_normal(series.value, "the Fox-Wright sum")
        values.append(require_normal(prefactor * series_value, "the closed form"))
    return values


# the rounding of each integrand's weight and argument, in ulps of its value
_WEIGHT_ULPS = 16.0
# the computed arguments reach their exact maximum |y| or 4|y|/9 to a few ulps
_ARGUMENT_MARGIN = 1.0 + 8.0 * UNIT


def _lavoie_exponents(a: float, b: float) -> tuple[float, float, float, float]:
    """Exponents of x, 1-x, 1-x/3 and 1-x/4 in the Lavoie-Trottier weight at (a, b)."""
    return a - 1.0, 2.0 * b - 1.0, 2.0 * a - 1.0, b - 1.0


def _integrand(which: str, p: TheoremParams, tol: float):
    """(f, series_tol): the weight times S(w) of theorem ``which`` (module docstring).

    |w| is at most |y| in theorem1 and 4|y|/9 in theorem2.  The point's
    k-Struve polynomial (:func:`k_struve_poly`) is built once for that range
    (xmax).  f evaluates a node whose leading term is in range inline, with
    the operations of the polynomial's evaluator in their order, where the
    value passes its form's threshold (``inline``): w <= W by the double
    polynomial with g_min |lead| <= |value|, and w in (W, xmax] with sigma
    = 1 - (w/xmax)**2 <= sigma_max by the Taylor shift with t_min |lead| <=
    |value| (W = 8 sqrt(k/c) < xmax in the fixed-point regime only).  Each
    threshold implies the evaluator's own per-node test in that form, so
    the value is the evaluator's to the bit.  Every other node goes through
    the evaluator, and through :func:`k_struve` where that returns None:
    where the leading term is outside (1e-300, 1e300), and at y = 0.

    A node whose |w|/2 is below the normal range, where the product w has
    underflowed or lost its digits, is not a zero of S: there g = 1 +
    O(w**2) is 1 to rounding, so f is the weight times the leading term,
    (w/2)**lam scale0, taken whole in logs from x, 1 - x and y, never from
    w.  Its relative error is a few ulps of the sum of the logs'
    magnitudes, about 1e-13 at lam = 1.  A negative y (integer nu/k + 1)
    gives w < 0, which takes the sign (-1)**lam.

    Each other value has a bound of at most ``series_tol * |S(w)|``, plus
    a few subnormal spacings.  Where no polynomial exists, this raises the
    ConvergenceError of :func:`k_struve` at the range's end.
    ``series_tol`` is tol / 100, but no tighter than the leading
    coefficient allows: its error is a smooth factor across the interval,
    not quadrature noise.
    """
    require_tol(tol)
    a, b, fed_a = _weight(which, p)
    e_x, e_omx, e_third, e_quarter = _lavoie_exponents(a, b)
    sp = p.struve_params()
    series_tol = max(tol * 0.01, 4.0 * sp.lead_error)
    wmax = abs(p.y) * (4.0 / 9.0) if fed_a else abs(p.y)
    xmax = wmax * _ARGUMENT_MARGIN
    poly = k_struve_poly(sp, xmax, series_tol)
    if poly is None:
        # at y = 0 k_struve serves every node, w = 0; at any other y it raises here
        k_struve(sp, xmax, tol=series_tol)
        poly = lambda w: None
        inline = (-math.inf, math.inf, math.inf, 0.0, 0.0, 0.0, 0.0, (), 0.0, (), -1.0)
    else:
        inline = poly.inline
    w_top, g_min, t_min, power, scale0, delta, vscale, pairs, sign, shifted, sigma_max = inline
    # the Taylor shift's nodes lie in (W, xmax]; without it no node above W is inline
    t_top = xmax if shifted else -math.inf
    y = p.y
    # an underflowed node's sign and log(|y|/2) (|y|/2 may round to 0); y = 0 and a
    # negative y with a fractional power (no real value) go to k_struve
    sign_y = 1.0 if y > 0.0 else (-1.0) ** power if y < 0.0 and power.is_integer() else 0.0
    log_half_y = math.log(abs(y)) - math.log(2.0) if sign_y else 0.0
    log_scale = sp.log_scale
    xmax_sq = xmax * xmax
    log = math.log
    inf = math.inf

    def f(x: float, omx: float) -> float:
        third, quarter = 1.0 - x / 3.0, 1.0 - x / 4.0
        w = y * x * third * third if fed_a else y * quarter * omx * omx
        weight = x**e_x * omx**e_omx * third**e_third * quarter**e_quarter
        half = 0.5 * w
        if w <= w_top:
            if half >= _MIN_NORMAL:
                try:
                    lead = half**power * scale0
                except OverflowError:
                    lead = inf
                if 1e-300 < lead < 1e300:
                    if delta:
                        lead *= 1.0 + delta * log(half)
                    v = half * half * vscale
                    s = v * v
                    even = odd = 0.0
                    for a_even, a_odd in pairs:
                        even = even * s + a_even
                        odd = odd * s + a_odd
                    odd *= v
                    value = lead * (even + sign * odd)
                    if g_min * lead <= abs(value) < inf:
                        return weight * value
            elif -_MIN_NORMAL < half and sign_y:
                # log(u / 2) + log(y): u = x (1 - x/3)**2 or (1 - x/4)(1 - x)**2
                log_u = log(x) + 2.0 * log(third) if fed_a else log(quarter) + 2.0 * log(omx)
                log_half = log_half_y + log_u
                log_f = (
                    e_x * log(x) + e_omx * log(omx) + e_third * log(third) + e_quarter * log(quarter)
                    + ((power * log_half + delta * log_half) + log_scale)
                )
                return sign_y * math.exp(log_f)
        elif w <= t_top:
            sigma = (xmax - w) * (xmax + w) / xmax_sq
            if sigma <= sigma_max:
                try:
                    lead = half**power * scale0
                except OverflowError:
                    lead = inf
                if 1e-300 < lead < 1e300:
                    if delta:
                        lead *= 1.0 + delta * log(half)
                    neg = -sigma
                    acc = 0.0
                    for b in shifted:
                        acc = acc * neg + b
                    value = lead * acc
                    if t_min * lead <= abs(value) < inf:
                        return weight * value
        return weight * (poly(w) or k_struve(sp, w, tol=series_tol))[0]

    return f, series_tol


def _with_integrand_error(quad: QuadratureResult, relative: float) -> QuadratureResult:
    """quad with the integrand's own error, ``relative`` times the integral of |f|, added."""
    extra = relative * quad.abs_integral
    return QuadratureResult(
        quad.value, quad.error_estimate + extra, quad.evaluations, quad.converged, quad.abs_integral
    )


def lhs(which: str, p: TheoremParams, tol: float = 1e-10) -> QuadratureResult:
    """Quadrature of the left side of ``which``; its estimates add the integrand's series error.

    A stalled quadrature's ConvergenceError is re-raised with that error added to its ``partial``.
    """
    which, p = _resolve(which, p)
    f, series_tol = _integrand(which, p, tol)
    relative = series_tol + _WEIGHT_ULPS * UNIT
    try:
        quad = integrate(f, tol=tol, method="tanh_sinh")
    except ConvergenceError as exc:
        if exc.partial is not None:
            exc.partial = _with_integrand_error(exc.partial, relative)
        raise
    return _with_integrand_error(quad, relative)


def _partial(exc: ConvergenceError) -> tuple[QuadratureResult, str]:
    """(partial, report error) of a stalled quadrature; an exc without a partial is re-raised."""
    if exc.partial is None:
        raise exc
    return exc.partial, f"{type(exc).__name__}: {exc}"


def integrand(which: str, p: TheoremParams, x: float, tol: float = 1e-12) -> float:
    """Value of the integrand of identity ``which`` at interior point x.

    An OverflowError, such as a power of the weight leaving the double
    range, and a value that is not finite, such as a finite weight times a
    finite S(w) whose product overflows, raise NonFiniteSampleError naming
    x, as in the quadrature; the package's own errors propagate unchanged.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"integrand is defined on (0, 1), got x={x}")
    which, p = _resolve(which, p)
    f = _integrand(which, p, tol)[0]
    try:
        value = f(x, 1.0 - x)
    except OverflowError as exc:
        raise _overflow(exc, f, (x, 1.0 - x)) from None
    if not math.isfinite(value):
        raise _bad_sample(value, x)
    return value


def _resolve(which: str, p: TheoremParams) -> tuple[str, TheoremParams]:
    """Map corollaries onto the theorem they specialize, checking c and k."""
    if which not in IDENTITIES:
        raise DomainError(f"unknown identity {which!r}, expected one of {IDENTITIES}")
    pins = COROLLARY_PINS.get(which)
    if pins is None:
        return which, p
    if not (p.c == pins["c"] and p.k == pins["k"]):
        raise DomainError(
            f"{which} is the c = {pins['c']:g}, k = {pins['k']:g} case, got c={p.c}, k={p.k}"
        )
    return _THEOREM_OF[which], p


def corollary_struve(
    alpha: float, mu: float, nu: float, y: float = 1.0, tol: float = 1e-10
) -> IdentityReport:
    """First theorem specialized to the Struve function H_nu (c = k = 1)."""
    pins = COROLLARY_PINS["corollary1"]
    p = TheoremParams(alpha=alpha, mu=mu, nu=nu, c=pins["c"], k=pins["k"], y=y)
    return verify("corollary1", p, tol=tol)


def corollary_modified(
    alpha: float, mu: float, nu: float, y: float = 1.0, tol: float = 1e-10
) -> IdentityReport:
    """Second theorem specialized to the modified Struve L_nu (c = -1, k = 1)."""
    pins = COROLLARY_PINS["corollary2"]
    p = TheoremParams(alpha=alpha, mu=mu, nu=nu, c=pins["c"], k=pins["k"], y=y)
    return verify("corollary2", p, tol=tol)


def verify(
    which: str,
    p: TheoremParams,
    tol: float = 1e-10,
    threshold: float = 1e-6,
    strict: bool = True,
) -> IdentityReport:
    """Check one identity at one parameter point.

    The left side is integrated once to relative tolerance ``tol``, and both
    closed forms come from one Fox-Wright pass (:func:`_closed_forms`), each
    series summed to ``tol / 10``.  The verdict
    compares relative deviations of both closed forms against the
    quadrature value: a side is confirmed when its deviation is at most
    ``threshold``.  If the quadrature failed to converge, or its error
    estimate is itself larger than ``threshold`` relative, the point is
    INCONCLUSIVE rather than evidence either way; a quadrature that did not
    converge names its ConvergenceError in the report's ``error``, as in
    :func:`lavoie_trottier_check`.  A ConvergenceError of the integrand,
    which leaves no estimate, propagates.  A tol or threshold that is not a
    finite positive number raises DomainError.
    """
    require_tol(tol)
    require_tol(threshold)
    which, p = _resolve(which, p)
    p.validate(strict=strict)
    # a subnormal tol / 10 may round to 0; rhs's own floor, the leading term's accuracy, rules there
    rhs_tol = max(tol * 0.1, math.ulp(0.0))
    try:
        quad, error = lhs(which, p, tol=tol), None
    except ConvergenceError as exc:
        quad, error = _partial(exc)
    rhs_paper, rhs_corrected = _closed_forms(which, p, rhs_tol, (False, True))
    return _judge(quad, rhs_paper, rhs_corrected, threshold, p.satisfies_strict(), error)


def _judge(
    quad: QuadratureResult, rhs_paper: float, rhs_corrected: float, threshold: float,
    strict: bool, error: str | None,
) -> IdentityReport:
    """The report on quad against both closed forms, by the one verdict rule of every identity.

    A closed form is confirmed when its deviation from the quadrature value,
    relative to that value itself, is at most ``threshold``; no absolute
    floor enters.  A quadrature that did not converge, or whose estimate
    exceeds ``threshold`` relative, makes the point INCONCLUSIVE, and so
    does a quadrature value of 0 against a nonzero closed form: it deviates
    from it by inf.  A zero value agrees exactly with a zero closed form.
    ``strict`` and ``error`` are the report's ``strict_hypotheses`` and ``error``.
    """
    size = abs(quad.value)
    if size:
        dev_paper = abs(quad.value - rhs_paper) / size
        dev_corrected = abs(quad.value - rhs_corrected) / size
    else:
        dev_paper = math.inf if rhs_paper else 0.0
        dev_corrected = math.inf if rhs_corrected else 0.0
    zero_against_nonzero = not size and (rhs_paper or rhs_corrected)
    if not quad.converged or quad.error_estimate > threshold * size or zero_against_nonzero:
        verdict = Verdict.INCONCLUSIVE
    else:
        paper_ok = dev_paper <= threshold
        corrected_ok = dev_corrected <= threshold
        if paper_ok and corrected_ok:
            verdict = Verdict.BOTH_AGREE
        elif corrected_ok:
            verdict = Verdict.CONFIRMED_CORRECTED
        elif paper_ok:
            verdict = Verdict.CONFIRMED_PAPER
        else:
            verdict = Verdict.NEITHER
    return IdentityReport(
        lhs_value=quad.value,
        lhs_error_estimate=quad.error_estimate,
        rhs_paper=rhs_paper,
        rhs_corrected=rhs_corrected,
        rel_dev_paper=dev_paper,
        rel_dev_corrected=dev_corrected,
        verdict=verdict,
        strict_hypotheses=strict,
        error=error,
    )


def lavoie_trottier_rhs(alpha: float, beta: float) -> float:
    """Closed form (2/3)**(2 alpha) * Gamma(alpha) Gamma(beta) / Gamma(alpha+beta).

    Raises ConvergenceError when either factor or the product is not a
    normal double, the policy of the theorems' closed forms.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError(f"Lavoie-Trottier needs alpha, beta > 0, got {alpha}, {beta}")
    log_ratio = log_gamma(alpha) + log_gamma(beta) - log_gamma(alpha + beta)
    try:
        ratio = math.exp(log_ratio)
    except OverflowError:
        raise ConvergenceError(
            "a factor of the Lavoie-Trottier closed form overflows the double range"
        ) from None
    power = require_normal((2.0 / 3.0) ** (2.0 * alpha), "(2/3)**(2 alpha)")
    value = power * require_normal(ratio, "the gamma ratio")
    return require_normal(value, "the Lavoie-Trottier closed form")


def lavoie_trottier_check(alpha: float, beta: float, tol: float = 1e-10) -> IdentityReport:
    """Quadrature-versus-closed-form test of the Lavoie-Trottier integral.

    The integral int_0^1 x**(a-1) (1-x)**(2b-1) (1-x/3)**(2a-1) (1-x/4)**(b-1) dx
    is evaluated numerically and judged against :func:`lavoie_trottier_rhs`
    by the verdict rule of :func:`verify`, with ``tol`` as the threshold and
    the one closed form as both sides: BOTH_AGREE, NEITHER or INCONCLUSIVE.
    One :func:`integrate` call takes the Jacobi weight (p, q) = (a, 2b) and
    the smooth factor (1-x/3)**(2a-1) (1-x/4)**(b-1), and stops once its
    estimate is at most ``q * |value|`` with ``q = max(tol / 100, 1e-14)``;
    the estimate then gains the factor's own rounding.  The integrand is
    positive, so the integral is never zero to rounding; a quadrature that
    does not converge contributes its partial result and names its error
    as in :func:`verify`.  A closed form outside the normal double range
    raises ConvergenceError.
    """
    require_tol(tol)
    closed = lavoie_trottier_rhs(alpha, beta)
    _, _, e_third, e_quarter = _lavoie_exponents(alpha, beta)

    def smooth(x, omx):
        return (1.0 - x / 3.0) ** e_third * (1.0 - x / 4.0) ** e_quarter

    try:
        quad, error = integrate(smooth, max(tol * 1e-2, 1e-14), weight=(alpha, 2.0 * beta)), None
    except ConvergenceError as exc:
        quad, error = _partial(exc)
    # each base is within 1.5 ulps, so each power within 1.5 |exponent| + 1
    # ulps; the products, with the weight's own two powers when the whole
    # integrand goes to tanh-sinh, add at most 6 more
    factor_ulps = 2.0 * (abs(e_third) + abs(e_quarter)) + 8.0
    return _judge(_with_integrand_error(quad, factor_ulps * UNIT), closed, closed, tol, True, error)


def verify_grid(
    which: str,
    grid: Iterable[TheoremParams],
    tol: float = 1e-10,
    threshold: float = 1e-6,
    strict: bool = True,
) -> list[tuple[TheoremParams, IdentityReport]]:
    """Run ``verify`` over a parameter grid; failures become INCONCLUSIVE rows.

    A point whose evaluation raises (domain violation, pole, hard
    non-convergence) is recorded with the diagnostic in ``report.error`` and
    the sweep continues.  A tol or threshold that is not a finite positive
    number raises DomainError before the first point.
    """
    require_tol(tol)
    require_tol(threshold)
    out: list[tuple[TheoremParams, IdentityReport]] = []
    for p in grid:
        try:
            out.append((p, verify(which, p, tol=tol, threshold=threshold, strict=strict)))
        except KStruveError as exc:
            out.append(
                (
                    p,
                    IdentityReport(
                        lhs_value=None,
                        lhs_error_estimate=None,
                        rhs_paper=None,
                        rhs_corrected=None,
                        rel_dev_paper=None,
                        rel_dev_corrected=None,
                        verdict=Verdict.INCONCLUSIVE,
                        strict_hypotheses=p.satisfies_strict(),
                        error=f"{type(exc).__name__}: {exc}",
                    ),
                )
            )
    return out


def grid_axes(which: str, **axes) -> dict[str, tuple]:
    """The axes of ``default_grid``: from ``axes``, else the corollary's pin, else the default."""
    if which not in IDENTITIES:
        raise DomainError(f"unknown identity {which!r}, expected one of {IDENTITIES}")
    if not set(axes) <= set(DEFAULT_AXES):
        raise DomainError(f"grid axes are {tuple(DEFAULT_AXES)}, got {tuple(axes)}")
    pins = COROLLARY_PINS.get(which, {})
    columns = {name: (pins[name],) if name in pins else v for name, v in DEFAULT_AXES.items()}
    for name, values in axes.items():
        try:
            columns[name] = tuple(values)
        except TypeError:
            columns[name] = ()
        if not columns[name]:
            raise DomainError(f"grid axis {name!r} needs a non-empty iterable of values, got {values!r}")
    return columns


def default_grid(which: str = "theorem1", **axes) -> list[TheoremParams]:
    """The product of the :func:`grid_axes`: by default 24 points a theorem, 6 a corollary."""
    columns = grid_axes(which, **axes)
    return [TheoremParams(**dict(zip(columns, v))) for v in itertools.product(*columns.values())]

"""Closed-form integral identities for the k-Struve function.

Both theorems integrate one Lavoie-Trottier weight on (0, 1),

    x**(a-1) (1-x)**(2b-1) (1-x/3)**(2a-1) (1-x/4)**(b-1),

times the k-Struve series, whose argument is y times the weight's factors
(1-x/4)(1-x)**2 in theorem1, at (a, b) = (alpha + mu, alpha), and x
(1-x/3)**2 in theorem2, at (a, b) = (alpha, alpha + mu); the corollaries
are the theorems at the (c, k) of :data:`COROLLARY_PINS`.  Each has two
candidate right-hand sides built on a 2 Psi 3 Fox-Wright series: the
paper's, exactly as printed in the source theorem, and the corrected,
re-derived form in which the third lower parameter gains +1, the power of
k is -(nu/k + 1/2), and (for theorem2) the argument carries the (2/3)**4
factor that the substitution w -> y x (1-x/3)**2 actually produces.  The
printed series argument includes a spurious halving of the integrand
argument as well; the weight above follows the substitution used in the
proofs, which is the reading under which the corrected forms agree with
quadrature to full precision.  The weight alone integrates to
(2/3)**(2a) Gamma(a) Gamma(b) / Gamma(a+b), which
``lavoie_trottier_check`` verifies on its own, with one closed form.

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
from functools import partial

from .errors import ConvergenceError, DomainError, KStruveError
from .fixedpoint import UNIT
from .gamma import log_gamma
from .quadrature import integrate, require_tol
from .results import IdentityReport, QuadratureResult, Verdict, require_normal
from .struve import StruveParams, k_struve, k_struve_poly
from .wright import WrightSpec, wright_eval

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


def _signed_power(base: float, exponent: float) -> float:
    """base**exponent for real base, restricted to real-valued results."""
    if base > 0.0:
        return base ** exponent
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        if exponent == 0.0:
            return 1.0
        raise DomainError(f"0.0 raised to negative power {exponent}")
    if exponent != math.floor(exponent):
        raise DomainError(f"negative base {base} needs an integer exponent, got {exponent}")
    sign = 1.0 if exponent % 2.0 == 0.0 else -1.0
    return sign * (-base) ** exponent


def _wright_tail(p: TheoremParams, corrected: bool) -> WrightSpec:
    nuk = p.nu / p.k
    third = 2.0 * p.alpha + p.mu + nuk + (1.0 if corrected else 0.0)
    return WrightSpec(
        upper=((p.alpha + nuk + 1.0, 2.0), (1.0, 1.0)),
        lower=((nuk + 1.5, 1.0), (1.5, 1.0), (third, 2.0)),
    )


def rhs(which: str, p: TheoremParams, corrected: bool = True, tol: float = 1e-12) -> float:
    """Right side of identity ``which`` at p: as printed, or re-derived when ``corrected``.

    Raises ConvergenceError when (y/2)**lam, the gamma prefactor, the
    Fox-Wright sum or their product is not a normal double; only y = 0
    gives an exact 0.0.
    """
    require_tol(tol)
    which, p = _resolve(which, p)
    nuk = p.nu / p.k
    lam = p.lam
    log_pref = log_gamma(p.alpha + p.mu)
    if corrected:
        log_pref -= (nuk + 0.5) * math.log(p.k)
        if which == "theorem1":
            log_pref += 2.0 * (p.alpha + p.mu) * math.log(2.0 / 3.0)
            z = -p.c * p.y * p.y / (4.0 * p.k)
        else:
            log_pref += 2.0 * (p.alpha + lam) * math.log(2.0 / 3.0)
            z = -(16.0 / 81.0) * p.c * p.y * p.y / (4.0 * p.k)
    else:
        log_pref -= nuk * math.log(p.k)
        z = -p.c * p.y * p.y / (4.0 * p.k)
        if which == "theorem1":
            log_pref += 2.0 * (p.alpha + p.mu) * math.log(2.0 / 3.0)
        else:
            log_pref += 2.0 * p.alpha * math.log(2.0 / 3.0) - (2.0 * nuk + 2.0) * math.log(3.0)
    try:
        y_power = _signed_power(0.5 * p.y, lam)
        scale = math.exp(log_pref)
    except OverflowError:
        raise ConvergenceError(
            f"a factor of the {which} closed form overflows the double range"
        ) from None
    if y_power == 0.0 and p.y == 0.0:
        return 0.0
    prefactor = require_normal(y_power, "(y/2)**lam")
    prefactor *= require_normal(scale, "the gamma prefactor")
    spec = _wright_tail(p, corrected)
    # no tighter than the accuracy of the series' first term allows
    series = wright_eval(spec, z, tol=max(tol, 4.0 * spec.lead_error))
    series_value = require_normal(series.value, "the Fox-Wright sum")
    return require_normal(prefactor * series_value, "the closed form")


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
    k-Struve polynomial (:func:`k_struve_poly`) is built once for that range,
    or is :func:`k_struve` itself when there is none, and f calls
    :func:`k_struve` wherever the polynomial returns None; either way each
    value has the error bound of :func:`k_struve` at ``series_tol``, at most
    ``max(series_tol * |S(w)|, 1e-280)``.  ``series_tol`` is tol / 100, but
    no tighter than the leading coefficient allows: its error is a smooth
    factor across the interval, not quadrature noise.
    """
    require_tol(tol)
    first = which == "theorem1"
    a, b = (p.alpha + p.mu, p.alpha) if first else (p.alpha, p.alpha + p.mu)
    e_x, e_omx, e_third, e_quarter = _lavoie_exponents(a, b)
    sp = p.struve_params()
    series_tol = max(tol * 0.01, 4.0 * sp.lead_error)
    wmax = abs(p.y) if first else abs(p.y) * (4.0 / 9.0)
    poly = k_struve_poly(sp, wmax * _ARGUMENT_MARGIN, series_tol)
    poly = poly or partial(k_struve, sp, tol=series_tol)
    y = p.y

    # the argument's form is chosen here, once per point, not at each node
    if first:
        def f(x: float, omx: float) -> float:
            third, quarter = 1.0 - x / 3.0, 1.0 - x / 4.0
            w = y * quarter * omx * omx
            weight = x**e_x * omx**e_omx * third**e_third * quarter**e_quarter
            return weight * (poly(w) or k_struve(sp, w, tol=series_tol))[0]
    else:
        def f(x: float, omx: float) -> float:
            third, quarter = 1.0 - x / 3.0, 1.0 - x / 4.0
            w = y * x * third * third
            weight = x**e_x * omx**e_omx * third**e_third * quarter**e_quarter
            return weight * (poly(w) or k_struve(sp, w, tol=series_tol))[0]

    return f, series_tol


def _with_integrand_error(quad: QuadratureResult, relative: float) -> QuadratureResult:
    """quad with the integrand's own error, ``relative`` times the integral of |f|, added."""
    extra = relative * quad.abs_integral
    return QuadratureResult(
        quad.value, quad.error_estimate + extra, quad.evaluations, quad.converged, quad.abs_integral
    )


def lhs(which: str, p: TheoremParams, tol: float = 1e-10) -> QuadratureResult:
    """Quadrature of the left side of ``which``; its estimates add the integrand's series error."""
    which, p = _resolve(which, p)
    f, series_tol = _integrand(which, p, tol)
    relative = series_tol + _WEIGHT_ULPS * UNIT
    try:
        quad = integrate(f, tol=tol, method="tanh_sinh")
    except ConvergenceError as exc:
        if exc.partial is None:
            raise
        raise ConvergenceError(
            str(exc), partial=_with_integrand_error(exc.partial, relative)
        ) from None
    return _with_integrand_error(quad, relative)


def integrand(which: str, p: TheoremParams, x: float, tol: float = 1e-12) -> float:
    """Value of the integrand of identity ``which`` at interior point x."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"integrand is defined on (0, 1), got x={x}")
    which, p = _resolve(which, p)
    return _integrand(which, p, tol)[0](x, 1.0 - x)


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

    The left side is integrated once to relative tolerance ``tol`` and each
    closed form sums its Fox-Wright series once to ``tol / 10``.  The verdict
    compares relative deviations of both closed forms against the
    quadrature value: a side is confirmed when its deviation is at most
    ``threshold``.  If the quadrature failed to converge, or its error
    estimate is itself larger than ``threshold`` relative, the point is
    INCONCLUSIVE rather than evidence either way.  A ConvergenceError of the
    integrand itself, which leaves no estimate, propagates.
    """
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(threshold) and threshold > 0.0):
        raise DomainError(f"tol and threshold must be positive, got {tol!r}, {threshold!r}")
    which, p = _resolve(which, p)
    p.validate(strict=strict)
    # a subnormal tol / 10 may round to 0; rhs's own floor, the leading term's accuracy, rules there
    rhs_tol = max(tol * 0.1, math.ulp(0.0))
    try:
        quad = lhs(which, p, tol=tol)
    except ConvergenceError as exc:
        if exc.partial is None:
            raise  # the integrand failed: there is no estimate to judge
        quad = exc.partial
    rhs_paper = rhs(which, p, corrected=False, tol=rhs_tol)
    rhs_corrected = rhs(which, p, corrected=True, tol=rhs_tol)
    return _judge(quad, rhs_paper, rhs_corrected, threshold, p.satisfies_strict())


def _judge(
    quad: QuadratureResult, rhs_paper: float, rhs_corrected: float, threshold: float, strict: bool
) -> IdentityReport:
    """The report on quad against both closed forms, by the one verdict rule of every identity.

    A closed form is confirmed when its deviation from the quadrature value,
    relative to that value, is at most ``threshold``.  A quadrature that did
    not converge, or whose estimate exceeds ``threshold`` relative, makes
    the point INCONCLUSIVE.  ``strict`` is the report's ``strict_hypotheses``.
    """
    denom = max(abs(quad.value), 1e-300)
    dev_paper = abs(quad.value - rhs_paper) / denom
    dev_corrected = abs(quad.value - rhs_corrected) / denom
    if not quad.converged or quad.error_estimate > threshold * denom:
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
    estimate is at most ``max(q * |value|, 1e-280)`` with ``q = max(tol /
    100, 1e-14)``; the estimate then gains the factor's own rounding.  The
    integrand is positive, so the integral is never zero to rounding; a
    quadrature that does not converge contributes its partial result.  A
    closed form outside the normal double range raises ConvergenceError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be a finite positive number, got {tol!r}")
    closed = lavoie_trottier_rhs(alpha, beta)
    _, _, e_third, e_quarter = _lavoie_exponents(alpha, beta)

    def smooth(x, omx):
        return (1.0 - x / 3.0) ** e_third * (1.0 - x / 4.0) ** e_quarter

    try:
        quad = integrate(smooth, tol=max(tol * 1e-2, 1e-14), weight=(alpha, 2.0 * beta))
    except ConvergenceError as exc:
        quad = exc.partial
    # each base is within 1.5 ulps, so each power within 1.5 |exponent| + 1
    # ulps; the products, with the weight's own two powers when the whole
    # integrand goes to tanh-sinh, add at most 6 more
    factor_ulps = 2.0 * (abs(e_third) + abs(e_quarter)) + 8.0
    return _judge(_with_integrand_error(quad, factor_ulps * UNIT), closed, closed, tol, True)


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
    the sweep continues.
    """
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

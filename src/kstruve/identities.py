"""Closed-form integral identities for the k-Struve function.

Two theorems are checked, both of Lavoie-Trottier type on (0, 1):

* theorem1:  weight x**(a+u-1) (1-x)**(2a-1) (1-x/3)**(2(a+u)-1)
  (1-x/4)**(a-1), series argument y (1-x/4) (1-x)**2;
* theorem2:  weight x**(a-1) (1-x)**(2(a+u)-1) (1-x/3)**(2a-1)
  (1-x/4)**(a+u-1), series argument y x (1-x/3)**2

(a = alpha, u = mu).  Each has two candidate right-hand sides built on a
2 Psi 3 Fox-Wright series: ``rhs_paper`` is the closed form exactly as
printed in the source theorem, and ``rhs_corrected`` is the re-derived form
in which the third lower parameter gains +1, the power of k is
-(nu/k + 1/2), and (for theorem2) the argument carries the (2/3)**4 factor
that the substitution w -> y x (1-x/3)**2 actually produces.  The printed
series argument includes a spurious halving of the integrand argument as
well; the weights above follow the substitution used in the proofs, which is
the reading under which the corrected forms agree with quadrature to full
precision.

``verify`` evaluates the left side by adaptive quadrature and both right
sides by series, then classifies the point; ``verify_grid`` sweeps parameter
grids without aborting on individual failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConvergenceError, DomainError, KStruveError
from .gamma import log_gamma
from .quadrature import integrate, select_method
from .results import IdentityReport, QuadratureResult, Verdict
from .struve import StruveParams, k_struve
from .wright import WrightSpec, wright_eval

IDENTITIES = ("theorem1", "theorem2", "corollary1", "corollary2")

_DEFAULT_ALPHAS = (0.5, 1.0, 2.0)
_DEFAULT_MUS = (0.25, 1.0)
_DEFAULT_NUS = (2.0, 3.0)
_DEFAULT_KS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class TheoremParams:
    """Parameter point (alpha, mu, nu, c, k, y) of either theorem."""

    alpha: float
    mu: float
    nu: float
    c: float = 1.0
    k: float = 1.0
    y: float = 1.0

    def __post_init__(self):
        fields = (self.alpha, self.mu, self.nu, self.c, self.k, self.y)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in fields):
            raise DomainError(f"all parameters must be finite reals, got {self!r}")

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
        if self.alpha + self.mu <= 0.0:
            raise DomainError(f"need alpha + mu > 0, got {self.alpha + self.mu}")
        if self.alpha + self.lam <= 0.0:
            raise DomainError(f"need alpha + nu/k + 1 > 0, got {self.alpha + self.lam}")
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


def _rhs(p: TheoremParams, which: str, corrected: bool, tol: float) -> float:
    """Common evaluator for all four closed forms."""
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
    y_power = _signed_power(0.5 * p.y, lam)
    if y_power == 0.0:
        return 0.0
    spec = _wright_tail(p, corrected)
    # no tighter than the accuracy of the series' first term allows
    series = wright_eval(spec, z, tol=max(tol, 4.0 * spec.lead_error))
    return y_power * math.exp(log_pref) * series.value


def theorem1_rhs_paper(p: TheoremParams, tol: float = 1e-12) -> float:
    """Right side of the first theorem exactly as printed."""
    return _rhs(p, "theorem1", corrected=False, tol=tol)


def theorem1_rhs_corrected(p: TheoremParams, tol: float = 1e-12) -> float:
    """Re-derived right side of the first theorem."""
    return _rhs(p, "theorem1", corrected=True, tol=tol)


def theorem2_rhs_paper(p: TheoremParams, tol: float = 1e-12) -> float:
    """Right side of the second theorem exactly as printed."""
    return _rhs(p, "theorem2", corrected=False, tol=tol)


def theorem2_rhs_corrected(p: TheoremParams, tol: float = 1e-12) -> float:
    """Re-derived right side of the second theorem."""
    return _rhs(p, "theorem2", corrected=True, tol=tol)


def theorem1_integrand(p: TheoremParams, x: float, tol: float = 1e-12) -> float:
    """Value of the first theorem's integrand at interior point x."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"integrand is defined on (0, 1), got x={x}")
    return _integrand1(p, tol)(x, 1.0 - x)


def theorem2_integrand(p: TheoremParams, x: float, tol: float = 1e-12) -> float:
    """Value of the second theorem's integrand at interior point x."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"integrand is defined on (0, 1), got x={x}")
    return _integrand2(p, tol)(x, 1.0 - x)


def _series_tol(sp: StruveParams, tol: float) -> float:
    """Integrand series tolerance: tol / 100, but no tighter than the leading term allows.

    The leading coefficient's error is a smooth factor across the interval,
    not quadrature noise, so it need not sit below tol / 100.
    """
    return max(tol * 0.01, 4.0 * sp.lead_error)


def _integrand1(p: TheoremParams, tol: float):
    sp = p.struve_params()
    series_tol = _series_tol(sp, tol)

    def f(x: float, omx: float) -> float:
        weight = (
            x ** (p.alpha + p.mu - 1.0)
            * omx ** (2.0 * p.alpha - 1.0)
            * (1.0 - x / 3.0) ** (2.0 * (p.alpha + p.mu) - 1.0)
            * (1.0 - x / 4.0) ** (p.alpha - 1.0)
        )
        w = p.y * (1.0 - x / 4.0) * omx * omx
        return weight * k_struve(sp, w, tol=series_tol).value

    return f


def _integrand2(p: TheoremParams, tol: float):
    sp = p.struve_params()
    series_tol = _series_tol(sp, tol)

    def f(x: float, omx: float) -> float:
        q = 1.0 - x / 3.0
        weight = (
            x ** (p.alpha - 1.0)
            * omx ** (2.0 * (p.alpha + p.mu) - 1.0)
            * q ** (2.0 * p.alpha - 1.0)
            * (1.0 - x / 4.0) ** (p.alpha + p.mu - 1.0)
        )
        return weight * k_struve(sp, p.y * x * q * q, tol=series_tol).value

    return f


def theorem1_lhs(p: TheoremParams, tol: float = 1e-10) -> QuadratureResult:
    """Quadrature of the first theorem's integral over (0, 1)."""
    method = select_method(p.alpha + p.mu - 1.0, 2.0 * p.alpha - 1.0)
    return integrate(_integrand1(p, tol), tol=tol, method=method)


def theorem2_lhs(p: TheoremParams, tol: float = 1e-10) -> QuadratureResult:
    """Quadrature of the second theorem's integral over (0, 1)."""
    method = select_method(p.alpha - 1.0, 2.0 * (p.alpha + p.mu) - 1.0)
    return integrate(_integrand2(p, tol), tol=tol, method=method)


def _resolve(which: str, p: TheoremParams) -> tuple[str, TheoremParams]:
    """Map corollaries onto the theorem they specialize, checking c and k."""
    if which not in IDENTITIES:
        raise DomainError(f"unknown identity {which!r}, expected one of {IDENTITIES}")
    if which == "corollary1":
        if not (p.c == 1.0 and p.k == 1.0):
            raise DomainError(f"corollary1 is the c = k = 1 case, got c={p.c}, k={p.k}")
        return "theorem1", p
    if which == "corollary2":
        if not (p.c == -1.0 and p.k == 1.0):
            raise DomainError(f"corollary2 is the c = -1, k = 1 case, got c={p.c}, k={p.k}")
        return "theorem2", p
    return which, p


def corollary_struve(
    alpha: float, mu: float, nu: float, y: float = 1.0, tol: float = 1e-10
) -> IdentityReport:
    """First theorem specialized to the Struve function H_nu (c = k = 1)."""
    p = TheoremParams(alpha=alpha, mu=mu, nu=nu, c=1.0, k=1.0, y=y)
    return verify("corollary1", p, tol=tol)


def corollary_modified(
    alpha: float, mu: float, nu: float, y: float = 1.0, tol: float = 1e-10
) -> IdentityReport:
    """Second theorem specialized to the modified Struve L_nu (c = -1, k = 1)."""
    p = TheoremParams(alpha=alpha, mu=mu, nu=nu, c=-1.0, k=1.0, y=y)
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
    lhs_fn = theorem1_lhs if which == "theorem1" else theorem2_lhs
    rhs_tol = tol * 0.1
    try:
        quad = lhs_fn(p, tol=tol)
    except ConvergenceError as exc:
        if exc.partial is None:
            raise  # the integrand failed: there is no estimate to judge
        quad = exc.partial
    rhs_paper = _rhs(p, which, corrected=False, tol=rhs_tol)
    rhs_corrected = _rhs(p, which, corrected=True, tol=rhs_tol)
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
        strict_hypotheses=p.satisfies_strict(),
    )


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


def default_grid(
    which: str = "theorem1",
    alphas: Sequence[float] = _DEFAULT_ALPHAS,
    mus: Sequence[float] = _DEFAULT_MUS,
    nus: Sequence[float] = _DEFAULT_NUS,
    ks: Sequence[float] = _DEFAULT_KS,
    c: float = 1.0,
    y: float = 1.0,
) -> list[TheoremParams]:
    """Deterministic default sweep: the cartesian product filtered to strict points.

    With the stock values the filter nu > 3k/2 keeps k in {0.5, 1} only,
    giving 24 points per theorem.  Corollaries pin c and k, leaving the
    6-point alpha x mu product at nu = 2.
    """
    if which not in IDENTITIES:
        raise DomainError(f"unknown identity {which!r}, expected one of {IDENTITIES}")
    points: list[TheoremParams] = []
    if which in ("corollary1", "corollary2"):
        c_fixed = 1.0 if which == "corollary1" else -1.0
        for alpha in alphas:
            for mu in mus:
                points.append(TheoremParams(alpha=alpha, mu=mu, nu=2.0, c=c_fixed, k=1.0, y=y))
        return points
    for alpha in alphas:
        for mu in mus:
            for nu in nus:
                for k in ks:
                    if nu > 1.5 * k:
                        points.append(TheoremParams(alpha=alpha, mu=mu, nu=nu, c=c, k=k, y=y))
    return points

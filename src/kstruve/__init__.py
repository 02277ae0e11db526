"""Generalized k-Struve special functions and numerical identity verification.

The package evaluates the k-deformed gamma function, the generalized
k-Struve series (with the classical Struve H and modified Struve L as
special cases) and the Fox-Wright series p Psi q, and cross-checks
closed-form integral identities built from them against adaptive quadrature.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    KStruveError,
    NonFiniteSampleError,
    OverflowRangeError,
    PoleError,
    UsageError,
)
from .gamma import gamma, k_gamma, log_abs_gamma, log_gamma
from .identities import (
    IDENTITIES,
    TheoremParams,
    corollary_modified,
    corollary_struve,
    default_grid,
    integrand,
    lavoie_trottier_check,
    lavoie_trottier_rhs,
    lhs,
    rhs,
    verify,
    verify_grid,
)
from .quadrature import integrate
from .results import EvaluationResult, IdentityReport, QuadratureResult, Verdict
from .struve import StruveParams, k_struve, struve_h, struve_l
from .wright import WrightSpec, convergence_index, wright_eval

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EvaluationResult",
    "IDENTITIES",
    "IdentityReport",
    "KStruveError",
    "NonFiniteSampleError",
    "OverflowRangeError",
    "PoleError",
    "QuadratureResult",
    "StruveParams",
    "TheoremParams",
    "UsageError",
    "Verdict",
    "WrightSpec",
    "convergence_index",
    "corollary_modified",
    "corollary_struve",
    "default_grid",
    "gamma",
    "integrand",
    "integrate",
    "k_gamma",
    "k_struve",
    "lavoie_trottier_check",
    "lavoie_trottier_rhs",
    "lhs",
    "log_abs_gamma",
    "log_gamma",
    "rhs",
    "struve_h",
    "struve_l",
    "verify",
    "verify_grid",
    "wright_eval",
]

"""Test-only oracles: slow, independent evaluations that cross-check the library."""

import math

from kstruve.errors import ConvergenceError, DomainError
from kstruve.gamma import _LOG_DBL_MAX
from kstruve.quadrature import integrate


def k_gamma_integral_oracle(z: float, k: float, tol: float = 1e-10) -> float:
    """Evaluate Gamma_k(z) = int_0^inf t**(z-1) exp(-t**k / k) dt directly.

    Deliberately independent of :func:`k_gamma`: the semi-infinite range is
    folded onto (0, 1) by t = u / (1 - u) and handed to the tanh-sinh rule,
    which absorbs the u**(z-1) endpoint singularity for z < 1.  Used as a
    ground-truth cross-check; too slow for production evaluation.
    """
    if not (z > 0.0 and k > 0.0):
        raise DomainError(f"integral representation needs z > 0 and k > 0, got z={z}, k={k}")

    def folded(u: float, omu: float) -> float:
        # log-space guards: t**k overflows long before the exp() recovers,
        # and the Jacobian 1/(1-u)**2 blows up at the right endpoint
        log_t = math.log(u) - math.log(omu)
        if k * log_t > _LOG_DBL_MAX:
            return 0.0
        log_f = (z - 1.0) * log_t - math.exp(k * log_t) / k - 2.0 * math.log(omu)
        if log_f < -745.0:
            return 0.0
        return math.exp(log_f)

    try:
        return integrate(folded, tol=tol, method="tanh_sinh").value
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"k_gamma integral for z={z}, k={k} did not reach tol={tol}",
            partial=exc.partial,
        ) from None

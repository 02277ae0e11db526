"""Test-only oracles: slow, independent evaluations that cross-check the library."""

import math

from kstruve.errors import ConvergenceError, DomainError
from kstruve.gamma import _LOG_DBL_MAX, gamma
from kstruve.quadrature import (
    _TS_LEVELS,
    _TS_MAX_LEVEL,
    _bad_sample,
    _ts_level,
    integrate,
)
from kstruve.results import QuadratureResult
from kstruve.struve import struve_h


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


def tanh_sinh_pair_rule(f, tol: float) -> QuadratureResult:
    """``integrate(f, tol, "tanh_sinh")`` with the pair truncation rule, a reference.

    A rule the package replaced: a level ends once the weighted sum of a
    node pair, w (f(1 - x) + f(x)), is at most 1e-17 of the level's scale at
    two ``past_two`` nodes in a row, so the faster-decaying tail is sampled
    until the slower one dies too.  It walks the package's node tables with
    the package's sums and stopping tests, and its estimate is the change
    between levels alone.  The package's rule cuts at max(1e-17, tol / 100)
    instead, samples each side from level 2 on up to the t located at
    levels 0 and 1, and adds a tail term to its estimate, so it no longer
    returns this rule's bits: where this rule converges, it converges too,
    within the two estimates and with no more evaluations.
    """
    isfinite = math.isfinite
    f_mid = f(0.5, 0.5)
    if not isfinite(f_mid):
        raise _bad_sample(f_mid, 0.5)
    evaluations = 1
    level_sum = (math.pi / 4.0) * f_mid
    level_abs = abs(level_sum)
    previous = previous_abs = floor = 0.0
    for level in range(_TS_MAX_LEVEL + 1):
        h = 0.5**level
        nodes = _TS_LEVELS[level]
        if nodes is None:
            nodes = _TS_LEVELS[level] = _ts_level(level)
        previous_scale = abs(previous) / h
        tiny_run = 0
        for small, big, weight, past_two in nodes:
            f_big = f(big, small)
            if not isfinite(f_big):
                raise _bad_sample(f_big, big)
            f_small = f(small, big)
            if not isfinite(f_small):
                raise _bad_sample(f_small, small)
            evaluations += 2
            contrib = weight * (f_big + f_small)
            level_sum += contrib
            level_abs += weight * (abs(f_big) + abs(f_small))
            if past_two and abs(contrib) <= 1e-17 * max(abs(level_sum), previous_scale):
                tiny_run += 1
                if tiny_run >= 2:
                    break
            else:
                tiny_run = 0
        total = 0.5 * previous + h * level_sum
        total_abs = 0.5 * previous_abs + h * level_abs
        estimate = abs(total - previous)
        previous, previous_abs = total, total_abs
        if level >= 2 and estimate <= tol * abs(total):
            return QuadratureResult(
                total, max(estimate, 1.1e-16 * abs(total)), evaluations, True, total_abs
            )
        if not level:
            floor = 50.0 * 2.220446049250313e-16 * total_abs
        if level >= 2 and estimate <= floor:
            raise ConvergenceError(
                f"tanh_sinh estimate {estimate:.3e} is below the rounding floor "
                f"{floor:.3e} but above tol * |value|",
                partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
            )
        level_sum = level_abs = 0.0

    raise ConvergenceError(
        f"tanh_sinh stalled at estimate {estimate:.3e} after level {_TS_MAX_LEVEL}",
        partial=QuadratureResult(total, estimate, evaluations, False, total_abs),
    )


def jacobi_moment_oracle(p: float, q: float, k: int, digits: int = 50):
    """m_k = int x**(p-1) (1-x)**(q-1) T_k(2x - 1) dx / B(p, q), summed exactly in mpmath.

    T_k(1 - 2u) = 2F1(-k, k; 1/2; u) with u = 1 - x, and u**j averages to
    (q)_j / (p + q)_j under the weight, so m_k is the terminating sum
    sum_j (-k)_j (k)_j / ((1/2)_j j!) (q)_j / (p + q)_j at the exact double
    inputs.  Independent of the package's recurrence.
    """
    import mpmath

    with mpmath.workdps(digits):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        total = term = mpmath.mpf(1)
        for j in range(k):
            term *= (j - k) * (k + j) * (q + j) / ((j + mpmath.mpf(1) / 2) * (j + 1) * (p + q + j))
            total += term
        return total


def struve_ode_residual(nu: float, x: float, step: float = 1e-4, tol: float = 1e-12) -> float:
    """Absolute residual of the Struve differential equation at x.

    H_nu satisfies  x^2 y'' + x y' + (x^2 - nu^2) y = 4 (x/2)**(nu+1)
    / (sqrt(pi) Gamma(nu + 1/2)).  Derivatives are approximated with central
    differences of width ``step``, so the residual carries an O(step**2)
    discretization error on top of series rounding; it is a sanity probe,
    not a certified quantity.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step!r}")
    if x <= 2.0 * step:
        raise DomainError(f"need x > 2*step to difference safely, got x={x}, step={step}")
    y_minus = struve_h(nu, x - step, tol=tol).value
    y_center = struve_h(nu, x, tol=tol).value
    y_plus = struve_h(nu, x + step, tol=tol).value
    d1 = (y_plus - y_minus) / (2.0 * step)
    d2 = (y_plus - 2.0 * y_center + y_minus) / (step * step)
    forcing = 4.0 * (0.5 * x) ** (nu + 1.0) / (math.sqrt(math.pi) * gamma(nu + 0.5))
    return abs(x * x * d2 + x * d1 + (x * x - nu * nu) * y_center - forcing)


def mp_k_struve(mp, nu, c, k, x):
    """The k-Struve series at the exact double inputs, summed in the mpmath module ``mp``.

    Independent of the package: the terms come from mpmath's gamma and the
    exact ratio, with enough digits for terms that outgrow the sum.
    """
    nu, c, k, x = (mp.mpf(v) for v in (nu, c, k, x))
    # the terms outgrow the sum by about e**(x sqrt(|c|/k)): carry those digits too
    digits = 40 + int(float(x * mp.sqrt(abs(c) / k)) / 2.3)
    with mp.workdps(digits):
        base = nu / k + mp.mpf(3) / 2
        term = (x / 2) ** (base - mp.mpf(1) / 2) / (
            k ** (base - 1) * mp.gamma(base) * mp.gamma(mp.mpf(3) / 2)
        )
        ratio = -c * (x / 2) ** 2 / k
        total, r = mp.mpf(0), 0
        while r < 6 or abs(term) > abs(total) * mp.mpf(10) ** -35:
            total += term
            term *= ratio / ((r + base) * (r + mp.mpf(3) / 2))
            r += 1
        return +total


# the printed theorems' misprints, numbered as in the docstring of kstruve.identities
MISPRINTS = ("k_power", "third_lower", "argument_scale", "power_of_4")


def _mp_y_power(mp, y, lam):
    """(y/2)**lam in the mpmath module ``mp``; a negative y needs an integer lam."""
    if y < 0:
        assert lam == int(lam), "a negative y needs an integer lam"
        return (-1) ** int(lam) * (-y / 2) ** lam
    return (y / 2) ** lam


def mp_closed_form(mp, which, corrected, alpha, mu, nu, c, k, y, misprints=None):
    """A closed form of ``which`` at the exact double inputs, in the mpmath module ``mp``.

    With lam = nu/k + 1, b = 2 alpha + mu + nu/k and z = -c y**2 / (4k),
    the right side is a prefactor times (y/2)**lam times the 2 Psi 3 sum

        sum_m Gamma(alpha + nu/k + 1 + 2m) w**m
              / (Gamma(nu/k + 3/2 + m) Gamma(3/2 + m) Gamma(b' + 2m)),

    each term from mpmath's gamma.  The derived form has b' = b + 1 and the
    prefactor Gamma(alpha + mu) k**(-(nu/k + 1/2)) times (2/3)**(2 (alpha +
    mu)), w = z in theorem1, or times (2/3)**(2 (alpha + lam)), w = (16/81) z
    in theorem2.  ``misprints`` names the edits of :data:`MISPRINTS` made to
    it: ``k_power`` prints k**(-nu/k), ``third_lower`` b' = b, and in
    theorem2 ``argument_scale`` w = z and ``power_of_4`` (2/3)**(2 alpha)
    3**(-2 lam).  By default the ``corrected`` form has none and the
    printed form all four.  The terms can outgrow the sum by about
    e**(|y| sqrt(|c|/k)), so the sum carries 80 digits beyond that.
    """
    misprints = set((() if corrected else MISPRINTS) if misprints is None else misprints)
    assert misprints <= set(MISPRINTS), misprints
    with mp.workdps(80 + int(abs(y) * math.sqrt(abs(c) / k) / 2.3)):
        alpha, mu, nu, c, k, y = (mp.mpf(v) for v in (alpha, mu, nu, c, k, y))
        nuk = nu / k
        lam = nuk + 1
        half = mp.mpf(1) / 2
        third = 2 * alpha + mu + nuk + (0 if "third_lower" in misprints else 1)
        w = -c * y * y / (4 * k)
        front = mp.gamma(alpha + mu) * k ** -(nuk + (0 if "k_power" in misprints else half))
        if which == "theorem1":
            front *= (mp.mpf(2) / 3) ** (2 * (alpha + mu))
        else:
            if "power_of_4" in misprints:
                front *= (mp.mpf(2) / 3) ** (2 * alpha) * mp.mpf(3) ** (-2 * lam)
            else:
                front *= (mp.mpf(2) / 3) ** (2 * (alpha + lam))
            if "argument_scale" not in misprints:
                w *= mp.mpf(16) / 81
        total, m = mp.mpf(0), 0
        while True:
            term = mp.gamma(alpha + nuk + 1 + 2 * m) * w**m / (
                mp.gamma(nuk + 3 * half + m) * mp.gamma(3 * half + m) * mp.gamma(third + 2 * m)
            )
            total += term
            m += 1
            if m > 5 and abs(term) <= abs(total) * mp.mpf(10) ** -40:
                break
        return +(front * _mp_y_power(mp, y, lam) * total)


def mp_term_by_term(mp, which, alpha, mu, nu, c, k, y, digits=60):
    """The derived closed form of ``which``, as the k-Struve series integrated term by term.

    Independent of the 2 Psi 3 form: term r of the k-Struve series, s_r
    (w/2)**(2r + lam) with s_r = (-c/k)**r / (k**(nu/k + 1/2)
    Gamma(nu/k + 3/2 + r) Gamma(3/2 + r)), integrates against the
    Lavoie-Trottier weight LT(a, b) to s_r (y/2)**(2r + lam) LT(a', b'),
    with the slot that u(x) feeds shifted by 2r + lam: (a, b + 2r + lam) in
    theorem1, where u = (1-x/4)(1-x)**2 and (a, b) = (alpha + mu, alpha),
    and (a + 2r + lam, b) in theorem2, where u = x (1-x/3)**2 and (a, b) =
    (alpha, alpha + mu).  LT(a', b') = (2/3)**(2a') B(a', b').  The sum is
    taken at ``digits`` digits beyond the terms' growth, e**(|y| sqrt(|c|/k)).
    """
    with mp.workdps(digits + int(abs(y) * math.sqrt(abs(c) / k) / 2.3)):
        alpha, mu, nu, c, k, y = (mp.mpf(v) for v in (alpha, mu, nu, c, k, y))
        nuk = nu / k
        lam = nuk + 1
        half = mp.mpf(1) / 2
        a, b = (alpha + mu, alpha) if which == "theorem1" else (alpha, alpha + mu)
        front = _mp_y_power(mp, y, lam) / k ** (nuk + half)
        total, r = mp.mpf(0), 0
        while True:
            shift = 2 * r + lam
            a_r, b_r = (a, b + shift) if which == "theorem1" else (a + shift, b)
            lt = (mp.mpf(2) / 3) ** (2 * a_r) * mp.beta(a_r, b_r)
            term = (-c / k) ** r * (y / 2) ** (2 * r) * lt / (
                mp.gamma(nuk + 3 * half + r) * mp.gamma(3 * half + r)
            )
            total += term
            r += 1
            if r > 5 and abs(term) <= abs(total) * mp.mpf(10) ** -digits:
                break
        return +(front * total)


def mp_fox_wright(mp, spec, z, digits=30):
    """The Fox-Wright sum of ``spec`` at z, at the exact double inputs, or None.

    Sums z**m / m! prod Gamma(a + alpha m) / prod Gamma(b + beta m) in the
    mpmath module ``mp``: each gamma value comes from mpmath's gamma, or for
    an integer slope from the previous one times the rising factorial
    (a + alpha m)_alpha.  The terms can outgrow the sum by hundreds of
    digits, so the working precision is raised until it carries ``digits``
    beyond their cancellation; the sum is returned only where it agrees with
    itself at that precision and 40 digits more to ``digits`` digits, and
    None where it does not.
    """

    def total(dps):
        with mp.workdps(dps):
            up = [(mp.mpf(a), mp.mpf(al), al.is_integer()) for a, al in spec.upper]
            down = [(mp.mpf(b), mp.mpf(be), be.is_integer()) for b, be in spec.lower]
            up_gammas = [mp.gamma(a) for a, _, _ in up]
            down_gammas = [mp.gamma(b) for b, _, _ in down]

            def advance(gammas, factors, m):
                # Gamma(a + alpha m) from Gamma(a + alpha (m - 1)) for each factor
                for i, (a, al, integer) in enumerate(factors):
                    if integer:
                        x = a + al * (m - 1)
                        for j in range(int(al)):
                            gammas[i] *= x + j
                    else:
                        gammas[i] = mp.gamma(a + al * m)

            w, power = mp.mpf(z), mp.mpf(1)
            s = peak = mp.mpf(0)
            m = 0
            while True:
                term = power * mp.fprod(up_gammas) / mp.fprod(down_gammas)
                s += term
                peak = max(peak, abs(term))
                m += 1
                if m > 10 and abs(term) <= peak * mp.mpf(10) ** -(dps + 5):
                    return s, peak
                power = power * w / m
                advance(up_gammas, up, m)
                advance(down_gammas, down, m)

    # a sum that cancels is often near 1 / peak, as e**z at z < 0 is: once a
    # first sum shows cancellation, carry at least that many digits more
    dps = digits + 20
    for _ in range(8):
        s, peak = total(dps)
        cancel = int(mp.log10(peak / abs(s))) + 1 if s else 2 * dps
        if cancel <= dps - digits - 10:
            break
        dps = digits + 10 + max(cancel, 2 * int(mp.log10(peak)) if peak > 1 else 0)
    check, _ = total(dps + 40)
    if abs(s - check) > abs(check) * mp.mpf(10) ** -digits:
        return None
    return check

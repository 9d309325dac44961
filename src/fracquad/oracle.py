"""Independent ground truth for validating the quadrature schemes.

Closed forms for the reference integrands:

    I^alpha[c](t)      = c t^alpha / Gamma(alpha + 1)
    I^alpha[e^u](t)    = e^t gamma_lower(t, alpha) / Gamma(alpha)
    I^alpha[u^q](t)    = Gamma(q+1) / Gamma(q+1+alpha) t^(q+alpha)
    D^alpha[sin wu](t) = |w|^alpha sin(w t + pi alpha / 2)   (large-t form)

plus :func:`brute_force_rl`, a deliberately slow adaptive quadrature of the
defining integral with the endpoint singularity removed exactly by the
substitution ``u = (t - t')^alpha``.  Everything here is kept independent
of the convolution machinery so it can sit on the other side of every
comparison.
"""

from __future__ import annotations

import math
from typing import Callable

from .exceptions import DomainError, ToleranceNotMet
from .special import gamma, log_gamma, lower_incomplete_gamma

__all__ = [
    "exact_integral_const",
    "exact_integral_exp",
    "exact_integral_monomial",
    "exact_derivative_monomial",
    "exact_derivative_exp",
    "exact_derivative_sin",
    "brute_force_rl",
]

_MAX_ORACLE_EVALS = 1 << 20


def exact_integral_const(t: float, alpha: float, c: float = 1.0) -> float:
    """Fractional integral of the constant ``c``: ``c t^alpha / Gamma(alpha+1)``."""
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got {t!r}")
    if not alpha > 0.0:
        raise DomainError(f"requires alpha > 0, got {alpha!r}")
    if t == 0.0:
        return 0.0
    return c * t**alpha / gamma(alpha + 1.0)


def exact_integral_exp(t: float, alpha: float) -> float:
    """Fractional integral of ``e^u``: ``e^t gamma_lower(t, alpha) / Gamma(alpha)``."""
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    lower = lower_incomplete_gamma(t, alpha)
    value = math.exp(t) * lower / gamma(alpha)
    if value == math.inf:  # e^t gamma_lower past binary64, the result not
        value = math.exp(t) * (lower / gamma(alpha))
    return value


def exact_integral_monomial(t: float, alpha: float, q: float) -> float:
    """Fractional integral of ``u^q``: ``Gamma(q+1)/Gamma(q+1+alpha) t^(q+alpha)``."""
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got {t!r}")
    if not q >= 0.0:
        raise DomainError(f"requires q >= 0, got {q!r}")
    if not alpha > 0.0:
        raise DomainError(f"requires alpha > 0, got {alpha!r}")
    if t == 0.0:
        return 0.0
    # log-space ratio: both arguments positive, safe for any size
    log_ratio = log_gamma(q + 1.0) - log_gamma(q + 1.0 + alpha)
    ratio = math.exp(log_ratio)
    if ratio >= 2.0**-1022:  # not subnormal
        try:
            value = ratio * t**(q + alpha)
            if value < math.inf:
                return value
        except OverflowError:
            pass
    # a subnormal ratio or t^(q+alpha) past binary64: one exponential, which
    # raises OverflowError only when the result is past binary64 too
    return math.exp(log_ratio + (q + alpha) * math.log(t))


def exact_derivative_monomial(t: float, alpha: float, q: float) -> float:
    """Fractional derivative of ``u^q``: ``Gamma(q+1)/Gamma(q+1-alpha) t^(q-alpha)``.

    Returns 0 when ``q - alpha`` lands on a pole of the reciprocal gamma
    (the classical derivative of a lower-degree polynomial).
    """
    if not q >= 0.0:
        raise DomainError(f"requires q >= 0, got {q!r}")
    if not alpha > 0.0:
        raise DomainError(f"requires alpha > 0, got {alpha!r}")
    denom_arg = q + 1.0 - alpha
    if denom_arg <= 0.0 and denom_arg == math.floor(denom_arg):
        return 0.0
    numer, denom = gamma(q + 1.0), gamma(denom_arg)
    if t == 0.0:
        return numer / denom * t**(q - alpha)
    try:
        power = t**(q - alpha)
        value = numer / denom * power
        if (min(abs(denom), power, abs(value)) >= 2.0**-1022
                and abs(value) < math.inf):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    # Gamma(q + 1 - alpha), t^(q - alpha) or the result outside the normal
    # range: one exponential, which raises OverflowError only when the
    # result is past binary64 too (Gamma keeps its sign when it underflows)
    return math.copysign(math.exp(
        math.lgamma(q + 1.0) - math.lgamma(denom_arg)
        + (q - alpha) * math.log(t)), denom)


def exact_derivative_exp(t: float, alpha: float) -> float:
    """Fractional derivative of ``e^u`` for orders in (0, 1).

    ``(e^t gamma_lower(t, 1-alpha) + t^(-alpha)) / Gamma(1-alpha)``, the
    exact time derivative of the order-``(1-alpha)`` integral closed form.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"closed form covers alpha in (0, 1), got {alpha!r}")
    if not t > 0.0:
        raise DomainError(f"requires t > 0, got {t!r}")
    lower, scale = lower_incomplete_gamma(t, 1.0 - alpha), gamma(1.0 - alpha)
    try:
        power = t**(-alpha)
    except OverflowError:  # a subnormal t, t^-alpha / Gamma(1-alpha) not
        return math.exp(t) * (lower / scale) + math.exp(
            -alpha * math.log(t) - math.log(scale))
    value = (math.exp(t) * lower + power) / scale
    if value == math.inf:  # e^t gamma_lower past binary64, the result not
        value = math.exp(t) * (lower / scale) + power / scale
    return value


def exact_derivative_sin(t: float, omega0: float, alpha: float) -> float:
    """Fourier-rule fractional derivative of ``sin(omega0 u)``.

    ``|omega0|^alpha sin(omega0 t + pi alpha / 2)`` — exact for the
    whole-line operator, hence the large-t asymptote of grid evaluations
    started at t = 0.
    """
    return abs(omega0)**alpha * math.sin(omega0 * t + 0.5 * math.pi * alpha)


def brute_force_rl(
    f: Callable[[float], float],
    t: float,
    alpha: float,
    tol: float = 1e-10,
) -> float:
    """Left Riemann-Liouville integral by adaptive quadrature.

    The substitution ``u = (t - t')^alpha`` removes the endpoint
    singularity exactly, leaving

        I = 1 / (alpha Gamma(alpha)) * int_0^(t^alpha) f(t - u^(1/alpha)) du

    which is refined by adaptive Simpson panels until the Richardson error
    estimate drops under ``tol``; panels are bisected at least
    ``_MIN_BISECTION_DEPTH`` times first, since a coarse panel can pass that
    test by accident.  ``tol`` bounds the error of the ``u`` integral, so for
    smooth ``f`` the result is within ``tol / (alpha Gamma(alpha))`` plus a
    few ulps (worst 0.16 of that on 64000 sin(omega u) probes vs mpmath).

    Raises
    ------
    ToleranceNotMet
        If the refinement budget (2^20 evaluations) runs out, or panels
        reach floating-point resolution, before ``tol`` is met.
    """
    if not t > 0.0:
        raise DomainError(f"requires t > 0, got {t!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"requires alpha in (0, 1), got {alpha!r}")
    if not tol >= 1e-12:
        raise DomainError(f"tolerance floor is 1e-12, got {tol!r}")

    inv_alpha = 1.0 / alpha
    def g(u: float) -> float:
        return f(t - u**inv_alpha)

    upper = t**alpha
    budget = [_MAX_ORACLE_EVALS]
    integral = _adaptive_simpson(g, 0.0, upper, tol, budget)
    return integral / (alpha * gamma(alpha))


_MAX_BISECTION_DEPTH = 64
_MIN_BISECTION_DEPTH = 7


def _adaptive_simpson(g, a, b, tol, budget):
    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    budget[0] -= 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(g, a, b, fa, fm, fb, whole, tol, budget, 0)


def _simpson_recurse(g, a, b, fa, fm, fb, whole, tol, budget, depth):
    if budget[0] <= 0:
        raise ToleranceNotMet(
            "adaptive refinement exhausted its evaluation budget"
        )
    if depth > _MAX_BISECTION_DEPTH:
        # panel width is at rounding scale; the tolerance is unreachable
        raise ToleranceNotMet(
            "panel bisection hit floating-point resolution before the "
            "requested tolerance"
        )
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = g(lm), g(rm)
    budget[0] -= 2
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth >= _MIN_BISECTION_DEPTH and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (
        _simpson_recurse(g, a, m, fa, flm, fm, left, half, budget, depth + 1)
        + _simpson_recurse(g, m, b, fm, frm, fb, right, half, budget,
                           depth + 1)
    )

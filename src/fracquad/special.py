"""Scalar special-function kernel: gamma, log-gamma and the lower
incomplete gamma function.

Evaluation policy
-----------------
``gamma`` refuses arguments above 170: past that point ``exp(log_gamma(x))``
is the only safe route, and forcing callers through it keeps factorial-style
overflow out of every downstream recurrence.  For the same reason the weight
generators form binomial coefficients as cumulative products, never from
gamma ratios.

The lower incomplete gamma function uses the positive-term series

    gamma_lower(t, a) = e^-t t^a sum_{n>=0} t^n / (a (a+1) ... (a+n))

for ``t < a + 1`` and ``Gamma(a)`` minus a Lentz continued fraction for the
upper tail otherwise (the Numerical Recipes ``gser``/``gcf`` split).  The
series is within ``eps max(m, 16)`` relative, m its term count.  The
continued fraction subtracts a tail of up to half of ``Gamma(a)`` (near
t = a + 1), both exponentials some ``|lgamma(a)| eps`` off (``Gamma(a)`` is
``exp(lgamma(a))``): measured at most ``(16 + 3.4 |lgamma(a)|) eps`` against
40-digit mpmath, 1944 eps at (t, a) = (148.20, 147.19).

A result past binary64 raises ``OverflowError`` on either branch, as
``gamma`` does past 170.  Once ``Gamma(a)`` itself overflows (a > 171.62),
the continued fraction takes ``Gamma(a) - tail`` as one exponential,
``exp(lgamma(a) + log1p(-tail / Gamma(a)))``.
"""

from __future__ import annotations

import math

from .exceptions import DomainError, PoleError

__all__ = [
    "GAMMA_OVERFLOW_LIMIT",
    "gamma",
    "log_gamma",
    "lower_incomplete_gamma",
]

#: Largest argument ``gamma`` accepts.  Documented factorial overflow sets in
#: just past this point (171! is not representable in binary64).
GAMMA_OVERFLOW_LIMIT = 170.0

_SERIES_STOP_RATIO = 1e-16
_MAX_SERIES_TERMS = 10_000
_MAX_CF_ITERATIONS = 10_000


def gamma(x: float) -> float:
    """Gamma function of a real, non-pole argument.

    Raises
    ------
    PoleError
        If ``x`` is zero or a negative integer.
    OverflowError
        If ``x`` exceeds :data:`GAMMA_OVERFLOW_LIMIT`; use
        :func:`log_gamma` instead for large arguments.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma requires a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x:g}")
    if x > GAMMA_OVERFLOW_LIMIT:
        raise OverflowError(
            f"gamma({x:g}) would overflow; evaluate log_gamma and keep "
            "results in log space for arguments above "
            f"{GAMMA_OVERFLOW_LIMIT:g}"
        )
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for ``x > 0``.

    Finite for every representable positive ``x``; this is the overflow-safe
    companion to :func:`gamma`.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def lower_incomplete_gamma(t: float, alpha: float) -> float:
    """Lower incomplete gamma function ``integral_0^t u^(alpha-1) e^-u du``.

    Parameters
    ----------
    t : float
        Upper integration limit, ``t >= 0``.
    alpha : float
        Exponent parameter, ``alpha > 0``.
    """
    t = float(t)
    alpha = float(alpha)
    if not t >= 0.0:
        raise DomainError(f"lower_incomplete_gamma requires t >= 0, got {t!r}")
    if not alpha > 0.0:
        raise DomainError(
            f"lower_incomplete_gamma requires alpha > 0, got {alpha!r}"
        )
    if t == 0.0:
        return 0.0
    try:
        if t < alpha + 1.0:
            value = _lower_gamma_series(t, alpha)
        else:
            value = _complete_minus_upper_tail(t, alpha)
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise OverflowError(
        f"lower_incomplete_gamma({t:g}, {alpha:g}) exceeds the binary64 range"
    )


def _lower_gamma_series(t: float, alpha: float) -> float:
    # term_n = t^n / (alpha (alpha+1) ... (alpha+n)), all positive and
    # decreasing once alpha + n > t (from the first term here, t < alpha + 1)
    term = 1.0 / alpha
    total = term
    for n in range(1, _MAX_SERIES_TERMS):
        term *= t / (alpha + n)
        total += term
        if term <= _SERIES_STOP_RATIO * total:
            try:
                return total * t**alpha * math.exp(-t)
            except OverflowError:  # in t^alpha: e^-t between its halves
                half = t**(0.5 * alpha)
                return total * half * math.exp(-t) * half
    raise DomainError(
        f"incomplete gamma series failed to converge for t={t:g}, "
        f"alpha={alpha:g}"
    )


def _complete_minus_upper_tail(t: float, alpha: float) -> float:
    # Upper tail Gamma(alpha, t) by modified Lentz continued fraction
    # (Numerical Recipes gcf); returns Gamma(alpha) - tail.
    tiny = 1e-300
    b = t + 1.0 - alpha
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITERATIONS):
        an = -i * (i - alpha)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise DomainError(
            f"incomplete gamma continued fraction failed for t={t:g}, "
            f"alpha={alpha:g}"
        )
    log_tail = -t + alpha * math.log(t) + math.log(h)
    log_complete = math.lgamma(alpha)
    try:
        complete = math.exp(log_complete)
    except OverflowError:  # Gamma(alpha) past binary64, the difference not
        return math.exp(log_complete
                        + math.log1p(-math.exp(log_tail - log_complete)))
    return complete - math.exp(log_tail)


"""Scalar special-function kernel: gamma and the lower incomplete gamma
function.

Evaluation policy
-----------------
``gamma`` is ``math.gamma`` behind a finiteness and a pole check, so it
raises ``OverflowError`` only where Gamma(x) leaves binary64 (x > 171.62).
Past that, callers stay in log space with ``math.lgamma``; the weight
generators form binomial coefficients as cumulative products, never from
gamma ratios.

The lower incomplete gamma function uses the positive-term series

    gamma_lower(t, a) = e^-t t^a sum_{n>=0} t^n / (a (a+1) ... (a+n))

for ``t - a < 1`` and ``Gamma(a)`` minus a Lentz continued fraction for the
upper tail otherwise (the Numerical Recipes ``gser``/``gcf`` split).  The
series is within ``eps max(m, 16)`` relative, m its term count.  The
continued fraction subtracts a tail of up to half of ``Gamma(a)`` (near
t = a + 1), both exponentials some ``|lgamma(a)| eps`` off (``Gamma(a)`` is
``exp(lgamma(a))``): measured at most ``(16 + 3.4 |lgamma(a)|) eps`` against
40-digit mpmath, 1944 eps at (t, a) = (148.20, 147.19).

A result past binary64 raises ``OverflowError`` on either branch.  Once
``Gamma(a)`` itself overflows (a > 171.62), the continued fraction returns
``exp(lgamma(a) + log P(a, t))``, P = gamma_lower / Gamma, through
:func:`_log_p`: the one log-space route, from either branch's sum or tail.
``OverflowError`` stays this module's signal: the oracles catch it and
raise a ``DomainError`` that names the reference.
"""

from __future__ import annotations

import math

from .exceptions import DomainError, PoleError

__all__ = ["gamma", "lower_incomplete_gamma"]

_SERIES_STOP_RATIO = 1e-16
_MAX_TERMS = 10_000  # of the series or the continued fraction


def gamma(x: float) -> float:
    """Gamma function of a real, non-pole argument.

    Raises
    ------
    PoleError
        If ``x`` is zero or a negative integer.
    OverflowError
        If Gamma(x) is past binary64 (x > 171.62, or a subnormal x).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma requires a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma has a pole at {x:g}")
    return math.gamma(x)


def _lgamma(x: float) -> float:
    """``math.lgamma``, or inf past binary64 (x above about 2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def lower_incomplete_gamma(t: float, alpha: float) -> float:
    """Lower incomplete gamma function ``integral_0^t u^(alpha-1) e^-u du``.

    Parameters
    ----------
    t : float
        Upper integration limit, ``t >= 0``.
    alpha : float
        Exponent parameter, ``alpha > 0``.
    """
    t, alpha = float(t), float(alpha)
    if not t >= 0.0:
        raise DomainError(f"lower_incomplete_gamma requires t >= 0, got {t!r}")
    if not alpha > 0.0:
        raise DomainError(
            f"lower_incomplete_gamma requires alpha > 0, got {alpha!r}"
        )
    if t == 0.0:
        return 0.0
    try:
        if t - alpha < 1.0:  # not t < alpha + 1, which rounds past 2^53
            total = _series_sum(t, alpha)
            try:
                value = total * t**alpha * math.exp(-t)
            except OverflowError:  # in t^alpha: e^-t between its halves
                half = t**(0.5 * alpha)
                value = total * half * math.exp(-t) * half
        else:
            try:
                complete = math.exp(math.lgamma(alpha))
            except OverflowError:  # Gamma(alpha) past binary64, the result not
                return math.exp(math.lgamma(alpha) + _log_p(t, alpha))
            value = complete - math.exp(_log_upper_tail(t, alpha))
        if value < math.inf:
            return value
    except OverflowError:
        pass
    raise OverflowError(
        f"lower_incomplete_gamma({t:g}, {alpha:g}) exceeds the binary64 range"
    )


def _log_p(t: float, alpha: float) -> float:
    """``log P(alpha, t)``, P = gamma_lower(t, alpha) / Gamma(alpha), for
    t > 0 and a normal alpha, from the branch's sum or upper tail."""
    if t - alpha < 1.0:
        return (math.log(_series_sum(t, alpha)) + alpha * math.log(t) - t
                - _lgamma(alpha))
    return math.log1p(-math.exp(_log_upper_tail(t, alpha)
                                - math.lgamma(alpha)))


def _series_sum(t: float, alpha: float) -> float:
    """``sum_n t^n / (alpha (alpha+1) ... (alpha+n))``, for t - alpha < 1."""
    # all terms positive and decreasing once alpha + n > t (from the first)
    term = 1.0 / alpha
    total = term
    for n in range(1, _MAX_TERMS):
        term *= t / (alpha + n)
        total += term
        if term <= _SERIES_STOP_RATIO * total:
            return total
    raise DomainError(
        f"incomplete gamma series failed to converge for t={t:g}, "
        f"alpha={alpha:g}"
    )


def _log_upper_tail(t: float, alpha: float) -> float:
    """``log Gamma(alpha, t)`` by the modified Lentz continued fraction
    (Numerical Recipes gcf), for t - alpha >= 1."""
    tiny = 1e-300
    b, c = t + 1.0 - alpha, 1.0 / tiny
    d = h = 1.0 / b
    for i in range(1, _MAX_TERMS):
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
            return -t + alpha * math.log(t) + math.log(h)
    raise DomainError(
        f"incomplete gamma continued fraction failed for t={t:g}, "
        f"alpha={alpha:g}"
    )

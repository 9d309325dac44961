"""Independent ground truth for validating the quadrature schemes.

Closed forms for the reference integrands; the powers are one
Riemann-Liouville rule, :func:`_power_rule`, with ``nu = -alpha`` for
``D^alpha``:

    I^nu[u^q](t)       = Gamma(q+1) / Gamma(q+1+nu) t^(q+nu)
    I^alpha[c](t)      = c I^alpha[u^0](t)
    I^alpha[e^u](t)    = e^t gamma_lower(t, alpha) / Gamma(alpha)
    D^alpha[e^u](t)    = I^(1-alpha)[e^u](t) + I^(-alpha)[u^0](t)
    D^alpha[sin wu](t) = |w|^alpha sin(w t + pi alpha / 2)   (large-t form)

Each takes t = 0 and returns its t -> 0+ limit, the powers' from the power
rule alone: 0 for the integrals, inf for ``D^alpha[e^u]``, and for
``D^alpha[u^q]`` 0 above q = alpha, Gamma(q+1) at it, and below it signed
inf, or 0 on a pole.  Past binary64 each raises one DomainError naming
itself and its arguments; below the subnormal range it returns a signed 0.
Past gamma's range the power rule is one exponential of Stirling's
difference ln Gamma(q+1) - ln Gamma(q+1+nu), so it reaches every finite q
and nu: ``exact_integral_monomial(1.0, 0.5, 3e305)`` is 1.826e-153 and
``exact_integral_monomial(1e200, 1e306, 2.0)`` is 0.  On 3300 such points,
q up to 1.7e308, 400-digit mpmath puts it within 0.79 of ``(16 + |ln R| +
|(q + nu) ln t|) eps``, R the gamma ratio, with every 0 and range error
where mpmath has them.

On over 11 800 points per oracle, 40-digit mpmath puts the power rule within
0.89 and the exp oracles within 0.39 of their property tests' bounds, the
constant within 4 eps and derivatives next to a pole within 870 eps.  Past
alpha = 171.62, where Gamma(alpha) leaves binary64, the exp integral is
``e^(t + log P(alpha, t))``, measured within 0.95 of ``(|t| + |alpha ln t|
+ |lgamma(alpha)| + 16) eps`` on 5699 points, 1.1e4 eps at worst.
:func:`brute_force_rl` is a deliberately slow adaptive quadrature of the
defining integral with the endpoint singularity removed exactly by the
substitution ``u = (t - t')^alpha``.  Everything here is kept independent
of the convolution machinery so it can sit on the other side of every
comparison.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .exceptions import DomainError, ToleranceNotMet
from .special import _log_p, gamma, lower_incomplete_gamma

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
_NORMAL_MIN = 2.0**-1022
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _reference(fn):
    """``fn`` on floats; past binary64 (an ``OverflowError`` inside, or a
    value not finite nor a t = 0 limit) a DomainError naming the call."""
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]

    @functools.wraps(fn)
    def reference(*args, **kwargs):
        if kwargs:  # by position: t first, and every argument in the message
            args += tuple(kwargs.pop(k) for k in names[len(args):]
                          if k in kwargs)
        args = [a if callable(a) else float(a) for a in args]
        try:
            value = fn(*args, **kwargs)
            if abs(value) < math.inf or (abs(value) == math.inf
                                         and args[:1] == [0.0]):
                return value  # finite, or a documented limit at t = 0
        except (OverflowError, ZeroDivisionError):  # 0^-alpha: inf
            pass
        shown = ", ".join("f" if callable(a) else repr(a) for a in args)
        raise DomainError(f"{fn.__name__}({shown}) leaves the binary64 range")
    return reference


def _power_rule(t: float, q: float, order: float) -> float:
    """``Gamma(q+1) / Gamma(x) t^(q+order)``, ``x = q + 1 + order``, for finite
    q, t >= 0; at t = 0 its t -> 0+ limit, 0, the ratio or signed inf.
    Left of 1/2 by reflection about the nearest integer -n, at a distance d
    rounded once, so only an exact pole gives 0; past the normal range by
    one exponential, of :func:`_log_power` right of 1/2."""
    if not (0.0 <= t < math.inf and 0.0 <= q < math.inf):
        raise DomainError(f"requires finite t >= 0, q >= 0, got {t!r}, {q!r}")
    x = math.fsum((q, 1.0, order))
    s = 1.0
    if x < 0.5:  # 1/Gamma(x) = s Gamma(1 - x), s = (-1)^n sin(pi d) / pi
        qi, oi = math.floor(q), math.floor(order)  # q - qi, order - oi exact
        r = round((q - qi) + (order - oi))  # x = d - n, n = -(qi+oi+r+1)
        d = math.fsum((q - qi, order - oi, -r))
        s = d if abs(d) < 2.0**-28 else math.sin(math.pi * d) / math.pi
        s = s if (qi + oi + r) % 2 else -s
        if not s:
            return 0.0
    if t == 0.0:  # the t -> 0+ limit; the ratio alone at t^0 = 1
        if q + order:
            return 0.0 if q + order > 0.0 else math.copysign(math.inf, s)
        t = 1.0
    try:
        power = t**(q + order)
        ratio = (gamma(q + 1.0) * gamma(-(q + order)) * s if x < 0.5
                 else gamma(q + 1.0) / gamma(x))
        value = ratio * power
        if (min(abs(s), abs(ratio), power, abs(value)) >= _NORMAL_MIN
                and abs(value) < math.inf):
            return value
    except OverflowError:
        pass
    if x >= 0.5:
        return math.exp(_log_power(t, q, order, x))
    return math.copysign(math.exp(math.lgamma(q + 1.0) + (
        math.lgamma(-(q + order)) + math.log(abs(s)))
        + (q + order) * math.log(t)), s)


#: B_2k / (2k (2k - 1)), k = 1..6: Stirling's series for ln Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_FROM = 30.0  # the series through B_12 is within 1e-21 from here


def _stirling_tail(w: float) -> float:
    """``ln Gamma(w) - (w - 1/2) ln w + w - ln(2 pi) / 2`` for w >= 30."""
    r, tail = 1.0 / (w * w), 0.0
    for c in reversed(_STIRLING):
        tail = tail * r + c
    return tail / w


def _log_power(t: float, q: float, order: float, x: float) -> float:
    """``ln(Gamma(z) / Gamma(x) t^(q+order))``, z = q + 1, for t > 0 and
    x = z + order >= 1/2; -inf or inf past binary64's exponents.

    With z and x both >= 30 the log-ratio is Stirling's difference
    ``-(z - 1/2) log1p(order/z) - order ln x + order`` plus the series
    tails, never two lgammas of about z ln z that cancel, nor z + order,
    which rounds to z from 2^53 on.  Otherwise ln Gamma is ``math.lgamma``
    below 30 and Stirling's series from there.  The terms, each below
    2^1034, are summed in units of 2^16, so none overflows, and a logarithm
    past binary64 itself is the infinity whose sign decides 0 or the range
    error."""
    z, unit = q + 1.0, 2.0**16

    def log_gamma(w: float) -> float:  # ln Gamma(w) / unit
        if w < _STIRLING_FROM:
            return math.lgamma(w) / unit
        return math.fsum(((w - 0.5) / unit * math.log(w), -w / unit,
                          (_HALF_LOG_2PI + _stirling_tail(w)) / unit))

    if min(z, x) >= _STIRLING_FROM:
        terms = [-(z - 0.5) / unit * math.log1p(order / z),
                 -order / unit * math.log(x), order / unit,
                 (_stirling_tail(z) - _stirling_tail(x)) / unit]
    else:
        terms = [log_gamma(z), -log_gamma(x)]
    terms.append((q + order) / unit * math.log(t))
    return unit * math.fsum(terms)


@_reference
def exact_integral_const(t: float, alpha: float, c: float = 1.0) -> float:
    """Fractional integral of the constant ``c``: ``c t^alpha / Gamma(alpha+1)``."""
    if not math.isfinite(c):
        raise DomainError(f"requires finite c, got {c!r}")
    value = exact_integral_monomial.__wrapped__(t, alpha, 0.0)
    return c * value if t else value  # 0.0 at t = 0 for every c


@_reference
def exact_integral_exp(t: float, alpha: float) -> float:
    """Fractional integral of ``e^u``: ``e^t gamma_lower(t, alpha) / Gamma(alpha)``."""
    if not (0.0 <= t < math.inf and 0.0 < alpha < math.inf):
        raise DomainError(f"requires finite t >= 0, alpha > 0, got {t!r}, "
                          f"{alpha!r}")
    if t == 0.0:
        return 0.0
    try:
        lower, scale = lower_incomplete_gamma(t, alpha), gamma(alpha)
    except OverflowError:  # Gamma(alpha) or gamma_lower past binary64
        if alpha < _NORMAL_MIN:  # 1 - P <= alpha E_1(t) < 2e-305
            return math.exp(t)
        return math.exp(t + _log_p(t, alpha))
    value = math.exp(t) * lower / scale
    if value == math.inf:  # e^t gamma_lower past binary64, the result not
        value = math.exp(t) * (lower / scale)
    return value


@_reference
def exact_integral_monomial(t: float, alpha: float, q: float) -> float:
    """Fractional integral of ``u^q``: ``Gamma(q+1)/Gamma(q+1+alpha) t^(q+alpha)``."""
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"requires finite alpha > 0, got {alpha!r}")
    return _power_rule(t, q, alpha)


@_reference
def exact_derivative_monomial(t: float, alpha: float, q: float) -> float:
    """Fractional derivative of ``u^q``: ``Gamma(q+1)/Gamma(q+1-alpha) t^(q-alpha)``.

    Returns 0 when ``q - alpha`` lands on a pole of the reciprocal gamma
    (the classical derivative of a lower-degree polynomial); at t = 0 the
    t -> 0+ limit: 0 above q = alpha, ``Gamma(q+1)`` at it, signed inf below.
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"requires finite alpha > 0, got {alpha!r}")
    return _power_rule(t, q, -alpha)


@_reference
def exact_derivative_exp(t: float, alpha: float) -> float:
    """Fractional derivative of ``e^u`` for orders in (0, 1).

    ``(e^t gamma_lower(t, 1-alpha) + t^(-alpha)) / Gamma(1-alpha)``, inf at
    t = 0: the time derivative of the order-``(1-alpha)`` integral closed form.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"closed form covers alpha in (0, 1), got {alpha!r}")
    exp_integral = exact_integral_exp.__wrapped__  # named as this call
    return exp_integral(t, 1.0 - alpha) + _power_rule(t, 0.0, -alpha)


@_reference
def exact_derivative_sin(t: float, omega0: float, alpha: float) -> float:
    """Fourier-rule fractional derivative of ``sin(omega0 u)``.

    ``|omega0|^alpha sin(omega0 t + pi alpha / 2)`` — exact for the
    whole-line operator, hence the large-t asymptote of grid evaluations
    started at t = 0.
    """
    if not all(map(math.isfinite, (t, omega0, alpha))):
        raise DomainError(f"requires finite t, omega0 and alpha, got "
                          f"{t!r}, {omega0!r}, {alpha!r}")
    phase = omega0 * t + 0.5 * math.pi * alpha
    if abs(phase) == math.inf:  # omega0 t or pi alpha / 2 past binary64
        raise OverflowError
    return abs(omega0)**alpha * math.sin(phase)


@_reference
def brute_force_rl(
    f: Callable[[float], float],
    t: float,
    alpha: float,
    tol: float = 1e-10,
) -> float:
    """Left Riemann-Liouville integral by adaptive quadrature; 0 at t = 0.

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
    if not 0.0 <= t < math.inf:
        raise DomainError(f"requires finite t >= 0, got {t!r}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"requires alpha in (0, 1), got {alpha!r}")
    if not 1e-12 <= tol < math.inf:
        raise DomainError(f"requires finite tol >= 1e-12, got {tol!r}")
    if t == 0.0:
        return 0.0

    inv_alpha = 1.0 / alpha
    def g(u: float) -> float:
        return f(t - u**inv_alpha)

    b = t**alpha  # the first panel, [0, b], spends three evaluations
    fa, fm, fb = g(0.0), g(0.5 * b), g(b)
    whole, budget = b / 6.0 * (fa + 4.0 * fm + fb), [_MAX_ORACLE_EVALS - 3]
    integral = _simpson_recurse(g, 0.0, b, fa, fm, fb, whole, tol, budget, 0)
    try:
        return integral / (alpha * gamma(alpha))
    except OverflowError:  # a subnormal alpha: Gamma(alpha) past binary64
        return integral / gamma(alpha + 1.0)


_MAX_BISECTION_DEPTH = 64
_MIN_BISECTION_DEPTH = 7


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
    if not abs(delta) < math.inf:  # a non-finite integrand value
        raise OverflowError
    if depth >= _MIN_BISECTION_DEPTH and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (
        _simpson_recurse(g, a, m, fa, flm, fm, left, half, budget, depth + 1)
        + _simpson_recurse(g, m, b, fm, frm, fb, right, half, budget,
                           depth + 1)
    )

import math

import mpmath
import numpy as np
import pytest

from fracquad import oracle
from fracquad.exceptions import DomainError, ToleranceNotMet
from fracquad.oracle import (
    brute_force_rl,
    exact_derivative_exp,
    exact_derivative_monomial,
    exact_derivative_sin,
    exact_integral_const,
    exact_integral_exp,
    exact_integral_monomial,
)
from test_special import branch_tol


def test_exact_integral_const():
    assert exact_integral_const(0.0, 0.5) == 0.0
    assert exact_integral_const(4.0, 0.5) == pytest.approx(
        2.0 / math.gamma(1.5), rel=1e-14)
    assert exact_integral_const(1.0, 1.0, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_exact_integral_exp():
    assert exact_integral_exp(0.0, 0.7) == 0.0
    assert exact_integral_exp(1.0, 1.0) == pytest.approx(
        math.e - 1.0, rel=1e-13)
    # 40-digit reference of e gamma_lower(1, 0.5) / Gamma(0.5)
    assert exact_integral_exp(1.0, 0.5) == pytest.approx(
        2.2906982523032382, rel=1e-13)


def test_exact_integral_monomial():
    assert exact_integral_monomial(2.0, 1.0, 0.0) == pytest.approx(
        exact_integral_const(2.0, 1.0), rel=1e-14)
    assert exact_integral_monomial(2.0, 1.0, 1.0) == pytest.approx(
        2.0, rel=1e-14)
    assert exact_integral_monomial(1.0, 0.5, 2.0) == pytest.approx(
        2.0 / math.gamma(3.5), rel=1e-13)


def test_exact_derivative_sin():
    ts = np.linspace(0.3, 6.0, 7)
    for t in ts:
        assert exact_derivative_sin(t, 1.0, 0.0) == pytest.approx(
            math.sin(t), rel=1e-14)
        assert exact_derivative_sin(t, 2.0, 1.0) == pytest.approx(
            2.0 * math.cos(2.0 * t), rel=1e-12, abs=1e-13)
        assert exact_derivative_sin(t, 1.0, 2.0) == pytest.approx(
            -math.sin(t), rel=1e-12, abs=1e-13)


def test_exact_derivative_monomial_poles_vanish():
    # classical derivative of lower-degree monomials is zero
    assert exact_derivative_monomial(2.0, 1.0, 0.0) == 0.0
    assert exact_derivative_monomial(2.0, 2.0, 1.0) == 0.0
    # 4 - 1e300 is a pole though its rounding is off by more than 1
    assert exact_derivative_monomial(2.0, 1e300, 3.0) == 0.0
    assert exact_derivative_monomial(4.0, 0.5, 0.0) == pytest.approx(
        4.0**-0.5 / math.gamma(0.5), rel=1e-13)


def test_exact_derivative_exp_consistency():
    # finite difference of the exp integral closed form at order 1 - alpha
    alpha = 0.3
    h = 1e-6
    for t in (0.5, 1.0, 3.0):
        want = (exact_integral_exp(t + h, 1.0 - alpha)
                - exact_integral_exp(t - h, 1.0 - alpha)) / (2.0 * h)
        assert exact_derivative_exp(t, alpha) == pytest.approx(want, rel=1e-8)


def test_exact_derivative_exp_at_subnormal_t():
    # t^-alpha overflows at t = 1e-310, its quotient by Gamma(1 - alpha)
    # does not; within |alpha ln t| eps of 40-digit mpmath, the exponent's
    # rounding
    t, alpha = 1e-310, 0.9999
    with mpmath.workdps(40):
        x, a = mpmath.mpf(t), mpmath.mpf(alpha)
        want = ((mpmath.exp(x) * mpmath.gammainc(1 - a, 0, x) + x**-a)
                / mpmath.gamma(1 - a))
    tol = (8 + abs(alpha * math.log(t))) * np.finfo(float).eps
    assert abs(exact_derivative_exp(t, alpha) - want) <= tol * want


def test_exact_derivative_monomial_outside_gamma_range():
    # Gamma(q + 1 - alpha) underflows to -0.0 at -180.5 and the ratio
    # Gamma(1) / Gamma(-180.5) passes binary64; the result does neither
    t, alpha, q = 321.5, 181.5, 0.0
    with mpmath.workdps(40):
        want = mpmath.rgamma(q + 1 - alpha) * mpmath.mpf(t)**(q - alpha)
    got = exact_derivative_monomial(t, alpha, q)
    # one exponential of the reflected lgamma(181.5) and (q - alpha) ln t,
    # each some eps times its size off, the power's twice (q - alpha is
    # exact here)
    tol = 16 + abs(math.lgamma(q + 1 - alpha)) + 2 * abs((q - alpha)
                                                        * math.log(t))
    assert abs(got - want) <= tol * np.finfo(float).eps * abs(want)


def test_exact_derivative_monomial_rounds_its_gamma_argument_once():
    # q + 1.0 - alpha rounds onto the pole at 0; q + 1 - alpha = 1e-16 does
    # not, and Gamma(1 + 1e-16) / Gamma(1e-16) = 1e-16 to 2 ulp
    got = exact_derivative_monomial(1.0, 1.0, 1e-16)
    assert abs(got - 1e-16) <= 2 * math.ulp(1e-16)


@pytest.mark.parametrize("t, alpha, q", [
    (1.0, 2.0, 4.896981282947043e-170),
    (3.0, 2.0, 1e-17),
    (1.5, 4.0, 1e-20),
    (1.0, 2.0, 1e-16),
])
def test_exact_derivative_monomial_rounded_onto_a_pole(t, alpha, q):
    # q + 1 - alpha = -n + q rounds onto, or an ulp off, the pole -n, but is
    # not one: the value is about (-1)^n n! q t^(q-alpha), not 0 and not
    # the value at the rounded argument, within (16 + |ln value|) eps of
    # 40-digit mpmath
    with mpmath.workdps(40):
        p, a = mpmath.mpf(q), mpmath.mpf(alpha)
        x = mpmath.fsub(mpmath.fadd(p, 1, exact=True), a, exact=True)
        want = mpmath.gamma(p + 1) * mpmath.rgamma(x) * mpmath.mpf(t)**(p - a)
    got = exact_derivative_monomial(t, alpha, q)
    tol = 16 + abs(math.log(abs(want)))
    assert abs(got - want) <= tol * np.finfo(float).eps * abs(want)


@pytest.mark.parametrize("oracle, t, alpha, q", [
    ("derivative", 2.0, 0.5, 200.0),   # Gamma(201) past gamma's limit
    ("const", 3.0, 200.0, 0.0),        # Gamma(201) in the denominator
])
def test_power_rule_past_gamma_limit(oracle, t, alpha, q):
    # one exponential of the lgammas and the power, each some eps times its
    # size off, the power's twice: within that of 40-digit mpmath
    nu = -alpha if oracle == "derivative" else alpha
    with mpmath.workdps(40):
        p, x = mpmath.mpf(q), mpmath.mpf(q) + 1 + nu
        want = mpmath.gamma(p + 1) * mpmath.rgamma(x) * mpmath.mpf(t)**(p + nu)
    if oracle == "derivative":
        got = exact_derivative_monomial(t, alpha, q)
    else:
        got = exact_integral_const(t, alpha)
    tol = (16 + abs(math.lgamma(q + 1.0)) + abs(math.lgamma(q + 1.0 + nu))
           + 2 * abs((q + nu) * math.log(t)))
    assert abs(got - want) <= tol * np.finfo(float).eps * want


@pytest.mark.parametrize("alpha", [1e-310, 2.0**-1074])
@pytest.mark.parametrize("t", [2.0**-1074, 1.0, 709.0])
def test_exact_integral_exp_at_subnormal_order(t, alpha):
    # Gamma(alpha) is past binary64; e^t P(alpha, t) rounds to e^t
    with mpmath.workdps(40):
        x = mpmath.mpf(t)
        want = mpmath.exp(x) * mpmath.gammainc(alpha, 0, x, regularized=True)
    got = exact_integral_exp(t, alpha)
    assert abs(got - want) <= 2 * np.finfo(float).eps * want


def exp_oracle_tol(t, alpha):
    """Relative tolerance of ``exact_integral_exp(t, alpha)`` in eps, for
    t > 0 and a normal alpha."""
    try:
        math.gamma(alpha)
    except OverflowError:
        # e^(t + log P): t, alpha ln t and lgamma(alpha) each carry an
        # absolute error of up to about their size in eps into the exponent,
        # through up to two roundings each; measured at most 0.95 of the
        # single sum on 5699 points with alpha in (170, 1000]
        return 16 + 2 * (t + abs(alpha * math.log(t))
                         + abs(math.lgamma(alpha)))
    # gamma_lower's branch bound, plus 8 eps for e^t, Gamma(alpha), the
    # product and the quotient
    return branch_tol(t, alpha) + 8


@pytest.mark.parametrize("t, alpha", [(100.0, 171.0), (300.0, 200.0)])
def test_exact_integral_exp_past_gamma_limit(t, alpha):
    # e^t P(alpha, t) is 1.905e33 and 1.942e130 although Gamma(171) passes
    # the old cap of 170 and Gamma(200) binary64
    with mpmath.workdps(40):
        x = mpmath.mpf(t)
        want = mpmath.exp(x) * mpmath.gammainc(alpha, 0, x, regularized=True)
    got = exact_integral_exp(t, alpha)
    tol = exp_oracle_tol(t, alpha) * np.finfo(float).eps
    assert abs(got - want) <= tol * want


@pytest.mark.parametrize("alpha", [1e-310, 2.0**-1074])
def test_brute_force_at_subnormal_order(alpha):
    # alpha Gamma(alpha) = Gamma(alpha + 1) = 1 where Gamma(alpha) is past
    # binary64: the result is about f(t), within the docstring's bound, or
    # the refinement reports that it cannot meet tol
    t, tol = 1.0, 1e-10
    with mpmath.workdps(40):
        x = mpmath.mpf(t)
        want = mpmath.exp(x) * mpmath.gammainc(alpha, 0, x, regularized=True)
    try:
        got = brute_force_rl(math.exp, t, alpha, tol)
    except ToleranceNotMet:
        return
    assert abs(got - want) <= tol + 16 * np.finfo(float).eps * math.exp(t)


@pytest.mark.parametrize("t, alpha, q", [
    (-1.0, 0.3, 0.5), (math.inf, 200.0, 200.0), (math.nan, 0.3, 0.5),
    (1.0, math.inf, math.inf), (1.0, math.inf, 0.5)])
def test_exact_derivative_monomial_domain_errors(t, alpha, q):
    # a typed error, not a complex power at t < 0, a NaN from 0 * ln t at
    # t = inf, inf - inf in the gamma argument or floor(-inf)
    with pytest.raises(DomainError):
        exact_derivative_monomial(t, alpha, q)


@pytest.mark.parametrize("alpha, q", [(math.inf, 0.5), (0.5, math.inf)])
def test_exact_integral_monomial_domain_errors(alpha, q):
    with pytest.raises(DomainError, match="finite"):
        exact_integral_monomial(1.0, alpha, q)


@pytest.mark.parametrize("alpha, q, want", [
    (2.0, 1.0, 0.0),               # a pole: D^2 of u
    (0.5, 0.5, math.gamma(1.5)),   # q = alpha: Gamma(alpha + 1)
    (0.5, 200.0, 0.0),             # q > alpha, Gamma(q + 1) past binary64
    (169.5, 200.0, 0.0),           # the gamma ratio past binary64 too
    (1.0, 0.0, 0.0),               # a pole: D^1 of a constant
    (0.5, 0.0, math.inf),          # below q = alpha: the t -> 0+ limit,
    (1.5, 0.0, -math.inf),         # inf signed like 1/Gamma(q + 1 - alpha)
])
def test_exact_derivative_monomial_at_zero(alpha, q, want):
    assert exact_derivative_monomial(0.0, alpha, q) == want


@pytest.mark.parametrize("call", [
    lambda: exact_integral_monomial(5e-324, 1.7e308, 0.0),
    lambda: exact_integral_const(5e-324, 1.7e308),
    lambda: exact_integral_monomial(0.5, 1e306, 0.0),
    lambda: exact_integral_monomial(1e70, 1e306, 2.0),
    lambda: exact_integral_exp(2.0, 1.7e308),
    lambda: exact_integral_exp(700.0, 1e306),
], ids=["monomial-5e-324", "const-5e-324", "monomial-0.5", "monomial-1e70",
        "exp-2", "exp-700"])
def test_integrals_below_subnormal_range(call):
    # lgamma of the order past binary64 in the denominator, the power's
    # logarithm not: the true value is below the subnormal range, so 0
    assert call() == 0.0


def test_references_take_keyword_arguments():
    # folded in by position: the t = 0 limit and the values of the
    # positional call
    assert exact_derivative_exp(t=0.0, alpha=0.5) == math.inf
    assert (exact_integral_const(2.0, c=3.0, alpha=0.5)
            == exact_integral_const(2.0, 0.5, 3.0))


@pytest.mark.parametrize("alpha, q", [(1.0, 1e-16), (0.5, 0.25)])
def test_exact_derivative_monomial_unbounded_at_zero(alpha, q):
    # q < alpha off a pole: t^(q-alpha) is unbounded at 0, even where
    # q + 1 - alpha rounds onto the pole 0, so t = 0 gives the t -> 0+
    # limit, inf signed like 1/Gamma(q + 1 - alpha) (> 0 here)
    assert exact_derivative_monomial(0.0, alpha, q) == math.inf
    with pytest.raises(DomainError):
        exact_derivative_monomial(-1.0, alpha, q)


def test_exact_derivative_exp_limit_at_zero():
    # t^(-alpha) / Gamma(1 - alpha) is unbounded at 0 for every alpha in (0, 1)
    for alpha in (1e-300, 0.25, 0.5, 0.75, 1.0 - 2.0**-53):
        assert exact_derivative_exp(0.0, alpha) == math.inf
    with pytest.raises(DomainError, match="t >= 0"):
        exact_derivative_exp(-1.0, 0.5)


def test_brute_force_constant():
    got = brute_force_rl(lambda u: 1.0, 4.0, 0.5, 1e-11)
    assert got == pytest.approx(exact_integral_const(4.0, 0.5), rel=1e-11)


def test_brute_force_exp_pair():
    got = brute_force_rl(math.exp, 1.0, 0.5, 1e-10)
    assert got == pytest.approx(exact_integral_exp(1.0, 0.5), abs=1e-9)


def test_brute_force_monomial():
    got = brute_force_rl(lambda u: u * u, 2.0, 0.75, 1e-10)
    assert got == pytest.approx(
        exact_integral_monomial(2.0, 0.75, 2.0), rel=1e-9)


def test_brute_force_sin_reference():
    # 40-digit quadrature of the defining integral gives -0.632344401053314
    got = brute_force_rl(math.sin, 5.0, 0.5, 1e-10)
    assert got == pytest.approx(-0.632344401053314, abs=1e-9)


def test_brute_force_self_consistency_sweep():
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.5, 1.0, 2.0, 5.0):
            got = brute_force_rl(math.exp, t, alpha, 1e-10)
            want = exact_integral_exp(t, alpha)
            assert got == pytest.approx(want, abs=max(1e-10, 1e-10 * want))


def _integral_sin_series(t, alpha, omega):
    # I^alpha[sin(omega u)](t) = sum_k (-1)^k omega^(2k+1) t^(2k+1+alpha)
    #                                      / Gamma(2k+2+alpha)
    with mpmath.workdps(40):
        t, a, w = mpmath.mpf(t), mpmath.mpf(alpha), mpmath.mpf(omega)
        return mpmath.nsum(lambda k: (-1)**k * w**(2 * k + 1)
                           * t**(2 * k + 1 + a) / mpmath.gamma(2 * k + 2 + a),
                           [0, mpmath.inf])


@pytest.mark.parametrize("alpha,omega,t", [
    (0.4699055774485873, 1.2238064330025094, 3.250720524058469),
    (0.6573092683273764, 1.093335909657314, 3.3552771702490327),
    (0.34140428794824734, 1.2797496115013476, 1.099104025253329),
])
def test_brute_force_keeps_tolerance_sin(alpha, omega, t):
    # tol bounds the substituted integral, so the value is within
    # tol / (alpha Gamma(alpha)) plus rounding; a coarse Simpson panel once
    # passed its error test by accident at these draws (up to 4.9x over)
    tol = 1e-10
    got = brute_force_rl(lambda u: math.sin(omega * u), t, alpha, tol)
    want = _integral_sin_series(t, alpha, omega)
    bound = (16 * np.finfo(float).eps * abs(want)
             + tol / (alpha * math.gamma(alpha)))
    assert abs(mpmath.mpf(got) - want) <= bound


def test_brute_force_semigroup():
    # order-composition holds at the oracle level on a coarse probe set
    alpha, beta = 0.3, 0.4

    def inner(t):
        if t <= 0.0:
            return 0.0
        return brute_force_rl(math.exp, t, alpha, 1e-9)

    for t in np.linspace(0.4, 2.2, 10):
        composed = brute_force_rl(inner, float(t), beta, 1e-7)
        direct = brute_force_rl(math.exp, float(t), alpha + beta, 1e-9)
        assert composed == pytest.approx(direct, abs=1e-6)


def test_brute_force_bisection_depth_guard():
    # a chirp too fast for tol: panels reach rounding width, well inside
    # the evaluation budget
    with pytest.raises(ToleranceNotMet, match="floating-point resolution"):
        brute_force_rl(lambda u: math.sin(3e5 * u * u), 5.0, 0.5, 1e-12)


def test_brute_force_evaluation_budget(monkeypatch):
    # a smooth integrand that would converge, given more than 50 evaluations
    monkeypatch.setattr(oracle, "_MAX_ORACLE_EVALS", 50)
    with pytest.raises(ToleranceNotMet, match="budget"):
        brute_force_rl(math.exp, 1.0, 0.5, 1e-12)


def test_brute_force_domain():
    # t = 0 is the empty integral; t < 0 is outside the domain
    assert brute_force_rl(math.exp, 0.0, 0.5) == 0.0
    with pytest.raises(DomainError):
        brute_force_rl(math.exp, -1.0, 0.5)
    with pytest.raises(DomainError):
        brute_force_rl(math.exp, 1.0, 1.5)
    with pytest.raises(DomainError):
        brute_force_rl(math.exp, 1.0, 0.5, 1e-13)

"""Property test: the closed-form oracles against 40-digit mpmath across
their domains, for results in the normal binary64 range, and the adaptive
brute-force oracle against its stated error bound."""

import math

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.exceptions import ToleranceNotMet  # noqa: E402
from fracquad.oracle import (  # noqa: E402
    brute_force_rl,
    exact_derivative_exp,
    exact_derivative_monomial,
    exact_integral_exp,
    exact_integral_monomial,
)
from test_oracle import exp_oracle_tol  # noqa: E402
from test_special import branch_tol  # noqa: E402

_EPS = 2.0**-52
_NORMAL = (2.0**-1022, 2.0**1023)
#: Largest t with a finite e^t.
_EXP_MAX = 709.78


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(t=st.floats(0.0, _EXP_MAX),
                  alpha=st.floats(2.0**-1022, 1000.0))
def test_exact_integral_exp_against_mpmath(t, alpha):
    # e^t gamma_lower(t, alpha) / Gamma(alpha) up to alpha = 171.62, then
    # e^(t + log P(alpha, t)) where Gamma(alpha) leaves binary64, each within
    # exp_oracle_tol (alpha normal: Gamma of a subnormal alpha is past
    # binary64)
    with mpmath.workdps(40):
        x = mpmath.mpf(t)
        want = mpmath.exp(x) * mpmath.gammainc(alpha, 0, x, regularized=True)
        hypothesis.assume(_NORMAL[0] < want < _NORMAL[1])
        tol = exp_oracle_tol(t, alpha)
        assert abs(exact_integral_exp(t, alpha) - want) <= tol * _EPS * want


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(t=st.floats(2.0**-1022, _EXP_MAX),
                  alpha=st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True))
def test_exact_derivative_exp_against_mpmath(t, alpha):
    # (e^t gamma_lower(t, 1 - alpha) + t^-alpha) / Gamma(1 - alpha), two
    # positive terms: the incomplete gamma's tolerance plus 8 eps for the rest
    # (t normal: a subnormal t can overflow t^-alpha)
    with mpmath.workdps(40):
        x, a = mpmath.mpf(t), mpmath.mpf(alpha)
        want = ((mpmath.exp(x) * mpmath.gammainc(1 - a, 0, x) + x**-a)
                / mpmath.gamma(1 - a))
        hypothesis.assume(want < _NORMAL[1])
        tol = branch_tol(t, 1.0 - alpha) + 8
        assert abs(exact_derivative_exp(t, alpha) - want) <= tol * _EPS * want


@st.composite
def _monomial_cases(draw):
    # half the t anywhere in [0, 1e300], half placed so that the result is
    # near e^y, y in [-700, 700], which most draws of the first kind miss
    alpha = draw(st.floats(0.0, 1000.0, exclude_min=True))
    q = draw(st.floats(0.0, 1000.0))
    if draw(st.booleans()):
        return draw(st.floats(0.0, 1e300)), alpha, q
    log_ratio = math.lgamma(q + 1.0) - math.lgamma(q + 1.0 + alpha)
    log_t = (draw(st.floats(-700.0, 700.0)) - log_ratio) / (q + alpha)
    return math.exp(min(max(log_t, -700.0), 690.0)), alpha, q


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=_monomial_cases())
def test_exact_integral_monomial_against_mpmath(case):
    # Gamma(q+1) / Gamma(q+1+alpha) t^(q+alpha) as exp of the lgamma
    # difference: each lgamma some |lgamma| eps off in absolute terms (the
    # rounding of q + 1 + alpha included), the difference and its exp
    # |difference| eps, t^(q+alpha) |(q+alpha) ln t| eps through the
    # rounding of q + alpha; 8 eps for the rest
    t, alpha, q = case
    with mpmath.workdps(40):
        x, a, p = mpmath.mpf(t), mpmath.mpf(alpha), mpmath.mpf(q)
        want = (mpmath.exp(mpmath.loggamma(p + 1) - mpmath.loggamma(p + 1 + a))
                * x**(p + a))
        hypothesis.assume(_NORMAL[0] < want < _NORMAL[1])
        lg1, lg2 = math.lgamma(q + 1.0), math.lgamma(q + 1.0 + alpha)
        tol = (8 + abs(lg1) + abs(lg2) + abs(lg1 - lg2)
               + abs((q + alpha) * math.log(t)))
        got = exact_integral_monomial(t, alpha, q)
        assert abs(got - want) <= tol * _EPS * want


@st.composite
def _derivative_monomial_cases(draw):
    # as for the integral: half the t anywhere in [2^-1022, 1e300], half
    # placed so that the result is near e^y, y in [-700, 700]
    alpha = draw(st.floats(0.0, 400.0, exclude_min=True))
    q = draw(st.floats(0.0, 169.0))
    x = q + 1.0 - alpha
    if draw(st.booleans()) or q == alpha or x == math.floor(x) <= 0.0:
        return draw(st.floats(2.0**-1022, 1e300)), alpha, q
    log_ratio = math.lgamma(q + 1.0) - math.lgamma(x)
    log_t = (draw(st.floats(-700.0, 700.0)) - log_ratio) / (q - alpha)
    return math.exp(min(max(log_t, -700.0), 690.0)), alpha, q


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=_derivative_monomial_cases())
def test_exact_derivative_monomial_against_mpmath(case):
    # Gamma(q+1) / Gamma(x) t^(q-alpha), x = q + 1 - alpha, for q up to
    # gamma's limit: the rounding of x, up to (q + 1 + alpha) eps absolute,
    # moves Gamma(x) by |psi(x)| times that (left of 1/2 the oracle reflects
    # and rounds 1 - x and x's distance to a pole instead), and math.gamma
    # and math.lgamma are within about 2 (1 + |psi(x)| max(|x|, 1)) eps
    # themselves, so 4 |psi(x)| (q + 1 + alpha) and 3 |psi(q + 1)| (q + 1);
    # the rounding of q - alpha moves t^(q-alpha) by |(q - alpha) ln t| eps;
    # where the direct form leaves the normal range, one exponential of the
    # lgammas and (q - alpha) ln t adds their sizes; 16 eps for the rest
    # (measured at most 0.46 of this over 12 000 points)
    t, alpha, q = case
    with mpmath.workdps(40):
        a, p = mpmath.mpf(alpha), mpmath.mpf(q)
        # exact, where q + 1 - alpha at 40 digits may round onto a pole
        x = mpmath.fsub(mpmath.fadd(p, 1, exact=True), a, exact=True)
        want = mpmath.gamma(p + 1) * mpmath.rgamma(x) * (
            mpmath.mpf(t)**(p - a))
        if want == 0:  # x a pole of Gamma: the derivative of a polynomial
            assert exact_derivative_monomial(t, alpha, q) == 0.0
            return
        hypothesis.assume(_NORMAL[0] < abs(want) < _NORMAL[1])
        got = exact_derivative_monomial(t, alpha, q)
        psi_n = abs(mpmath.digamma(p + 1)) * (q + 1.0)
        with mpmath.workprec(mpmath.mp.prec + 1100):  # x holds < 1100 bits
            psi_x = abs(mpmath.digamma(x)) * (q + 1.0 + alpha)
            lg_x = abs(mpmath.loggamma(x).real)
        tol = (16 + 3 * psi_n + 4 * psi_x + abs(math.lgamma(q + 1.0)) + lg_x
               + 2 * abs((q - alpha) * math.log(t)))
        assert abs(got - want) <= tol * _EPS * abs(want), (t, alpha, q)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(alpha=st.floats(0.0, 400.0, exclude_min=True),
                  q=st.floats(0.0, 169.0))
def test_exact_derivative_monomial_limit_at_zero(alpha, q):
    # the t -> 0+ limit of Gamma(q+1) / Gamma(x) t^(q-alpha), x = q + 1 -
    # alpha exactly: 0 for q > alpha, Gamma(q + 1) at q = alpha, and for
    # q < alpha 0 on a pole of Gamma(x), else inf signed like Gamma(x),
    # negative for x in (-2k - 1, -2k)
    got = exact_derivative_monomial(0.0, alpha, q)
    if q >= alpha:
        assert got == (exact_derivative_monomial(1.0, alpha, q)
                       if q == alpha else 0.0)
        return
    x = mpmath.fsub(mpmath.fadd(q, 1, exact=True), alpha, exact=True)
    floor = int(mpmath.floor(x))
    if x == floor <= 0:
        assert got == 0.0
    else:
        assert got == (-math.inf if x < 0 and floor % 2 else math.inf)


def _brute_force_reference(t, alpha, lam):
    """``I^alpha[e^(lam u)](t) = t^alpha 1F1(1; alpha + 1; lam t) /
    Gamma(alpha + 1)`` at 40 digits, ``lam`` real or imaginary."""
    with mpmath.workdps(40):
        x, a = mpmath.mpf(t), mpmath.mpf(alpha)
        return x**a * mpmath.hyp1f1(1, a + 1, lam * x) / mpmath.gamma(a + 1)


def _check_brute_force(f, t, alpha, tol, want, f_max):
    # the docstring's bound: tol bounds the error of the substituted
    # integral, so the result is within tol / (alpha Gamma(alpha)), plus
    # rounding, here 16 eps times I^alpha[|f|](t) <= max|f| t^alpha /
    # Gamma(alpha + 1) (measured at most 0.12 of the whole over 800 draws);
    # a refinement that cannot meet tol raises ToleranceNotMet instead
    try:
        got = brute_force_rl(f, t, alpha, tol)
    except ToleranceNotMet:
        return
    bound = (tol / (alpha * math.gamma(alpha))
             + 16 * _EPS * f_max * t**alpha / math.gamma(alpha + 1.0))
    assert abs(got - want) <= bound, (t, alpha, tol)


_BRUTE_ORDERS = st.floats(2.0**-1022, 1.0, exclude_max=True)
_BRUTE_TOLS = st.floats(1e-12, 1e-6)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(t=st.floats(0.0, 10.0, exclude_min=True),
                  alpha=_BRUTE_ORDERS, omega=st.floats(-10.0, 10.0),
                  tol=_BRUTE_TOLS)
def test_brute_force_rl_sin_within_bound(t, alpha, omega, tol):
    want = mpmath.im(_brute_force_reference(t, alpha, 1j * omega))
    _check_brute_force(lambda u: math.sin(omega * u), t, alpha, tol, want,
                       1.0)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(t=st.floats(0.0, 4.0, exclude_min=True),
                  alpha=_BRUTE_ORDERS, tol=_BRUTE_TOLS)
def test_brute_force_rl_exp_within_bound(t, alpha, tol):
    # t <= 4 keeps e^t eps under the smallest tol
    want = _brute_force_reference(t, alpha, 1)
    _check_brute_force(math.exp, t, alpha, tol, want, math.exp(t))

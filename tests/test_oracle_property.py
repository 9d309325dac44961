"""Property test: the closed-form oracles against 40-digit mpmath across
their domains, for results in the normal binary64 range."""

import math

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.oracle import (  # noqa: E402
    exact_derivative_exp,
    exact_integral_exp,
    exact_integral_monomial,
)
from test_special_property import branch_tol  # noqa: E402

_EPS = 2.0**-52
_NORMAL = (2.0**-1022, 2.0**1023)
#: Largest t with a finite e^t.
_EXP_MAX = 709.78


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(t=st.floats(0.0, _EXP_MAX),
                  alpha=st.floats(2.0**-1022, 170.0))
def test_exact_integral_exp_against_mpmath(t, alpha):
    # e^t gamma_lower(t, alpha) / Gamma(alpha): the incomplete gamma's
    # tolerance, plus 8 eps for e^t, Gamma(alpha), the product and the quotient
    # (alpha normal: Gamma of a subnormal alpha is past binary64)
    with mpmath.workdps(40):
        x, a = mpmath.mpf(t), mpmath.mpf(alpha)
        want = mpmath.exp(x) * mpmath.gammainc(a, 0, x) / mpmath.gamma(a)
        hypothesis.assume(_NORMAL[0] < want < _NORMAL[1])
        tol = branch_tol(t, alpha) + 8
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

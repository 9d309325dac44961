"""Property test: GL, NC0 and FLMM_TRAP weights against 40-digit mpmath at
random orders, steps and indices."""

import math
import warnings

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.exceptions import DomainError  # noqa: E402
from fracquad.weights import (  # noqa: E402
    Scheme,
    gl_weights,
    nc0_weights,
    starting_weight_table,
    weights_for_scheme,
)

_EPS = 2.0**-52


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(alpha=st.floats(-64.0, 64.0).filter(lambda a: a != 0.0),
                  dt=st.floats(1e-3, 10.0), k=st.integers(0, 65535))
def test_gl_weight_against_mpmath(alpha, dt, k):
    # the cumprod of (j - 1 + alpha) / j drifts linearly in k, the rounding
    # of j - 1 + alpha dropping the same low bits of alpha for every j in a
    # binade: measured at most (0.5 + k/4) eps at dt = 1 over every k below
    # 2^16 for 50 random orders in (-64, 64) (600 eps at k = 4000 for alpha
    # near 0.6, 7200 eps at k = 65535 for order -1.1); (8 + k/3) eps covers
    # that, dt^alpha and the product with it
    got = gl_weights(alpha, dt, k + 1).values[k]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = mpmath.rf(a, k) / mpmath.factorial(k) * mpmath.mpf(dt)**a
        if want == 0:  # a negative integer order ends its polynomial
            assert got == 0.0
            return
        hypothesis.assume(2.0**-1022 < abs(want) < 2.0**1023)
        tol = 8 + k / 3
        assert abs(got - want) <= tol * _EPS * abs(want), (alpha, dt, k)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(alpha=st.floats(1e-300, 16.0), dt=st.floats(1e-3, 1.0),
                  k=st.integers(0, 65535))
def test_nc0_weight_against_mpmath(alpha, dt, k):
    # k^alpha = exp(alpha ln k) and (1 + 1/k)^alpha - 1 = expm1(alpha
    # log1p(1/k)) take the rounding of their exponents, alpha ln(k + 1) eps
    # together; Gamma(alpha + 1) takes that of alpha + 1, psi(alpha + 1)
    # (alpha + 1) eps / 2 <= (alpha + 1) ln(alpha + 1) eps / 2; 8 eps cover
    # dt^alpha, Gamma and the three products (nc0_weights takes orders
    # above e^-700)
    got = nc0_weights(alpha, dt, k + 1).values[k]
    tol = 8 + alpha * math.log(k + 1) + (alpha + 1) * math.log(alpha + 1) / 2
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        # (k + 1)^a - k^a without the cancellation that leaves tiny orders
        # a few digits at 40
        bracket = (mpmath.mpf(k)**a * mpmath.expm1(a * mpmath.log1p(
            mpmath.mpf(1) / k)) if k else mpmath.mpf(1))
        want = mpmath.mpf(dt)**a / mpmath.gamma(a + 1) * bracket
        hypothesis.assume(2.0**-1022 < want)
        assert abs(got - want) <= tol * _EPS * want, (alpha, dt, k)


def _flmm_trap_coefficient(alpha, k):
    """Coefficient k of ((1 + z) / (1 - z))^alpha as sum_j C(alpha, j)
    b_(k-j), b the series of (1 - z)^-alpha, and the sum of the absolute
    terms, at the caller's mpmath precision."""
    a = mpmath.mpf(alpha)
    b = [mpmath.mpf(1)]
    for m in range(1, k + 1):
        b.append(b[-1] * (m - 1 + a) / m)
    total = absolute = mpmath.mpf(0)
    binom = mpmath.mpf(1)
    for j in range(k + 1):
        term = binom * b[k - j]
        total += term
        absolute += abs(term)
        binom *= (a - j) / (j + 1)
    return total, absolute


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(alpha=st.floats(-2.0, 2.0).filter(lambda a: a != 0.0),
                  dt=st.floats(1e-3, 10.0), k=st.integers(0, 1 << 14),
                  extra=st.integers(0, 5000))
def test_flmm_trap_weight_against_mpmath(alpha, dt, k, extra):
    # the documented bound of weights_for_scheme: within (k + 1) eps times
    # (dt/2)^alpha sum_j |C(alpha, j) b_(k-j)|, the cumprod of b drifting by
    # about k eps, plus (k + 1) 2^-1074 for the roundings of subnormal
    # weights (orders near 2^-1022); n = k + 1 + extra puts rules on both
    # sides of the engine's 3000-weight cutoff
    got = weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, k + 1 + extra)
    with mpmath.workdps(40):
        total, absolute = _flmm_trap_coefficient(alpha, k)
        scale = (mpmath.mpf(dt) / 2)**mpmath.mpf(alpha)
        err = abs(got.values[k] - total * scale)
        tol = (k + 1) * (_EPS * absolute * scale + 2.0**-1074)
        assert err <= tol, (alpha, dt, k, extra)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(s=st.integers(0, 3), n=st.integers(2, 3000),
                  alpha=st.floats(1.0, 60.0), share=st.floats(0.0, 1.0),
                  scheme=st.sampled_from([Scheme.GL, Scheme.FLMM_TRAP]))
def test_starting_weight_table_finite_or_domain_error(s, n, alpha, share,
                                                      scheme):
    # a = lgamma(s + 1 + alpha), b = (s + alpha) ln(N - 1) and c = |alpha
    # ln dt| each below 700 (alpha <= 60 keeps a and b there) but a + b + c
    # at least 700, where a check of each exponent alone misses overflow:
    # the table is finite or a DomainError, never inf cells or a
    # RuntimeWarning (alpha >= 1 keeps dt = e^(c / alpha) in binary64)
    a = math.lgamma(s + 1.0 + alpha)
    b = (s + alpha) * math.log(max(n - 1, 1))
    lo = max(0.0, 700.0 - a - b)
    c = lo + share * (700.0 - lo) * (1.0 - 2.0**-20)
    dt = math.exp(c / alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = starting_weight_table(
                weights_for_scheme(scheme, alpha, dt, n), s)
        except DomainError as exc:
            assert "binary64" in str(exc)
            return
    assert table.shape == (n, s + 1)
    assert np.isfinite(table).all()

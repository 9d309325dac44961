import math

import mpmath
import numpy as np
import pytest

from fracquad.exceptions import DomainError, PoleError
from fracquad.special import gamma, lower_incomplete_gamma

mpmath.mp.dps = 40


def test_gamma_reference_values():
    assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)
    assert gamma(5) == pytest.approx(24.0, rel=1e-15)
    assert gamma(1.0) == 1.0


def test_gamma_accuracy_sweep():
    # rel error <= 1e-13 across the supported range, against 40-digit values
    xs = np.concatenate([
        np.linspace(0.5, 10.0, 39),
        np.geomspace(10.0, 170.0, 25),
    ])
    for x in xs:
        want = float(mpmath.gamma(mpmath.mpf(float(x))))
        assert gamma(float(x)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -37.0])
def test_gamma_pole_rejection(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_overflow_policy():
    # math.gamma up to where Gamma itself leaves binary64 (x > 171.62)
    assert gamma(171.0) == math.gamma(171.0)
    with pytest.raises(OverflowError):
        gamma(171.7)


def test_gamma_negative_non_integer():
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


# 40-digit quadrature of the defining integral, rounded to double
INCOMPLETE_GAMMA_CASES = [
    (1.0, 0.5, 1.4936482656248540508),
    (2.5, 0.75, 1.1647958251098222893),
    (0.3, 0.25, 2.796544303225882754),
    (5.0, 1.5, 0.86977311630380579124),
    (8.0, 0.25, 3.6255448980376155589),
    (8.0, 0.75, 1.2252226939275367537),
    (25.0, 0.5, 1.7724538509027909508),
    # past 2^53, where the continued fraction's terms stop changing, and
    # past 2^1022, where it would start subnormal
    (1e30, 0.5, 1.7724538509055160273),
    (5e307, 0.5, 1.7724538509055160273),
    (1.7e308, 100.0, 9.3326215443944152682e155),
]


@pytest.mark.parametrize("t,alpha,want", INCOMPLETE_GAMMA_CASES)
def test_lower_incomplete_gamma_values(t, alpha, want):
    assert lower_incomplete_gamma(t, alpha) == pytest.approx(want, rel=1e-10)


def _series_terms(t, a):
    # terms of e^-t t^a sum t^n / (a (a+1) ... (a+n)) needed for binary64
    term = total = 1.0 / a
    n = 0
    while term > 2.0**-53 * total:
        n += 1
        term *= t / (a + n)
        total += term
    return n + 1


def branch_tol(t, a):
    """Relative tolerance of ``lower_incomplete_gamma(t, a)`` in eps."""
    # series: eps max(m, 16), m its term count; continued fraction: Gamma(a)
    # = exp(lgamma(a)) minus a tail of up to half of it, both some
    # |lgamma(a)| eps off, measured up to (16 + 3.4 |lgamma(a)|) eps
    if t < a + 1.0:
        return max(_series_terms(t, a), 16)
    return 16 + 5.0 * abs(math.lgamma(a))


def test_lower_incomplete_gamma_against_mpmath():
    # within eps max(m, 16) gamma_lower, m the positive series' term count;
    # the first cases sit where an alternating series loses 1e-9..1e-7, the
    # last two where t^alpha overflows binary64 and gamma_lower does not
    rng = np.random.default_rng(9)
    cases = [(19.9, 2.5), (19.9, 0.75), (20.0, 2.5), (3.999, 3.0),
             (4.0, 3.0), (1e-8, 0.05), (128.4, 154.2), (150.0, 160.0)]
    cases += [(float(rng.uniform(0.0, 40.0)), float(rng.uniform(0.05, 3.0)))
              for _ in range(300)]
    eps = np.finfo(float).eps
    for t, a in cases:
        want = mpmath.gammainc(a, 0, t)
        bound = eps * max(_series_terms(t, a), 16) * want
        assert abs(mpmath.mpf(lower_incomplete_gamma(t, a)) - want) <= bound, \
            (t, a)


def test_lower_incomplete_gamma_limits():
    assert lower_incomplete_gamma(0.0, 0.5) == 0.0
    # saturates at Gamma(alpha) once the upper tail is negligible
    assert lower_incomplete_gamma(200.0, 0.5) == pytest.approx(
        math.sqrt(math.pi), rel=1e-14)
    assert lower_incomplete_gamma(120.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert lower_incomplete_gamma(1e308, 2.0) == 1.0  # past 2^1022


@pytest.mark.parametrize("t,alpha", [(170.0, 175.0), (10.0, 1000.0),
                                     (300.0, 172.0), (1.7e6, 1.7e6),
                                     (1e10, 1e10), (0.998e10, 1e10),
                                     (1e10 + 2.0, 1e10), (1e200, 0.9e200)])
def test_lower_incomplete_gamma_overflow_raises(t, alpha):
    # past binary64 on the series branch with t^(alpha/2) finite, on the
    # series branch with it infinite, on the continued-fraction branch, and
    # where a branch needs over 10 000 terms (the series for alpha above
    # 1.69e6 and t above 0.9969 alpha, the continued fraction for alpha
    # above 1.35e9)
    with pytest.raises(OverflowError, match="binary64"):
        lower_incomplete_gamma(t, alpha)


def test_lower_incomplete_gamma_past_gamma_overflow():
    # Gamma(171.7) is past binary64 but gamma_lower(172.7, 171.7) is not:
    # the continued fraction's bound, (16 + 5 |lgamma(a)|) eps
    t, a = 172.7, 171.7
    want = mpmath.gammainc(a, 0, t)
    tol = (16 + 5.0 * math.lgamma(a)) * np.finfo(float).eps
    assert abs(lower_incomplete_gamma(t, a) - want) <= tol * want
    # gamma_lower(180, 179) = 3.36e324 is past it too
    with pytest.raises(OverflowError, match="binary64"):
        lower_incomplete_gamma(180.0, 179.0)


def test_lower_incomplete_gamma_monotone_and_bounded():
    # probes cover both branches: the series below alpha + 1 and the
    # continued fraction above
    for alpha in (0.25, 0.5, 0.75, 1.5, 3.0):
        cap = gamma(alpha)
        probes = np.concatenate([np.linspace(0.0, 15.0, 31),
                                 [25.0, 30.0, 50.0]])
        values = [lower_incomplete_gamma(float(t), alpha) for t in probes]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12 * cap)
        assert max(values) <= cap * (1.0 + 1e-12)


def test_lower_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        lower_incomplete_gamma(-0.1, 0.5)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, 0.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -2.0)


@pytest.mark.parametrize("t", [2.0**53, 1e154])
def test_lower_incomplete_gamma_branch_past_2_53(t):
    # t = alpha, where alpha + 1 rounds to alpha: the series branch and its
    # range error at this size (Gamma(t) / 2 is past binary64), not a
    # continued fraction that starts at b = t + 1 - alpha = 0 and divides by it
    with pytest.raises(OverflowError, match="binary64"):
        lower_incomplete_gamma(t, t)

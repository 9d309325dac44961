import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from fracquad.exceptions import DomainError
from fracquad.special import gamma
from fracquad.weights import (
    _BLOCK,
    Scheme,
    _trapezoid_rule,
    euler_flmm_weights,
    flmm_weights,
    gl_weights,
    nc0_weights,
    starting_weight_table,
    weights_for_scheme,
)


def test_gl_weights_examples():
    assert gl_weights(0.5, 1.0, 1).values == pytest.approx([1.0])
    assert gl_weights(0.5, 1.0, 3).values == pytest.approx([1.0, 0.5, 0.375])
    assert gl_weights(1.0, 0.1, 5).values == pytest.approx([0.1] * 5)


def test_gl_weights_match_binomial_definition():
    # values[k] = dt^alpha (-1)^k C(-alpha, k)
    alpha, dt = 0.7, 0.2
    w = gl_weights(alpha, dt, 30).values
    for k in range(30):
        want = dt**alpha * (-1) ** k * float(mpmath.binomial(-alpha, k))
        assert w[k] == pytest.approx(want, rel=1e-13)


def test_gl_integral_weights_positive():
    for alpha in (0.25, 0.5, 0.75):
        assert np.all(gl_weights(alpha, 0.5, 500).values > 0.0)


def test_gl_derivative_weights_signs_and_sums():
    for alpha in (0.25, 0.5, 0.75):
        n = 2000
        dt = 0.5
        w = gl_weights(-alpha, dt, n).values
        assert w[0] > 0.0
        assert np.all(w[1:] < 0.0)
        partial = np.cumsum(w)
        # partial sums stay positive, decay monotonically toward zero, and
        # telescope to dt^-alpha (-1)^n C(alpha-1, n) ~ n^-alpha
        assert np.all(partial > 0.0)
        assert np.all(np.diff(partial) < 0.0)
        want_last = (dt**-alpha * (-1) ** (n - 1)
                     * float(mpmath.binomial(alpha - 1.0, n - 1)))
        assert partial[-1] == pytest.approx(want_last, rel=1e-10)
        assert partial[-1] < 0.2 * partial[0]


def test_gl_weights_domain():
    with pytest.raises(DomainError):
        gl_weights(0.5, 0.0, 4)
    with pytest.raises(DomainError):
        gl_weights(0.5, -1.0, 4)
    with pytest.raises(DomainError):
        gl_weights(0.0, 1.0, 4)
    with pytest.raises(DomainError):
        gl_weights(0.5, 1.0, 0)


_GENERATORS = {
    "gl": gl_weights,
    "nc0": nc0_weights,
    "flmm": flmm_weights,
    "flmm-trap": lambda a, dt, n: weights_for_scheme(Scheme.FLMM_TRAP,
                                                     a, dt, n),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("family", sorted(_GENERATORS))
def test_non_finite_order_or_step_rejected(family, bad):
    # a NaN or infinite order or step would come out as NaN/inf weights
    with pytest.raises(DomainError):
        _GENERATORS[family](bad, 0.1, 8)
    with pytest.raises(DomainError):
        _GENERATORS[family](0.5, bad, 8)


@pytest.mark.parametrize("family, alpha, dt", [
    ("gl", 1e300, 0.5), ("flmm-trap", 1e300, 0.5), ("gl", -200.0, 1e-3),
    ("flmm", -200.0, 1e-3), ("flmm-trap", -200.0, 1e-3), ("gl", 2000.0, 1.5),
])
def test_overflowing_weights_rejected(family, alpha, dt):
    # a typed error and no RuntimeWarning on the way, not NaN weights or a
    # bare OverflowError: the cumulative product or dt^alpha (1e600 at
    # -200, 1e-3) passes binary64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="binary64"):
            _GENERATORS[family](alpha, dt, 10)


def test_nc0_weights_examples():
    assert nc0_weights(1.0, 0.1, 3).values == pytest.approx([0.1] * 3)
    w = nc0_weights(0.5, 1.0, 2).values
    assert w[0] == pytest.approx(1.1283791670955126, rel=1e-14)
    # (sqrt(2) - 1)/Gamma(1.5), 40-digit reference
    assert w[1] == pytest.approx(0.46738995451021814, rel=1e-12)


def test_nc0_weights_telescoping_sum():
    # sum of the first N weights == (dt N)^alpha / Gamma(alpha + 1)
    for alpha, dt, n in [(0.5, 0.01, 1000), (0.25, 0.1, 5000),
                         (1.5, 0.02, 777)]:
        total = float(np.sum(nc0_weights(alpha, dt, n).values))
        want = (dt * n) ** alpha / gamma(alpha + 1.0)
        assert total == pytest.approx(want, rel=1e-12)


def test_nc0_weights_domain():
    with pytest.raises(DomainError):
        nc0_weights(0.0, 1.0, 4)
    with pytest.raises(DomainError):
        nc0_weights(-0.5, 1.0, 4)
    with pytest.raises(DomainError):
        nc0_weights(0.5, 0.0, 4)


@pytest.mark.parametrize("alpha, n, method, count", [
    (0.5, 2**16, "fft", 2 * _BLOCK),  # the engine reads no more
    (0.5, 2**16, "direct", 2**16),
    (1.0, 2**16, "fft", 2**16),  # no far field
    (0.5, 2999, "fft", 2999),  # below the engine's cutoff
])
def test_trapezoid_rule_weight_count(alpha, n, method, count):
    assert len(_trapezoid_rule(alpha, 0.01, n, method).values) == count


def test_flmm_euler_reproduces_gl():
    for alpha in (0.25, 0.5, 0.75):
        e = euler_flmm_weights(alpha, 1.0, 2000).values
        g = gl_weights(alpha, 1.0, 2000).values
        assert np.max(np.abs(e - g) / np.abs(g)) < 1e-12


def test_flmm_alpha_one_is_classical_series():
    # power 1: the weights are the series of (1 + z) / (2 (1 - z)) itself
    w = flmm_weights(1.0, 0.1, 6).values
    assert w == pytest.approx([0.05, 0.1, 0.1, 0.1, 0.1, 0.1], rel=1e-14)


def test_flmm_trapezoid_against_binomial_convolution():
    # expand (1+z)^alpha and (1-z)^(-alpha) separately, convolve, scale
    alpha, n = 0.5, 50
    up = np.empty(n)
    up[0] = 1.0
    for k in range(1, n):
        up[k] = up[k - 1] * (alpha - k + 1) / k
    down = np.empty(n)
    down[0] = 1.0
    for k in range(1, n):
        down[k] = down[k - 1] * (k - 1 + alpha) / k
    want = np.convolve(up, down)[:n] * 2.0**-alpha
    got = weights_for_scheme(Scheme.FLMM_TRAP, alpha, 1.0, n).values
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 1.5, -0.5, -0.9])
def test_flmm_trapezoid_closed_form_against_mpmath(alpha):
    # w_k = (dt/2)^alpha sum_j a_j b_(k-j), a the (1+z)^alpha and b the
    # (1-z)^(-alpha) series; each weight within (k+1) eps sum_j |a_j b_(k-j)|
    n, dt = 2049, 0.0125
    got = weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, n).values
    ks = {0, 1, 2, n - 1}
    ks.update(int(k) for k in np.random.default_rng(4).integers(3, n - 1, 6))
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        scale = (mpmath.mpf(dt) / 2)**a
        plus, minus = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for j in range(1, n):
            plus.append(plus[-1] * (a - j + 1) / j)
            minus.append(minus[-1] * (j - 1 + a) / j)
        for k in sorted(ks):
            terms = [plus[j] * minus[k - j] for j in range(k + 1)]
            want = scale * mpmath.fsum(terms)
            bound = (k + 1) * eps * scale * mpmath.fsum(abs(x) for x in terms)
            assert abs(mpmath.mpf(got[k]) - want) <= bound, k


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, -0.5])
def test_flmm_trapezoid_closed_form_matches_generic_multistep(alpha):
    n, dt = 2000, 0.02
    closed = weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, n)
    miller = flmm_weights(alpha, dt, n)
    assert closed.scheme is miller.scheme is Scheme.FLMM_TRAP
    assert np.max(np.abs(closed.values - miller.values)
                  / np.abs(miller.values)) < 1e-12


def test_flmm_trapezoid_domain():
    for alpha, dt, n in [(0.0, 0.1, 8), (0.5, 0.0, 8), (0.5, -1.0, 8),
                         (0.5, 0.1, 0)]:
        with pytest.raises(DomainError):
            weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, n)
    assert weights_for_scheme(Scheme.FLMM_TRAP, 0.5, 0.5, 1).values == \
        pytest.approx([0.5])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="digest pins the x87 80-bit long double")
def test_miller_references_digest():
    # values, tags and errors of both Miller references, pinned bit for bit
    # to those of the generic long-division front end they replaced
    digest = hashlib.sha256()
    cases = [(a, 0.1, n) for a in (0.1, 0.5, 0.9, -0.5, 1.7, 2.5)
             for n in (1, 2, 50, 3000)]
    cases += [(math.nan, 0.1, 8), (0.5, 0.0, 8), (0.5, math.inf, 8),
              (0.5, 0.1, 0), (-200.0, 1e-3, 10), (0.0, 0.1, 8)]
    for reference in (flmm_weights, euler_flmm_weights):
        for alpha, dt, n in cases:
            try:
                w = reference(alpha, dt, n)
            except DomainError as exc:
                digest.update(repr(("DomainError", str(exc))).encode())
                continue
            digest.update(repr((w.scheme, w.alpha, w.dt, w.far_field))
                          .encode())
            digest.update(w.values.tobytes())
    assert digest.hexdigest() == (
        "91d9d1cf59be678a7adc5ecae96a74958a90fc18a7486f2a2eb02a2291d37706")


def test_weight_values_read_only():
    w = gl_weights(0.5, 1.0, 8)
    with pytest.raises(ValueError):
        w.values[0] = 2.0


def test_no_overflow_at_extreme_lengths():
    n = 1_000_000
    for alpha in (0.25, 0.75, -0.5, 2.5):
        assert np.all(np.isfinite(gl_weights(alpha, 0.01, n).values))
    assert np.all(np.isfinite(nc0_weights(0.5, 0.01, n).values))
    trap = weights_for_scheme(Scheme.FLMM_TRAP, 0.5, 0.01, 4096)
    assert np.all(np.isfinite(trap.values))


def test_starting_weight_row_single_equation():
    # s = 0: mu_n0 = Gamma(1)/Gamma(1+alpha) n^alpha - sum w_k, dt-scaled
    alpha, dt, n = 0.5, 0.25, 12
    w = gl_weights(alpha, dt, 32)
    row = starting_weight_table(w, 0)[n]
    omega = w.values / dt**alpha
    want = (n**alpha / gamma(1.0 + alpha) - np.sum(omega[: n + 1]))
    assert row[0] == pytest.approx(want * dt**alpha, rel=1e-12)


def test_starting_weight_rectangle_defect():
    # alpha = 1, s = 0: the rectangle rule overshoots constants by one
    # panel, so the correction is exactly -dt at every node
    w = gl_weights(1.0, 0.5, 16)
    row = starting_weight_table(w, 0)[4]
    assert row[0] == pytest.approx(-0.5, rel=1e-13)


@pytest.mark.parametrize("alpha", [160.0, 166.5, 168.0])
def test_starting_weight_table_rejects_overflowing_defects(alpha):
    # 99^(3 + alpha) or Gamma(4 + alpha) past e^700: a typed error before
    # any numpy work, not warnings then a singular system or a bare
    # OverflowError from gamma
    w = gl_weights(alpha, 0.01, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="binary64"):
            starting_weight_table(w, 3)


def test_starting_weight_table_reduced_head():
    w = gl_weights(0.5, 0.1, 16)
    table = starting_weight_table(w, 1)
    assert table.shape == (16, 2)
    # node 0 gets the degree-0 correction only
    assert table[0, 1] == 0.0
    assert table[0, 0] == pytest.approx(-w.values[0], rel=1e-13)


def test_starting_weight_domains():
    w = gl_weights(0.5, 0.1, 16)
    with pytest.raises(DomainError):
        starting_weight_table(w, 4)
    with pytest.raises(DomainError):
        starting_weight_table(nc0_weights(0.5, 0.1, 16), 1)

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fracquad
from fracquad.exceptions import (
    AlignmentError,
    DomainError,
    GridMismatchError,
    LengthError,
)
from fracquad.oracle import (
    exact_integral_const,
    exact_integral_exp,
    exact_integral_monomial,
)
from fracquad.quadrature import (
    SampledSignal,
    UniformGrid,
    frac_integral,
    frac_newton_cotes,
    frac_trapezoid,
    short_memory_integral,
)
from fracquad.derivative import gl_derivative
from fracquad.special import gamma
from fracquad.weights import (
    _BLOCK,
    _LEAF_CUTOFF,
    _MODES_CUTOFF,
    Scheme,
    WeightSequence,
    _evaluate,
    _modes,
    _monomial_defects,
    _newton_cotes_rule,
    _panel_moments,
    _Rule,
    flmm_weights,
    gl_weights,
    nc0_weights,
    starting_weight_table,
    weights_for_scheme,
)


def make_signal(fn, t_end, n):
    grid = UniformGrid(t_end / (n - 1), n)
    return SampledSignal.sample(fn, grid)


def test_grid_basics():
    grid = UniformGrid(0.25, 5)
    assert grid.t_end == 1.0
    assert np.array_equal(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        UniformGrid(0.0, 5)
    with pytest.raises(DomainError):
        UniformGrid(0.1, 0)


def test_signal_validation():
    grid = UniformGrid(0.1, 4)
    with pytest.raises(DomainError):
        SampledSignal(grid, np.ones(3))
    with pytest.raises(DomainError):
        SampledSignal(grid, [1.0, 2.0, np.nan, 4.0])


@pytest.mark.parametrize("fn", [lambda u: 1.0 / u, np.log],
                         ids=["reciprocal", "log"])
def test_sample_reports_a_pole_once(fn):
    # the pole at t = 0 is reported by the finiteness check alone, not also
    # by numpy's divide-by-zero warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must all be finite"):
            SampledSignal.sample(fn, UniformGrid(0.1, 4))


def test_nc0_exact_on_constants():
    sig = make_signal(lambda t: np.ones_like(t), 9.9, 100)
    w = nc0_weights(0.5, sig.grid.dt, 100)
    out = frac_integral(sig, w).values
    t = sig.grid.nodes
    want = np.array([exact_integral_const(x, 0.5) for x in t])
    assert np.max(np.abs(out - want)) < 1e-12


def test_gl_const_error_profile():
    # relative deviation below 0.1% away from the origin singularity
    sig = make_signal(lambda t: np.ones_like(t), 10.0, 1500)
    t = sig.grid.nodes
    for alpha in (0.25, 0.5, 0.75):
        w = gl_weights(alpha, sig.grid.dt, 1500)
        out = frac_integral(sig, w, method="fft").values
        want = t**alpha / math.gamma(alpha + 1.0)
        sel = t >= 6.0
        rel = np.abs(out[sel] - want[sel]) / want[sel]
        assert rel.max() < 1e-3


def test_gl_exp_against_closed_form():
    sig = make_signal(np.exp, 10.0, 1500)
    t = sig.grid.nodes
    for alpha in (0.25, 0.5, 0.75):
        w = gl_weights(alpha, sig.grid.dt, 1500)
        out = frac_integral(sig, w, method="fft").values
        sel = (t >= 1.0) & (t <= 8.0)
        want = np.array([exact_integral_exp(x, alpha) for x in t[sel]])
        rel = np.abs(out[sel] - want) / want
        assert rel.max() < 1e-2


def test_convention_at_origin():
    sig = make_signal(lambda t: 2.0 + 0.0 * t, 1.0, 9)
    gl = frac_integral(sig, gl_weights(0.5, sig.grid.dt, 9)).values
    nc = frac_integral(sig, nc0_weights(0.5, sig.grid.dt, 9)).values
    # GL references the sample at the node itself; NC0 has an empty panel sum
    assert gl[0] == pytest.approx(2.0 * sig.grid.dt**0.5)
    assert nc[0] == 0.0


def test_direct_and_fft_agree():
    rng = np.random.default_rng(42)
    for n in (257, 4096, 8192):
        grid = UniformGrid(0.01, n)
        sig = SampledSignal(grid, rng.standard_normal(n))
        w = gl_weights(0.5, grid.dt, n)
        d = frac_integral(sig, w, method="direct").values
        f = frac_integral(sig, w, method="fft").values
        scale = np.max(np.abs(d))
        assert np.max(np.abs(d - f)) < 1e-10 * scale


def test_mismatch_errors():
    sig = make_signal(np.exp, 1.0, 16)
    with pytest.raises(GridMismatchError):
        frac_integral(sig, gl_weights(0.5, 0.5, 16))
    with pytest.raises(LengthError):
        frac_integral(sig, gl_weights(0.5, sig.grid.dt, 8))
    with pytest.raises(DomainError):
        frac_integral(sig, gl_weights(0.5, sig.grid.dt, 16), method="simpson")


def test_linearity():
    rng = np.random.default_rng(7)
    grid = UniformGrid(0.02, 300)
    f = rng.standard_normal(300)
    g = rng.standard_normal(300)
    a, b = 2.5, -1.25
    w = gl_weights(0.6, grid.dt, 300)

    def integ(values):
        return frac_integral(SampledSignal(grid, values), w).values

    combined = integ(a * f + b * g)
    separate = a * integ(f) + b * integ(g)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) < 1e-12 * scale


def test_classical_limits_alpha_one():
    rng = np.random.default_rng(3)
    n = 129
    grid = UniformGrid(0.05, n)
    values = rng.standard_normal(n)
    sig = SampledSignal(grid, values)
    dt = grid.dt

    gl = frac_integral(sig, gl_weights(1.0, dt, n)).values
    assert np.max(np.abs(gl - dt * np.cumsum(values))) < 1e-11

    nc = frac_integral(sig, nc0_weights(1.0, dt, n)).values
    left_riemann = dt * np.concatenate(([0.0], np.cumsum(values[:-1])))
    assert np.max(np.abs(nc - left_riemann)) < 1e-11

    tr = frac_trapezoid(sig, 1.0).values
    classical_trap = np.concatenate(
        ([0.0], dt * np.cumsum(0.5 * (values[:-1] + values[1:]))))
    assert np.max(np.abs(tr - classical_trap)) < 1e-11

    simpson = frac_newton_cotes(sig, 1.0, 3).values
    for m in range(2, n, 2):
        want = dt / 3.0 * np.sum(
            values[0:m - 1:2] + 4.0 * values[1:m:2] + values[2:m + 1:2])
        assert simpson[m] == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("n, dt, method", [(100, 1e-3, "direct"),
                                          (5000, 1e-6, "fft")])
def test_trapezoid_of_samples_near_the_binary64_limit(n, dt, method):
    # f_k + f_(k+1) overflows above about 9e307; the panels average as
    # f_k / 2 + f_(k+1) / 2, so samples of 1e308 give 1e308 times the
    # result for ones, with no warning on the way
    grid = UniformGrid(dt, n)
    ones = frac_trapezoid(SampledSignal(grid, np.ones(n)), 0.5,
                          method=method).values
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = frac_trapezoid(SampledSignal(grid, np.full(n, 1e308)), 0.5,
                             method=method).values
    np.testing.assert_allclose(out, 1e308 * ones,
                               rtol=n * np.finfo(float).eps, atol=0.0)


def test_trapezoid_examples():
    # alpha = 1 on a linear integrand: classical trapezoid is exact
    sig = make_signal(lambda t: t, 1.0, 101)
    out = frac_trapezoid(sig, 1.0).values
    assert np.max(np.abs(out - sig.grid.nodes**2 / 2.0)) < 1e-12

    # constant integrand: identical to NC0 (average of equal endpoints)
    sig1 = make_signal(lambda t: np.ones_like(t), 2.0, 64)
    tr = frac_trapezoid(sig1, 0.3).values
    nc = frac_integral(sig1, nc0_weights(0.3, sig1.grid.dt, 64)).values
    assert np.max(np.abs(tr - nc)) < 1e-13

    # f(t) = t at alpha = 0.5: measurably better than the left NC0 rule
    sig2 = make_signal(lambda t: t, 1.0, 512)
    want = exact_integral_monomial(1.0, 0.5, 1.0)
    err_trap = abs(frac_trapezoid(sig2, 0.5).values[-1] - want)
    err_nc0 = abs(frac_integral(
        sig2, nc0_weights(0.5, sig2.grid.dt, 512)).values[-1] - want)
    assert err_trap * 2.0 <= err_nc0


def test_newton_cotes_polynomial_exactness():
    sig = make_signal(lambda t: t * t, 1.0, 65)
    out = frac_newton_cotes(sig, 1.0, 3).values
    assert np.max(np.abs(out - sig.grid.nodes**3 / 3.0)) < 1e-11

    sig2 = make_signal(lambda t: t, 1.0, 65)
    out2 = frac_newton_cotes(sig2, 0.5, 2).values
    want = np.array([exact_integral_monomial(x, 0.5, 1.0)
                     for x in sig2.grid.nodes])
    assert np.max(np.abs(out2 - want)) < 1e-10

    # quadratic exactness holds for fractional orders too
    out3 = frac_newton_cotes(sig, 0.5, 3).values
    want3 = np.array([exact_integral_monomial(x, 0.5, 2.0)
                      for x in sig.grid.nodes])
    assert np.max(np.abs(out3 - want3)) < 1e-10


@pytest.mark.parametrize("p, coeffs", [(2, (1.25, 0.75)),
                                       (3, (1.25, -0.5, 0.75))])
@pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 65, 1025, 4097])
@pytest.mark.parametrize("alpha, method", [
    pytest.param(alpha, method, id=str(alpha) + suffix)
    for method, suffix in (("direct", ""), ("fft", "-fft"))
    for alpha in (0.3, 0.81, 1.0, 1.7, 6.0)])
def test_newton_cotes_exact_to_rounding(p, coeffs, n, alpha, method):
    # degree p-1 polynomials are integrated exactly, so every node must be
    # within max(N, 64) eps I^alpha[|f|](t_n); f > 0 here, so that is the
    # exact value (fft runs the engine at 4097 nodes for alpha < 1).  The
    # floor covers the few eps of the first nodes, whatever N is: at N = 3
    # the 3-point rule reaches 13 N eps (alpha = 5.96), 0.62 of the floor
    grid = UniformGrid(3.1 / (n - 1), n)
    sig = SampledSignal(grid, np.polynomial.polynomial.polyval(
        grid.nodes, coeffs))
    out = frac_newton_cotes(sig, alpha, p, method=method).values
    eps = np.finfo(float).eps
    assert out[0] == 0.0
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        scale = [mpmath.mpf(c) * mpmath.gamma(q + 1) / mpmath.gamma(q + 1 + a)
                 for q, c in enumerate(coeffs)]
        for m in range(1, n):
            t = m * mpmath.mpf(grid.dt)
            want = t**a * mpmath.polyval(scale[::-1], t)
            tol = max(n, 64) * eps * want
            assert abs(mpmath.mpf(out[m]) - want) <= tol, m


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, 2.3, 4.3])
def test_panel_moments_against_mpmath(alpha):
    # int_{-1}^{1} s^q (C + s)^(alpha-1) ds on both sides of the series'
    # truncation switch at C = 33, as (1/alpha) int (v^(1/alpha) - C)^q dv
    # over v = (C + s)^alpha, whose integrand stays smooth at C = 1
    n = 4097
    moments = _panel_moments(alpha, n)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for c in (1, 3, 5, 9, 31, 33, 35, 2 * n - 1):
            for q in range(3):
                want = mpmath.quad(lambda v: (v**(1 / a) - c)**q,
                                   [(c - 1)**a, c**a, (c + 1)**a]) / a
                got = moments[q, (c - 1) // 2]
                assert abs(mpmath.mpf(got) - want) <= 4 * eps * abs(want), \
                    (c, q)


def _two_product(a, b):
    """Dekker's error-free product: ``a * b == prod + err`` exactly."""
    def halves(x):
        t = 134217729.0 * x  # 2^27 + 1
        hi = t - (t - x)
        return hi, x - hi

    prod = a * b
    ah, al = halves(a)
    bh, bl = halves(b)
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
    return prod, err


def _assert_exact_to_rounding(f, w, out, nodes, share=1.0, head=None):
    # out[m] within share * len(f) eps ((|f| * |w|)_m + |head[m]| . |f|) of
    # the exactly rounded sum, w zero beyond its length
    eps = share * np.finfo(float).eps
    for m in nodes:
        c = np.zeros(m + 1)
        k = min(m + 1, len(w))
        c[:k] = w[:k]
        f_m, c_m = f[: m + 1], c[::-1]
        if head is not None:
            f_m = np.concatenate((f_m, f[: head.shape[1]]))
            c_m = np.concatenate((c_m, head[m]))
        exact = math.fsum(np.concatenate(_two_product(f_m, c_m)))
        bound = len(f) * eps * float(np.dot(np.abs(f_m), np.abs(c_m)))
        assert abs(out[m] - exact) <= bound, m


@pytest.mark.parametrize("alpha", [0.5, -0.9])
@pytest.mark.parametrize("rate", [1.0, -1.0])
def test_direct_path_rounding_bound_long_signal(alpha, rate):
    # N above 10^4, on growing and decaying signals: each checked node is
    # within N eps (|f| * |w|)_n of the exactly rounded convolution
    n = 16385
    grid = UniformGrid(40.0 / (n - 1), n)
    sig = SampledSignal(grid, np.exp(rate * grid.nodes))
    w = gl_weights(alpha, grid.dt, n)
    out = frac_integral(sig, w, method="direct").values
    _assert_exact_to_rounding(sig.values, w.values, out, (
        0, 1, 2, 7, 40, 333, 1024, 4097, 8191, 10001, 14000, n - 1))


def _block_edge_nodes(n, rng):
    edges = {0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1,
             _LEAF_CUTOFF - 1, _LEAF_CUTOFF, n - 2, n - 1}
    picks = rng.integers(0, n, 12).tolist()
    return sorted(m for m in edges | set(picks) if 0 <= m < n)


#: A whole number of blocks above the leaf cutoff.
_BLOCKED_N = (_LEAF_CUTOFF // _BLOCK + 4) * _BLOCK


@pytest.mark.parametrize("n", [_LEAF_CUTOFF, _LEAF_CUTOFF + 1, _BLOCKED_N,
                               _BLOCKED_N + 1, 5003])
@pytest.mark.parametrize("alpha", [0.5, -0.9])
def test_blocked_direct_path_exact_to_rounding(n, alpha):
    # sizes on both sides of the np.convolve leaf and on block edges, with
    # signed samples so the sums cancel
    rng = np.random.default_rng(n)
    grid = UniformGrid(0.01, n)
    sig = SampledSignal(grid, rng.standard_normal(n) * np.exp(grid.nodes / 10))
    w = gl_weights(alpha, grid.dt, n)
    out = frac_integral(sig, w).values
    _assert_exact_to_rounding(sig.values, w.values, out,
                              _block_edge_nodes(n, rng))


@pytest.mark.parametrize("memory", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                    5003 // 3])
def test_blocked_short_memory_exact_to_rounding(memory):
    n = 5003
    rng = np.random.default_rng(memory)
    grid = UniformGrid(0.01, n)
    sig = SampledSignal(grid, rng.standard_normal(n))
    w = gl_weights(-0.5, grid.dt, n)
    out = short_memory_integral(sig, w, memory).values
    _assert_exact_to_rounding(sig.values, w.values[:memory], out,
                              _block_edge_nodes(n, rng) + [memory, memory + 1])


def test_blocked_direct_path_causality_bitwise():
    rng = np.random.default_rng(29)
    grid = UniformGrid(0.01, 5000)
    base = rng.standard_normal(5000)
    altered = base.copy()
    altered[3001:] += rng.standard_normal(1999)
    for w in (gl_weights(0.5, grid.dt, 5000),
              weights_for_scheme(Scheme.FLMM_TRAP, -0.7, grid.dt, 5000)):
        out = frac_integral(SampledSignal(grid, base), w).values
        alt = frac_integral(SampledSignal(grid, altered), w).values
        assert np.array_equal(out[:3001], alt[:3001])
        assert not np.array_equal(out[3001:], alt[3001:])


def test_blocked_gl_forward_mirrors_backward_bitwise():
    rng = np.random.default_rng(31)
    grid = UniformGrid(0.01, 3000)
    values = rng.standard_normal(3000)
    fwd = gl_derivative(SampledSignal(grid, values), 0.5,
                        direction="forward").values
    bwd = gl_derivative(SampledSignal(grid, values[::-1]), 0.5).values
    assert np.array_equal(fwd, bwd[::-1])


_POOL_PROBE = """
import hashlib, io, contextlib
import numpy as np
from fracquad import (SampledSignal, UniformGrid, frac_integral,
                      frac_trapezoid, gl_weights)
from fracquad.cli import main
from test_quadrature import _engine_case, _run
def digest(data):
    print(hashlib.sha256(data).hexdigest())
grid = UniformGrid(0.01, 5000)
sig = SampledSignal(grid, np.sin(grid.nodes) + np.exp(-grid.nodes))
digest(frac_integral(sig, gl_weights(0.5, grid.dt, 5000)).values.tobytes())
csv = io.StringIO()
with contextlib.redirect_stdout(csv):
    code = main(["integrate", "--f", "exp", "--alpha", "0.5", "--t-end", "10",
                 "--n", "5000"])
assert code == 0 and len(csv.getvalue().splitlines()) == 5001
digest(csv.getvalue().encode())
n = (1 << 14) + 1
grid = UniformGrid(40.0 / (n - 1), n)
sig = SampledSignal(grid, np.sin(grid.nodes) + np.exp(-grid.nodes))
digest(frac_trapezoid(sig, 0.5, method="fft").values.tobytes())
for family, alpha in [("gl", 0.5), ("gl", -0.9), ("flmm", 0.5), ("nc2", 0.5),
                      ("nc3", 0.5), ("gl", -1.5)]:
    digest(_run(_engine_case(family, alpha, grid.dt, n), sig, "fft").tobytes())
"""


@functools.cache
def _pool_digests():
    # one interpreter per thread count prints the probe's 9 hashes
    src = str(Path(fracquad.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, str(Path(__file__).parent), env.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", _POOL_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.split())
    return digests


def test_direct_path_independent_of_blas_pool_size():
    # the direct path and the CLI on it: the probe's first two hashes
    one, two = _pool_digests()
    assert len(one) == 9 and one[:2] == two[:2]


def test_fft_engine_independent_of_blas_pool_size():
    # the trapezoid and the engine over every family: the other seven
    one, two = _pool_digests()
    assert len(one) == 9 and one[2:] == two[2:]


def test_newton_cotes_beats_nc0_on_exp():
    want = exact_integral_exp(1.0, 0.5)
    errs = []
    for n in (64, 128, 256):
        sig = make_signal(np.exp, 1.0, n + 1)
        got = frac_newton_cotes(sig, 0.5, 2).values[-1]
        errs.append(abs(got - want))
        nc0 = frac_integral(
            sig, nc0_weights(0.5, sig.grid.dt, n + 1)).values[-1]
        assert abs(got - want) <= abs(nc0 - want)
    order = math.log(errs[-2] / errs[-1]) / math.log(2.0)
    assert order >= 1.8


@pytest.mark.parametrize("rule, alpha", [
    ("nc0", math.inf), ("nc0", 1e308), ("nc0", 100.0), ("trap", 1e308),
    ("nc2", 5e-324), ("nc3", math.inf), ("nc3", math.nan), ("nc3", 100.0),
])
def test_panel_rules_reject_overflowing_orders(rule, alpha):
    # a typed error and no RuntimeWarning on the way, whether the order is
    # not finite or Gamma(alpha + 1), 1 / alpha or a power of the rule
    # passes e^700 (100 log 8194 > 700)
    sig = make_signal(np.exp, 3.1, 4097)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            if rule == "nc0":
                nc0_weights(alpha, sig.grid.dt, sig.grid.n)
            elif rule == "trap":
                frac_trapezoid(sig, alpha)
            else:
                frac_newton_cotes(sig, alpha, int(rule[2]))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("alpha", [6.000000000000001, 12.0, 60.0])
def test_newton_cotes_refuses_orders_past_its_bound(alpha, p):
    # past alpha = 6 a starting column cancels the Toeplitz weight reaching
    # node 0 to rounding (at alpha = 12 the error reached 12 times the bound,
    # at alpha = 60 it read 0.0 for 3.85e-227): a typed error, no warning
    sig = make_signal(lambda t: 1.0 + t, 1.0, 257)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="alpha <= 6"):
            frac_newton_cotes(sig, alpha, p)


def test_newton_cotes_alignment():
    sig = make_signal(np.exp, 1.0, 64)  # 63 steps, does not tile by 2
    with pytest.raises(AlignmentError):
        frac_newton_cotes(sig, 0.5, 3)
    with pytest.raises(DomainError):
        frac_newton_cotes(sig, 0.5, 4)


def test_short_memory_full_window_is_bitwise_identical():
    sig = make_signal(np.exp, 1.0, 500)
    w = gl_weights(0.5, sig.grid.dt, 500)
    full = frac_integral(sig, w).values
    sm = short_memory_integral(sig, w, 500).values
    assert np.array_equal(full, sm)


def test_short_memory_truncation_contrast():
    # derivative-type kernels decay fast enough to truncate; integral-type
    # kernels do not: keeping a ~77-time-unit window of 512 samples holds
    # the derivative deviation under 1e-3 while the integral rule drifts
    # far past 1e-2
    grid = UniformGrid(0.15, 4096)
    t = grid.nodes
    sel = t > 5.0

    sig = SampledSignal(grid, np.sin(t))
    w_d = gl_weights(-0.5, grid.dt, grid.n)
    full_d = frac_integral(sig, w_d).values
    trunc_d = short_memory_integral(sig, w_d, 512).values
    assert np.max(np.abs(full_d[sel] - trunc_d[sel])) < 1e-3

    ones = SampledSignal(grid, np.ones(grid.n))
    w_i = gl_weights(0.5, grid.dt, grid.n)
    full_i = frac_integral(ones, w_i).values
    trunc_i = short_memory_integral(ones, w_i, 512).values
    assert np.max(np.abs(full_i[sel] - trunc_i[sel])) > 1e-2


def test_short_memory_domain():
    sig = make_signal(np.exp, 1.0, 32)
    w = gl_weights(0.5, sig.grid.dt, 32)
    with pytest.raises(DomainError):
        short_memory_integral(sig, w, 0)
    with pytest.raises(DomainError):
        short_memory_integral(sig, w, 33)


def test_semigroup_composition():
    # GL weights compose exactly: (1-z)^-a (1-z)^-b = (1-z)^-(a+b)
    n = 1000
    sig = make_signal(np.exp, 1.0, n)
    dt = sig.grid.dt
    twice = frac_integral(
        frac_integral(sig, gl_weights(0.4, dt, n)), gl_weights(0.3, dt, n))
    once = frac_integral(sig, gl_weights(0.7, dt, n))
    scale = np.max(np.abs(once.values))
    assert np.max(np.abs(twice.values - once.values)) < 1e-13 * scale

    # the NC0 panel rule composes only approximately, at its own order
    devs = []
    for m in (250, 500, 1000):
        s = make_signal(np.exp, 1.0, m)
        d = s.grid.dt
        two = frac_integral(
            frac_integral(s, nc0_weights(0.4, d, m)), nc0_weights(0.3, d, m))
        one = frac_integral(s, nc0_weights(0.7, d, m))
        devs.append(abs(two.values[-1] - one.values[-1]))
    order = math.log(devs[0] / devs[-1]) / math.log(4.0)
    assert 0.85 <= order <= 1.15


def test_first_order_convergence_gl_nc0():
    want = exact_integral_exp(1.0, 0.5)
    for maker in (
        lambda dt, n: gl_weights(0.5, dt, n),
        lambda dt, n: nc0_weights(0.5, dt, n),
    ):
        errs = []
        for n in (250, 500, 1000, 2000):
            sig = make_signal(np.exp, 1.0, n)
            got = frac_integral(sig, maker(sig.grid.dt, n)).values[-1]
            errs.append(abs(got - want))
        slopes = np.diff(-np.log2(errs))
        assert np.all((slopes >= 0.85) & (slopes <= 1.15))


def test_starting_corrections_restore_exactness():
    n = 64
    grid = UniformGrid(1.0 / (n - 1), n)
    w = gl_weights(0.5, grid.dt, n)

    ones = SampledSignal(grid, np.ones(n))
    out0 = frac_integral(ones, w, starting_degree=0).values
    want0 = np.array([exact_integral_const(x, 0.5) for x in grid.nodes])
    assert np.max(np.abs(out0 - want0)) < 1e-10

    ramp = SampledSignal(grid, grid.nodes)
    out1 = frac_integral(ramp, w, starting_degree=1).values
    want1 = np.array([exact_integral_monomial(x, 0.5, 1.0)
                      for x in grid.nodes])
    assert np.max(np.abs(out1 - want1)) < 1e-10


def test_flmm_trap_scheme_runs_through_integral():
    sig = make_signal(np.exp, 1.0, 400)
    w = weights_for_scheme(Scheme.FLMM_TRAP, 0.5, sig.grid.dt, 400)
    out = frac_integral(sig, w).values
    want = exact_integral_exp(1.0, 0.5)
    assert out[-1] == pytest.approx(want, rel=2e-3)


@pytest.mark.parametrize("family, alpha", [
    ("gl", 0.1), ("gl", 0.6), ("gl", 1.7), ("flmm", 0.05), ("flmm", 0.85),
    ("miller", 0.5), ("signs", 0.5)])
@pytest.mark.parametrize("n", [1025, 4097])
def test_monomial_defects_exact_to_rounding(family, alpha, n):
    # the nested prefix sums P_q(m) = sum_k w_k (m-k)^q behind the defects,
    # for weights of both signs, within the direct path's bound
    w = _engine_case(family, alpha, 1.0 / (n - 1), n)
    omega = w.values / w.dt**alpha
    nodes = np.arange(n, dtype=float)
    defects = _monomial_defects(w, 3, n - 1)
    check = _block_edge_nodes(n, np.random.default_rng(n + 1))
    for q in range(4):
        exact = (gamma(q + 1.0) / gamma(q + 1.0 + alpha)) * nodes**(q + alpha)
        _assert_exact_to_rounding(nodes**q, omega, exact - defects[q], check)


@pytest.mark.parametrize("method", ["direct", "fft"])
@pytest.mark.parametrize("n", [1025, 1 << 14])
@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("alpha", [0.3, 0.8])
@pytest.mark.parametrize("family", ["gl", "flmm"])
def test_starting_corrections_exact_on_polynomials(family, alpha, s, n,
                                                   method):
    # a degree-s polynomial comes out exact at every node m >= s, within
    # (N + s + 1) eps ((|f| * |w|)_m + |mu_m| . |f_(0..s)|) of the closed form
    rng = np.random.default_rng(s * n)
    grid = UniformGrid(2.0 / (n - 1), n)
    coeffs = rng.uniform(0.5, 2.0, s + 1)
    f = sum(c * grid.nodes**q for q, c in enumerate(coeffs))
    w = _engine_case(family, alpha, grid.dt, n)
    out = frac_integral(SampledSignal(grid, f), w, method=method,
                        starting_degree=s).values
    table = starting_weight_table(w, s)
    eps = np.finfo(float).eps
    for m in _block_edge_nodes(n, rng):
        if m < s:
            continue
        want = math.fsum(c * exact_integral_monomial(grid.nodes[m], alpha, q)
                         for q, c in enumerate(coeffs))
        scale = (np.dot(np.abs(f[: m + 1]), np.abs(w.values[m::-1]))
                 + np.dot(np.abs(table[m]), np.abs(f[: s + 1])))
        assert abs(out[m] - want) <= (n + s + 1) * eps * scale, m


# ------------------------------------------------ sum-of-exponentials engine
# ``method="fft"`` runs the engine: block lags 0 and 1 exact, older samples
# through geometric modes.  Its gate is a quarter of the direct path's
# rounding bound, against exactly rounded sums.
_ENGINE_SHARE = 0.25


def _engine_nodes(n, rng):
    # the first nodes, the near/far seam at 2L and the rows where the
    # doubling scan changes step, on top of the direct path's block edges
    edges = set(range(9)) | {2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK - 1,
                             3 * _BLOCK, 3 * _BLOCK + 1}
    edges |= {(2 + 2**j) * _BLOCK + d for j in range(12) for d in (-1, 0)}
    return sorted(m for m in edges | set(_block_edge_nodes(n, rng)) if m < n)


def _engine_case(family, alpha, dt, n):
    if family in ("nc2", "nc3"):
        return _newton_cotes_rule(alpha, dt, n, int(family[2]))
    if family == "gl":
        return gl_weights(alpha, dt, n)
    if family == "nc0":
        return nc0_weights(alpha, dt, n)
    if family == "miller":
        return flmm_weights(alpha, dt, n)
    if family == "signs":
        signs = np.random.default_rng(n).standard_normal(n)
        return WeightSequence(Scheme.GL, alpha, dt, signs)
    return weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, n)


def _run(case, sig, method):
    """Output of an ``_engine_case``: weights through their public entry
    point, a Newton-Cotes rule through the evaluator."""
    if isinstance(case, WeightSequence):
        return frac_integral(sig, case, method=method).values
    return _evaluate(sig.values, case, method)


def _mp_gl_weights(order, dt, n):
    # GL weights by the ratio recurrence in 30 digits, then rounded: the
    # binary64 cumprod drifts by about 0.1 k eps for orders below -1,
    # while the engine's modes follow the true weights
    with mpmath.workdps(30):
        a, w, out = mpmath.mpf(order), mpmath.mpf(dt)**order, [0.0] * n
        for k in range(n):
            out[k] = float(w)
            w *= (k + a) / (k + 1)
    return np.array(out)


@pytest.mark.parametrize("rule", ["gl 0.5", "gl -0.9", "trapezoid 0.5",
                                  "flmm 0.5"])
def test_fft_exact_to_rounding_on_growing_exp(rule):
    # e^t over [0, 40] at 2^16 nodes: an FFT loses every digit of the first
    # outputs (4e2-7e2 relative); the engine keeps them within its gate
    name, alpha = rule.split()
    alpha = float(alpha)
    n = 1 << 16
    grid = UniformGrid(40.0 / (n - 1), n)
    sig = SampledSignal(grid, np.exp(grid.nodes))
    nodes = _engine_nodes(n, np.random.default_rng(n))
    if name == "trapezoid":
        out = frac_trapezoid(sig, alpha, method="fft").values[1:]
        f = 0.5 * (sig.values[:-1] + sig.values[1:])
        w = nc0_weights(alpha, grid.dt, n - 1).values
        nodes = nodes[:-1]
    else:
        weights = _engine_case(name, alpha, grid.dt, n)
        out = frac_integral(sig, weights, method="fft").values
        f, w = sig.values, weights.values
    _assert_exact_to_rounding(f, w, out, nodes, share=_ENGINE_SHARE)


@pytest.mark.parametrize("family, alpha, n", [
    ("gl", 0.01, 5003), ("gl", 0.99, 5003), ("gl", 1.0 - 1e-9, 5003),
    ("gl", 1.0 - 2**-53, 5003), ("gl", -0.5, 5003), ("gl", -0.99, 5003),
    ("nc0", 0.05, 5003), ("nc0", 0.95, 5003), ("flmm", 0.1, 7001),
    ("flmm", -0.9, 7001), ("flmm", 0.1, (1 << 14) + 1),
    ("flmm", 0.9, (1 << 14) + 1), ("flmm", -0.9, (1 << 14) + 1),
    ("gl", -7.5, 5003),
] + [(family, alpha, n) for n in (5003, (1 << 14) + 1)
     for family, alpha in [("nc2", 0.1), ("nc2", 0.5), ("nc2", 0.9),
                           ("nc3", 0.1), ("nc3", 0.5), ("nc3", 0.9),
                           ("gl", -1.1), ("gl", -1.5), ("gl", -2.5)]])
def test_fft_engine_exact_to_rounding(family, alpha, n):
    # NC3's two mode terms each keep their own share, |A| + |B| <= 2 |v|
    rng = np.random.default_rng(n)
    grid = UniformGrid(0.01, n)
    case = _engine_case(family, alpha, grid.dt, n)
    share = _ENGINE_SHARE * (2 if family == "nc3" else 1)
    w = _mp_gl_weights(alpha, grid.dt, n) if alpha < -1 else case.values
    for values in (rng.standard_normal(n) * np.exp(grid.nodes / 10),
                   np.exp(-grid.nodes)):
        sig = SampledSignal(grid, values)
        out = _run(case, sig, "fft")
        assert not np.array_equal(out, _run(case, sig, "direct"))  # it ran
        f = values
        if family == "nc0":
            f, out = values[:-1], out[1:]
        _assert_exact_to_rounding(f, w, out, _engine_nodes(len(f), rng),
                                  share=share,
                                  head=getattr(case, "head", None))


@pytest.mark.parametrize("n", [_MODES_CUTOFF, 5003, 1 << 14])
@pytest.mark.parametrize("alpha", [0.3, 0.8, -0.5, -1.5])
def test_flmm_trap_weights_from_engine_exact_to_rounding(alpha, n):
    # from _MODES_CUTOFF on the FLMM_TRAP weights are the engine's product
    # of the binary64 (1+z)^alpha and (1-z)^(-alpha) series; at dt = 2 no
    # scale rounds, and weight k is within (k+1) eps sum_j |a_j b_(k-j)|
    k = np.arange(1.0, n)
    plus = np.cumprod(np.r_[1.0, (alpha - (k - 1.0)) / k])
    minus = np.cumprod(np.r_[1.0, (k - 1.0 + alpha) / k])
    got = weights_for_scheme(Scheme.FLMM_TRAP, alpha, 2.0, n).values
    assert not np.array_equal(got, _evaluate(plus, _Rule(minus), "direct"))
    for m in _engine_nodes(n, np.random.default_rng(n)):
        _assert_exact_to_rounding(plus[: m + 1], minus, got, [m])


@pytest.mark.parametrize("family, alpha, n", [
    ("gl", 0.5, 5000), ("gl", -0.9, 5000), ("nc0", 0.3, 5000),
    ("flmm", -0.7, 7000), ("nc2", 0.5, 5000), ("nc3", 0.5, 5001),
    ("gl", -1.5, 5000),
])
def test_fft_engine_causality_bitwise(family, alpha, n):
    rng = np.random.default_rng(37)
    grid = UniformGrid(0.01, n)
    base = rng.standard_normal(n)
    altered = base.copy()
    altered[3001:] += rng.standard_normal(n - 3001)
    case = _engine_case(family, alpha, grid.dt, n)
    out = _run(case, SampledSignal(grid, base), "fft")
    alt = _run(case, SampledSignal(grid, altered), "fft")
    assert not np.array_equal(out, _run(case, SampledSignal(grid, base),
                                        "direct"))
    assert np.array_equal(out[:3001], alt[:3001])
    assert not np.array_equal(out[3001:], alt[3001:])


@pytest.mark.parametrize("rule", ["integral", "nc2", "trapezoid"])
@pytest.mark.parametrize("n, value, dt", [
    (5000, 1e305, 1e-6), (20000, 1e305, 1e-8), (65536, 1e304, 1e-6)])
def test_fft_engine_state_keeps_large_samples(rule, n, value, dt):
    # the engine's mode state sums samples, up to N max|f|, past binary64
    # here unless each mode keeps it in units of a power of two near its
    # coefficient; the output is then the engine's on the samples scaled by
    # 2^-40, scaled back, bit for bit, and within the direct path's bound
    grid = UniformGrid(dt, n)

    def run(values, method):
        sig = SampledSignal(grid, values)
        if rule == "integral":
            return frac_integral(sig, gl_weights(0.5, dt, n),
                                 method=method).values
        if rule == "nc2":
            return frac_newton_cotes(sig, 0.5, 2, method=method).values
        return frac_trapezoid(sig, 0.5, method=method).values
    f = np.full(n, value)
    out = run(f, "fft")
    assert np.array_equal(out, np.ldexp(run(np.ldexp(f, -40), "fft"), 40))
    direct = run(f, "direct")
    assert np.all(np.abs(out - direct)
                  <= 1.5 * n * np.finfo(float).eps * direct)


@pytest.mark.parametrize("dt", [1e-6, 1e-12])
def test_fft_engine_state_scaling_with_tiny_samples(dt):
    # 3000 samples of 1e-300 before 2000 of 1e305: the engine's state scale
    # comes from the rule, not the samples, so every node keeps the bound of
    # test_fft_within_direct_bound, and the first 3000 outputs keep their
    # bits when the later samples change
    n = 5000
    f = np.r_[np.full(3000, 1e-300), np.full(2000, 1e305)]
    grid = UniformGrid(dt, n)
    w = gl_weights(0.5, dt, n)
    out = frac_integral(SampledSignal(grid, f), w, method="fft").values
    direct = frac_integral(SampledSignal(grid, f), w).values
    scale = np.convolve(np.abs(f), np.abs(w.values))[:n]
    assert np.all(np.abs(out - direct)
                  <= 1.5 * n * np.finfo(float).eps * scale)
    later = frac_integral(SampledSignal(grid, np.r_[f[:3000], np.ones(2000)]),
                          w, method="fft").values
    assert np.array_equal(out[:3000], later[:3000])


def test_fft_gl_forward_mirrors_backward_bitwise():
    rng = np.random.default_rng(41)
    grid = UniformGrid(0.01, 5000)
    values = rng.standard_normal(5000)
    fwd = gl_derivative(SampledSignal(grid, values), 0.5,
                        direction="forward", method="fft").values
    bwd = gl_derivative(SampledSignal(grid, values[::-1]), 0.5,
                        method="fft").values
    assert np.array_equal(fwd, bwd[::-1])


def test_fft_without_far_field_equals_direct_bitwise():
    # truncated and hand-built sequences carry no integral form
    rng = np.random.default_rng(43)
    n = 2 * _MODES_CUTOFF
    grid = UniformGrid(0.01, n)
    sig = SampledSignal(grid, rng.standard_normal(n))
    w = gl_weights(-0.5, grid.dt, n)
    for memory in (_BLOCK + 1, n // 2, n):
        assert np.array_equal(
            short_memory_integral(sig, w, memory, method="fft").values,
            short_memory_integral(sig, w, memory).values)
    hand = WeightSequence(Scheme.GL, -0.5, grid.dt, w.values)
    assert hand == w and not hand.far_field
    assert np.array_equal(frac_integral(sig, hand, method="fft").values,
                          frac_integral(sig, hand).values)


@pytest.mark.parametrize("n", [_MODES_CUTOFF - 1, _MODES_CUTOFF, 1 << 16])
def test_fft_trapezoid_equals_full_length_weights_bitwise(n):
    # the trapezoid sums the whole NC0 rule of n weights with its far field,
    # through the engine from _MODES_CUTOFF samples on and direct below
    grid = UniformGrid(10.0 / n, n)
    f = np.random.default_rng(n).standard_normal(n)
    averages = np.concatenate((0.5 * f[:-1] + 0.5 * f[1:], [0.0]))
    for alpha in (0.5, 0.3):
        c = nc0_weights(alpha, grid.dt, n)
        want = _evaluate(averages, c._rule, "fft")
        out = frac_trapezoid(SampledSignal(grid, f), alpha, method="fft")
        assert np.array_equal(out.values, want)


def test_two_term_rules_run_the_engine_from_their_own_cutoff():
    # two mode terms cost the engine more than one: below 1.5 _MODES_CUTOFF
    # samples NC3 runs direct bit for bit, above it NC3 and FLMM_TRAP both
    # run the engine
    for n in (4097, 4501):
        grid = UniformGrid(0.01, n)
        sig = SampledSignal(grid, np.random.default_rng(n).standard_normal(n))
        nc3 = [frac_newton_cotes(sig, 0.5, 3, method=m).values
               for m in ("fft", "direct")]
        assert np.array_equal(*nc3) == (n < 1.5 * _MODES_CUTOFF)
    flmm = weights_for_scheme(Scheme.FLMM_TRAP, 0.5, grid.dt, n)
    assert not np.array_equal(frac_integral(sig, flmm, method="fft").values,
                              frac_integral(sig, flmm).values)


def test_far_field_only_for_orders_below_one():
    # one far field per rule, a term per branch cut or parity: FLMM_TRAP at
    # -1.2 has none, its z < -1 term being of order 1.2
    dt, n = 0.01, 300
    for w in (gl_weights(1.0, dt, n), gl_weights(-2.0, dt, n),
              gl_weights(1.5, dt, n), gl_weights(-64.5, dt, n),
              nc0_weights(1.0, dt, n),
              nc0_weights(2.5, dt, n),
              weights_for_scheme(Scheme.FLMM_TRAP, 1.0, dt, n),
              weights_for_scheme(Scheme.FLMM_TRAP, -1.2, dt, n)):
        assert w.far_field is None

    def shape(far):
        return [(order, alternating) for _, order, _, alternating in far]
    for w in (gl_weights(0.7, dt, n), gl_weights(-1.5, dt, n),
              gl_weights(-63.5, dt, n), nc0_weights(0.7, dt, n)):
        assert shape(w.far_field) == [(w.alpha, False)]
    flmm = weights_for_scheme(Scheme.FLMM_TRAP, 0.7, dt, n)
    assert shape(flmm.far_field) == [(0.7, False), (-0.7, True)]
    assert _newton_cotes_rule(1.0, dt, 301, 3).far is None
    nc3 = _newton_cotes_rule(0.7, dt, 301, 3).far
    assert shape(nc3) == [(0.7, False), (0.7, True)]


def _mode_rel_errors(far, n, exact):
    # the modes of each term alone, against that term's own reference
    ks = sorted({_BLOCK + 1, _BLOCK + 2, 2 * _BLOCK, n - 1, n}
                | {int(k) for k in np.geomspace(_BLOCK + 1, n, 9)})
    errs = []
    for term, want in zip(far, exact, strict=True):
        u, c, alternating = _modes((term,), n)
        assert np.all(c > 0) or np.all(c < 0)
        for k in ks:
            sign = (-1.0)**k if alternating[0] else 1.0
            got = sign * math.fsum(c * np.exp(-u * k))
            errs.append(float(abs((mpmath.mpf(got) - want(k)) / want(k))))
    return errs


def _mp_gl(order, k):
    # (-1)^k C(-order, k); k + order formed in mpf
    a = mpmath.mpf(order)
    return mpmath.gamma(k + a) / (mpmath.gamma(a) * mpmath.gamma(k + 1))


#: The worst measured mode error, 2.7e-15 relative, is 0.002 of N eps at
#: N = 5001.
_MODE_SHARE = 0.01


def _mp_newton_cotes_terms(p, a):
    # per-term references of the Newton-Cotes Toeplitz weights at dt = 1:
    # the node basis functions of distance k against (k + y)^(a-1) / Gamma(a)
    def weight(basis, width):
        return lambda k: mpmath.quad(
            lambda y: basis(abs(y)) * (k + y)**(a - 1),
            [-width, 0, width]) / mpmath.gamma(a)
    if p == 2:
        return [weight(lambda y: 1 - y, 1)]
    end = weight(lambda y: (y - 1) * (y - 2) / 2, 2)
    mid = weight(lambda y: 1 - y * y, 1)
    return [lambda k: (end(k) + mid(k)) / 2,
            lambda k: (-1)**k * (end(k) - mid(k)) / 2]


def _mp_flmm_terms(a):
    # per-term references of the FLMM_TRAP weights at dt = 1, the integrals
    # along the cuts z > 1 and z < -1: sin(pi order) / pi int h(u) e^(-uk)
    # du with h ~ u^-order, taken in u = s^p, p = 1 / (1 - order), where
    # h du is smooth at s = 0
    def cut(order, h, alternating):
        p = 1 / (1 - order)
        scale = mpmath.sin(mpmath.pi * order) / mpmath.pi

        def weight(k):
            points = [0, (1 / mpmath.mpf(k))**(1 / p),
                      (40 / mpmath.mpf(k))**(1 / p), mpmath.inf]
            with mpmath.workdps(20):  # 1e-20 against errors of 1e-15
                value = scale * mpmath.quad(lambda s: p * s**(p - 1) * h(
                    s**p) * mpmath.exp(-k * s**p), points)
            return (-1)**k * value if alternating else value
        return weight
    return [cut(a, lambda u: (mpmath.coth(u / 2) / 2)**a, False),
            cut(-a, lambda u: (2 * mpmath.coth(u / 2))**-a, True)]


@pytest.mark.parametrize("n", [5001, 1 << 16])
@pytest.mark.parametrize("family, alpha", [
    ("gl", 0.01), ("gl", 0.5), ("gl", 0.99), ("gl", 1.0 - 1e-9),
    ("gl", -0.5), ("gl", -0.99), ("nc0", 0.05), ("nc0", 0.5),
    ("nc0", 0.95), ("flmm", 0.1), ("flmm", 0.5), ("flmm", 0.9),
    ("flmm", -0.5), ("flmm", -0.9), ("nc2", 0.1),
    ("nc2", 0.5), ("nc2", 0.9), ("nc3", 0.1), ("nc3", 0.5), ("nc3", 0.9),
    ("gl", -1.1), ("gl", -1.5), ("gl", -2.5), ("gl", -7.5),
])
def test_modes_match_mpmath_weights(family, alpha, n):
    # every term of the far field against its own reference
    eps = np.finfo(float).eps
    a = mpmath.mpf(alpha)
    with mpmath.workdps(30):
        w = _engine_case(family, alpha, 1.0, 3 * _BLOCK + 1)
        if family == "gl":
            exact = [lambda k: _mp_gl(a, k)]
        elif family == "nc0":
            exact = [lambda k: ((k + 1)**a - mpmath.mpf(k)**a)
                     / mpmath.gamma(a + 1)]
        elif family in ("nc2", "nc3"):
            exact = _mp_newton_cotes_terms(int(family[2]), a)
        else:
            exact = _mp_flmm_terms(a)
        far = (w._rule if isinstance(w, WeightSequence) else w).far
        errs = _mode_rel_errors(far, n, exact)
        assert max(errs) <= _MODE_SHARE * n * eps, errs

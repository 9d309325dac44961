import math

import numpy as np
import pytest

from fracquad.derivative import gl_derivative, rl_derivative_via_integral
from fracquad.exceptions import DomainError
from fracquad.oracle import (
    exact_derivative_monomial,
    exact_derivative_sin,
)
from fracquad.quadrature import SampledSignal, UniformGrid, frac_integral
from fracquad.weights import Scheme, gl_weights, nc0_weights


def make_signal(fn, t_end, n):
    grid = UniformGrid(t_end / (n - 1), n)
    return SampledSignal.sample(fn, grid)


def test_order_envelope():
    # the composition route differentiates floor(alpha) + 1 times: once
    # below order 1 (3 samples suffice), twice from order 1 on (4 needed);
    # it refuses negative orders
    for order, n_min in ((0.5, 3), (1.0, 4), (1.5, 4)):
        rl_derivative_via_integral(make_signal(np.exp, 1.0, n_min), order)
        with pytest.raises(DomainError, match=f"at least {n_min} samples"):
            rl_derivative_via_integral(make_signal(np.exp, 1.0, n_min - 1),
                                       order)
    with pytest.raises(DomainError, match="must be positive"):
        rl_derivative_via_integral(make_signal(np.exp, 1.0, 16), -0.5)


def test_gl_derivative_of_constant():
    # the RL derivative of a constant is c t^-alpha / Gamma(1 - alpha)
    sig = make_signal(lambda t: 3.0 + 0.0 * t, 20.0, 2001)
    out = gl_derivative(sig, 0.5).values
    t = sig.grid.nodes
    sel = t >= 10.0
    want = 3.0 * t[sel] ** -0.5 / math.gamma(0.5)
    rel = np.abs(out[sel] - want) / np.abs(want)
    assert rel.max() < 1e-3


def test_gl_alpha_one_is_backward_difference():
    rng = np.random.default_rng(11)
    grid = UniformGrid(0.1, 50)
    values = rng.standard_normal(50)
    sig = SampledSignal(grid, values)
    out = gl_derivative(sig, 1.0).values
    want = np.empty(50)
    want[0] = values[0] / grid.dt
    want[1:] = np.diff(values) / grid.dt
    assert np.max(np.abs(out - want)) < 1e-12


def test_gl_sinusoid_rule():
    sig = make_signal(np.sin, 40.0, 8001)
    out = gl_derivative(sig, 0.5).values
    t = sig.grid.nodes
    sel = (t >= 20.0) & (t <= 40.0)
    want = np.array([exact_derivative_sin(x, 1.0, 0.5) for x in t[sel]])
    # 1% of the unit asymptotic amplitude
    assert np.max(np.abs(out[sel] - want)) < 0.01


def test_gl_forward_direction_mirrors_backward():
    rng = np.random.default_rng(5)
    grid = UniformGrid(0.05, 64)
    values = rng.standard_normal(64)
    fwd = gl_derivative(SampledSignal(grid, values), 0.5,
                        direction="forward").values
    bwd = gl_derivative(SampledSignal(grid, values[::-1]), 0.5).values
    assert np.array_equal(fwd, bwd[::-1])
    with pytest.raises(DomainError):
        gl_derivative(SampledSignal(grid, values), 0.5, direction="sideways")


def test_rl_route_on_ramp():
    sig = make_signal(lambda t: t, 1.0, 513)
    out = rl_derivative_via_integral(sig, 0.5).values
    t = sig.grid.nodes
    sel = t >= 0.2
    want = np.array([exact_derivative_monomial(x, 0.5, 1.0) for x in t[sel]])
    rel = np.abs(out[sel] - want) / np.abs(want)
    assert rel.max() < 5e-3


def test_rl_route_monomial_ladder_first_order():
    # both routes converge to Gamma(q+1)/Gamma(q+1-alpha) t^(q-alpha)
    for q in (0.0, 1.0, 2.0):
        errs = {"gl": [], "rl": []}
        for n in (257, 513, 1025):
            sig = make_signal(lambda t: t**q, 1.0, n)
            t = sig.grid.nodes
            sel = t >= 0.5
            want = np.array([exact_derivative_monomial(x, 0.5, q)
                             for x in t[sel]])
            scale = np.max(np.abs(want)) if q > 0 else 1.0
            for route, out in (
                ("gl", gl_derivative(sig, 0.5).values),
                ("rl", rl_derivative_via_integral(sig, 0.5).values),
            ):
                errs[route].append(
                    np.max(np.abs(out[sel] - want)) / scale)
        for route, seq in errs.items():
            order = math.log(seq[0] / seq[-1]) / math.log(4.0)
            assert order >= 0.8, (route, q, seq)


def test_rl_route_close_to_classical_limit():
    sig = make_signal(lambda t: t, 1.0, 513)
    out = rl_derivative_via_integral(sig, 0.999).values
    sel = sig.grid.nodes >= 0.2
    assert np.max(np.abs(out[sel] - 1.0)) < 0.01


def test_rl_route_zero_order_is_identity():
    sig = make_signal(np.exp, 1.0, 64)
    out = rl_derivative_via_integral(sig, 0.0).values
    assert np.array_equal(out, sig.values)


def test_rl_route_second_envelope():
    # 1 <= alpha < 2 runs through a second difference
    sig = make_signal(lambda t: t**2, 1.0, 513)
    out = rl_derivative_via_integral(sig, 1.5).values
    t = sig.grid.nodes
    sel = t >= 0.2
    want = np.array([exact_derivative_monomial(x, 1.5, 2.0) for x in t[sel]])
    rel = np.abs(out[sel] - want) / np.abs(want)
    assert rel.max() < 5e-3
    with pytest.raises(DomainError):
        rl_derivative_via_integral(sig, 2.0)


def test_rl_route_second_difference_at_tiny_steps():
    # the second difference divides by dt twice, where dt^2 would underflow
    # below dt ~ 1.5e-162: at dt = 2^-566 every scale is a power of two, so
    # the output is that at dt = 1 times 2^(1.5 * 566) bit for bit; at
    # dt = 1e-170 the stencil cancels the same digits as at dt = 1
    def ones(dt):
        return SampledSignal(UniformGrid(dt, 50), np.ones(50))
    unit = rl_derivative_via_integral(ones(1.0), 1.5).values
    got = rl_derivative_via_integral(ones(2.0**-566), 1.5).values
    assert np.array_equal(got, np.ldexp(unit, 849))
    tiny = rl_derivative_via_integral(ones(1e-170), 1.5).values
    np.testing.assert_allclose(tiny, unit * 1e255, rtol=1e-10, atol=0.0)


def test_cross_method_agreement_on_decaying_exp():
    sig = make_signal(lambda t: np.exp(-t), 8.0, 2048)
    t = sig.grid.nodes
    sel = (t >= 1.0) & (t <= 8.0)
    direct = gl_derivative(sig, 0.5).values
    composed = rl_derivative_via_integral(
        sig, 0.5, scheme=Scheme.FLMM_TRAP).values
    rel = np.abs(direct[sel] - composed[sel]) / np.abs(composed[sel])
    assert rel.max() < 0.01
    # the GL-backed composition agrees more loosely but tightens at first
    # order under refinement
    deviations = []
    for n in (1024, 2048, 4096):
        s = make_signal(lambda t: np.exp(-t), 8.0, n)
        tt = s.grid.nodes
        m = (tt >= 1.0) & (tt <= 8.0)
        d = gl_derivative(s, 0.5).values
        c = rl_derivative_via_integral(s, 0.5, scheme=Scheme.GL).values
        deviations.append(np.max(np.abs(d[m] - c[m]) / np.abs(c[m])))
    order = math.log(deviations[0] / deviations[-1]) / math.log(4.0)
    assert order >= 0.8


def test_inverse_property():
    # the GL derivative inverts the GL integral exactly: the generating
    # functions multiply to 1, so the roundtrip is identity up to rounding
    sig = make_signal(np.exp, 2.0, 1025)
    w = gl_weights(0.5, sig.grid.dt, 1025)
    roundtrip = gl_derivative(frac_integral(sig, w), 0.5).values
    sel = sig.grid.nodes >= 1.0
    assert np.max(np.abs(roundtrip[sel] - sig.values[sel])
                  / sig.values[sel]) < 1e-12

    # across schemes the inversion is approximate and tightens at order 1
    errs = []
    for n in (513, 1025, 2049):
        s = make_signal(np.exp, 2.0, n)
        wn = nc0_weights(0.5, s.grid.dt, n)
        rt = gl_derivative(frac_integral(s, wn), 0.5).values
        m = s.grid.nodes >= 1.0
        errs.append(np.max(np.abs(rt[m] - s.values[m]) / s.values[m]))
    assert errs[-1] < 5e-3
    order = math.log(errs[0] / errs[-1]) / math.log(4.0)
    assert 0.85 <= order <= 1.15


def test_gl_derivative_rejects_nonpositive_order():
    sig = make_signal(np.exp, 1.0, 16)
    with pytest.raises(DomainError, match="must be positive"):
        gl_derivative(sig, 0.0)
    with pytest.raises(DomainError, match="must be positive"):
        gl_derivative(sig, -0.5)

"""Property test: the ``fft`` engine against the direct path on random
rules, sizes and signals."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.quadrature import (  # noqa: E402
    SampledSignal,
    UniformGrid,
    frac_integral,
    frac_newton_cotes,
)
from fracquad.weights import (  # noqa: E402
    Scheme,
    _newton_cotes_rule,
    gl_weights,
    weights_for_scheme,
)

_ORDERS = st.floats(-3.0, 1.0, exclude_min=True, exclude_max=True).filter(
    lambda a: a != round(a))
_FLMM_ORDERS = st.floats(-1.0, 1.0, exclude_min=True,
                         exclude_max=True).filter(lambda a: a != 0.0)


@st.composite
def _cases(draw):
    # N on both sides of the engine's cutoffs, 3000 samples for one mode
    # term and 4500 for two (FLMM_TRAP, NC3)
    n = draw(st.integers(3000, 6000))
    if draw(st.booleans()):
        return "gl", draw(_ORDERS), n
    if draw(st.booleans()):
        return "flmm", draw(_FLMM_ORDERS), n
    p = draw(st.sampled_from([2, 3]))
    alpha = draw(st.floats(1e-6, 1.0, exclude_max=True))
    return p, alpha, n | 1 if p == 3 else n


#: Two segments of magnitudes 10^e: the split and the two exponents.
_PROFILES = st.tuples(st.integers(0, 6000), st.integers(-308, 305),
                      st.integers(-308, 305))


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(case=_cases(), seed=st.integers(0, 2**32 - 1),
                  profile=_PROFILES, dt=st.sampled_from([1e-2, 1e-6, 1e-12]))
# tiny samples before huge ones: the first outputs keep the bound and do
# not depend on the later samples
@hypothesis.example(case=("gl", 0.5, 5000), seed=0, profile=(3000, -300, 305),
                    dt=1e-12)
def test_fft_within_direct_bound(case, seed, profile, dt):
    # both paths are within N eps (|f| * |w|)_n of the exact sum (the engine
    # a fraction of it), so they differ by at most 1.5 N eps (|f| * |w|)_n,
    # the head columns' terms included, plus what binary64 rounds absolutely
    # below 2^-1022: N 2^-1074 for the products, and 2^-1066 per subnormal
    # weight, which the engine's up to 255 modes stand in for, each off by
    # up to 2^-1075; and the engine is bitwise causal: outputs before the
    # split keep their bits when later samples change
    rule, alpha, n = case
    rng = np.random.default_rng(seed)
    grid = UniformGrid(dt, n)
    if rule in ("gl", "flmm"):
        weights = (gl_weights(alpha, dt, n) if rule == "gl" else
                   weights_for_scheme(Scheme.FLMM_TRAP, alpha, dt, n))
        w, head = weights.values, np.zeros((n, 0))

        def run(values, method):
            return frac_integral(SampledSignal(grid, values), weights,
                                 method=method).values
    else:
        nc = _newton_cotes_rule(alpha, dt, n, rule)
        w, head = nc.values, nc.head

        def run(values, method):
            return frac_newton_cotes(SampledSignal(grid, values), alpha, rule,
                                     method=method).values
    # magnitudes capped where (|f| * |w|)_n could leave binary64
    top = max(1.0, np.abs(w).sum() + np.abs(head).sum(axis=1).max(initial=0))
    split, low, high = min(profile[0], n), profile[1], profile[2]
    f = rng.standard_normal(n)
    f[:split] *= min(10.0**low, 1e305 / top)
    f[split:] *= min(10.0**high, 1e305 / top)
    fft, direct = run(f, "fft"), run(f, "direct")
    scale = (np.convolve(np.abs(f), np.abs(w))[:n]
             + np.abs(head) @ np.abs(f[: head.shape[1]]))
    tiny = np.convolve(np.abs(f), np.abs(w) < 2.0**-1022)[:n]
    assert np.all(np.abs(fft - direct)
                  <= 1.5 * n * np.finfo(float).eps * scale
                  + n * 2.0**-1074 + tiny * 2.0**-1066)
    later = np.r_[f[:split], rng.standard_normal(n - split)]
    assert np.array_equal(run(later, "fft")[:split], fft[:split])

"""Property test: the ``fft`` engine against the direct path on random
rules, sizes and signals."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.quadrature import (  # noqa: E402
    SampledSignal,
    UniformGrid,
    _newton_cotes_rule,
    frac_integral,
    frac_newton_cotes,
)
from fracquad.weights import (  # noqa: E402
    Scheme,
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


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(case=_cases(), seed=st.integers(0, 2**32 - 1))
def test_fft_within_direct_bound(case, seed):
    # both paths are within N eps (|f| * |w|)_n of the exact sum (the engine
    # a fraction of it), so they differ by at most 1.5 N eps (|f| * |w|)_n,
    # the head columns' terms included
    rule, alpha, n = case
    rng = np.random.default_rng(seed)
    grid = UniformGrid(0.01, n)
    sig = SampledSignal(grid, rng.standard_normal(n))
    if rule in ("gl", "flmm"):
        w = (gl_weights(alpha, grid.dt, n) if rule == "gl" else
             weights_for_scheme(Scheme.FLMM_TRAP, alpha, grid.dt, n))
        head = np.zeros((n, 0))
        fft, direct = (frac_integral(sig, w, method=m).values
                       for m in ("fft", "direct"))
        w = w.values
    else:
        w, _, head = _newton_cotes_rule(alpha, grid.dt, n, rule)
        fft, direct = (frac_newton_cotes(sig, alpha, rule, method=m).values
                       for m in ("fft", "direct"))
    f = np.abs(sig.values)
    for m in rng.integers(0, n, 8):
        scale = (np.dot(f[: m + 1], np.abs(w[m::-1]))
                 + np.dot(np.abs(head[m]), f[: head.shape[1]]))
        assert abs(fft[m] - direct[m]) <= 1.5 * n * np.finfo(float).eps * scale

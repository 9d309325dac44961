"""Property test: ``lower_incomplete_gamma`` against 40-digit mpmath on
both branches, for results in the normal binary64 range."""

import mpmath
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.special import lower_incomplete_gamma  # noqa: E402
from test_special import branch_tol  # noqa: E402

_EPS = 2.0**-52
_ORDERS = st.floats(0.01, 171.0)


@st.composite
def _cases(draw):
    # the series below t = a + 1, the continued fraction from there to 600
    a = draw(_ORDERS)
    if draw(st.booleans()):
        return draw(st.floats(0.0, a + 1.0, exclude_min=True,
                              exclude_max=True)), a
    return draw(st.floats(a + 1.0, a + 600.0)), a


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=_cases())
def test_lower_incomplete_gamma_within_branch_bound(case):
    t, a = case
    with mpmath.workdps(40):
        want = mpmath.gammainc(a, 0, t)
    hypothesis.assume(2.0**-1022 < want < 2.0**1023)
    tol = branch_tol(t, a)
    got = lower_incomplete_gamma(t, a)
    assert abs(mpmath.mpf(got) - want) <= tol * _EPS * want, (t, a)

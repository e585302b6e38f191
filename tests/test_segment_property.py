"""Property test of the tangent half-angle segment mean against libm sinc."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from util import segment_phasor, sinc_segment_phasor  # noqa: E402

BOUND = 1e6
PHASE = st.floats(-BOUND, BOUND, allow_nan=False, allow_infinity=False)
# Steps from zero through subnormals to about one radian.
SMALL_STEP = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _offset(step):
    return st.tuples(PHASE, step).map(lambda p: (p[0], p[0] + p[1]))


# A segment mean sinc(h) exp(i mid) has h = (b - a) / 2 and mid = (a + b) / 2;
# the kernel's tangents tan(h / 2) and tan(mid / 2) have poles at h = +-pi
# and at mid = odd multiples of pi.
TAN_POLE_STEP = _offset(st.sampled_from([2.0 * math.pi, -2.0 * math.pi]))
TAN_POLE_MID = st.tuples(
    st.integers(-int(BOUND / (2.0 * math.pi)), int(BOUND / (2.0 * math.pi)) - 1),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
).map(lambda p: ((2 * p[0] + 1) * math.pi - p[1], (2 * p[0] + 1) * math.pi + p[1]))
PAIRS = st.one_of(st.tuples(PHASE, PHASE), _offset(SMALL_STEP), TAN_POLE_STEP, TAN_POLE_MID)


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(PAIRS)
@example((0.0, 0.0))
@example((0.73, 0.73))
@example((0.0, 5e-324))
@example((1e-300, 1e-300 + 3e-310))
@example((0.0, 2.0 * math.pi))
@example((1.0, 1.0 - 2.0 * math.pi))
@example((math.pi, math.pi))
@example((-3.0 * math.pi - 0.5, -3.0 * math.pi + 0.5))
@example((-BOUND, BOUND))
def test_segment_phasor_matches_libm_sinc_form(pair):
    """For finite phases with |theta| <= 1e6 the kernel's segment mean agrees
    with the libm sinc form within 1e-14 and its squared magnitude is at
    most 1 + 1e-12, at zero and subnormal steps and at both tan poles too."""
    a, b = pair
    hypothesis.assume(abs(b) <= BOUND)
    got = segment_phasor(a, b)
    assert np.max(np.abs(got - sinc_segment_phasor(a, b))) <= 1e-14, (a, b)
    assert float((got**2).sum()) <= 1.0 + 1e-12, (a, b)

"""Properties of both steppers on random time-only linear problems.

For a time-only order and no nonlinear term the root solve has the same
step equation as the direct stepper, so the two traces agree to the root
solve's tolerance whatever the data. The step means are built from the
trace's own velocities, so they are its averages bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vofde import AlphaSpec, OscillatorProblem, solve_explicit, solve_implicit


def _order(lo, hi, shape):
    # order sweeping from lo to hi along a smooth profile of the given shape
    if shape == "constant":
        return AlphaSpec.constant(lo)
    if shape == "linear":
        return AlphaSpec.of_time(lambda t: lo + (hi - lo) * min(t, 1.0))
    return AlphaSpec.of_time(lambda t: lo + (hi - lo) * (1.0 - math.exp(-t)))


finite = dict(allow_nan=False, allow_infinity=False)

problems = st.builds(
    lambda a1, a2, a3, amp, freq, order, u0, v0, h, N: OscillatorProblem.build(
        a1=a1,
        a2=a2,
        a3=a3,
        p=lambda t: amp * math.sin(freq * t),
        alpha=_order(*order),
        u0=u0,
        v0=v0,
        T=N * h,
        h=h,
    ),
    a1=st.floats(0.1, 10.0, **finite),
    a2=st.floats(0.0, 5.0, **finite),
    a3=st.floats(0.0, 100.0, **finite),
    amp=st.floats(-10.0, 10.0, **finite),
    freq=st.floats(0.0, 10.0, **finite),
    order=st.tuples(
        st.floats(0.01, 0.99, **finite),
        st.floats(0.01, 0.99, **finite),
        st.sampled_from(["constant", "linear", "saturating"]),
    ),
    u0=st.floats(-5.0, 5.0, **finite),
    v0=st.floats(-5.0, 5.0, **finite),
    h=st.floats(1e-3, 0.1, **finite),
    N=st.integers(1, 60),
)


@settings(max_examples=50, deadline=None)
@given(problems)
def test_explicit_and_implicit_traces_agree(problem):
    a = solve_explicit(problem)
    b = solve_implicit(problem)
    for name in ("u", "udot", "uddot"):
        x, y = getattr(a, name), getattr(b, name)
        # the root solve's stopping scale max(1, |p|, |a3 u|) never falls
        # below 1, so its accuracy is absolute for a response smaller than 1
        scale = max(1.0, float(np.max(np.abs(x))))
        assert float(np.max(np.abs(x - y))) <= 1e-9 * scale, name
    assert np.array_equal(a.alpha_used, b.alpha_used)


@settings(max_examples=50, deadline=None)
@given(problems)
def test_step_means_are_the_trace_averages(problem):
    for trace in (solve_explicit(problem), solve_implicit(problem)):
        assert trace.udot_mean.shape == (trace.N,)
        expected = 0.5 * (trace.udot[:-1] + trace.udot[1:])
        assert trace.udot_mean.tobytes() == expected.tobytes()

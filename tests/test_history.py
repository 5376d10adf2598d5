"""The FFT history sums against one full weight row per node.

history_sums interpolates the centred kernel in the order, at Chebyshev
points of the orders' own range, so its error is measured against the
direct route of tests/oracles.py at the scale of the largest history,
max(1, max_n sum_r |c_r^n m_r|): per node, the error is relative to that
global scale, since a node's own sum can be tiny. The point rule itself is
checked against the kernel in long double, and the number of convolutions
a call takes is counted.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import direct_history_sums
from vofde import (
    SCENARIO_NAMES,
    AlphaSpec,
    Grid,
    OscillatorProblem,
    discrete_residuals,
    history_sums,
    scenario,
    solve_explicit,
    vo_derivative_series,
)
from vofde import vo_core
from vofde.cli import solve_problem
from vofde.errors import OrderDomainError

TOL = 1e-12

# an order range and grid, and the interpolation points of vo_core for them
LO, HI, N_POINTS, H_POINTS = 0.05, 0.95, 64, 0.05
POINTS = vo_core._interpolation_points(LO, HI, N_POINTS)[0].tolist()
EDGES = [0.25, 0.5, 0.75]
EXTREMES = [1e-12, 1.0 - 1e-12]
# orders spread over (0, 1), denser toward its ends and quarter points
_COS = np.cos(np.arange(1, 32, 2) * np.pi / 32.0)
SPREAD = [x for p in range(4) for x in ((p + 0.5 + 0.5 * _COS) / 4).tolist()][::5]


def assert_matches_direct(means, orders, h):
    fast = history_sums(means, orders, h)
    direct, scale = direct_history_sums(means, orders, h)
    assert fast.shape == direct.shape
    gap = float(np.max(np.abs(fast - direct)))
    assert gap <= TOL * scale, f"{gap:.3e} of scale {scale:.3e}"


orders = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from(EDGES + EXTREMES + POINTS),
)
steps = st.floats(1e-3, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 150).flatmap(
    lambda N: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N),
        st.lists(orders, min_size=N, max_size=N),
    )
), steps)
def test_orders_jumping_across_the_range(data, h):
    # independent orders per node, as a state-dependent order can give:
    # the ends of (0, 1) included
    means, alphas = data
    assert_matches_direct(means, alphas, h)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 150), st.floats(0.0, 50.0), orders, orders, steps)
# node 5 hits the middle of 5 points, where the other four terms of the
# barycentric denominator cancel to exactly 0
@example(9, 0.0, 0.804563330893698, 0.8031630396409507, 1.0)
def test_growing_means(N, rate, lo, hi, h):
    s = np.arange(1, N + 1) / N
    means = np.exp(rate * s) * np.cos(7.0 * s)
    alphas = lo + (hi - lo) * s
    assert_matches_direct(means, np.clip(alphas, 1e-12, 1.0 - 1e-12), h)


@pytest.mark.parametrize("alpha", EDGES + EXTREMES + SPREAD)
def test_constant_order_at_edges_points_and_ends(alpha):
    # one interpolation point, taken as is: no barycentric 0/0
    means = np.random.default_rng(7).standard_normal(400)
    with np.errstate(all="raise"):
        assert_matches_direct(means, np.full(400, alpha), 0.01)


def test_interpolation_points_hit_exactly():
    # an order equal to an interpolation point takes that point's
    # convolution instead of dividing by zero in the barycentric weights;
    # LO and HI fix the range, so the points are POINTS
    alphas = np.full(N_POINTS, LO)
    alphas[1] = HI
    alphas[2 : 2 + len(POINTS)] = POINTS
    means = np.linspace(1.0, 2.0, N_POINTS)
    with np.errstate(all="raise"):
        fast = history_sums(means, alphas, H_POINTS)
    direct, scale = direct_history_sums(means, alphas, H_POINTS)
    assert np.max(np.abs(fast - direct)) <= TOL * scale


def long_double_kernel(N, h):
    """alpha -> (t_k/tau)^(1-alpha) - (t_{k-1}/tau)^(1-alpha) in long double.

    t_k = k h for k = 1 .. N, and tau = h sqrt(N) centres log-time.
    """
    k = np.arange(1, N + 1, dtype=np.longdouble)
    tau = np.longdouble(h) * np.sqrt(np.longdouble(N))
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1
        logs, log1ms = np.log(k * np.longdouble(h) / tau), np.log1p(-1 / k)

    def kernel(alpha):
        b = 1 - np.longdouble(alpha)
        return np.exp(b * logs) * np.expm1(b * log1ms)

    return kernel


@pytest.mark.parametrize(
    "width,N,h",
    itertools.product([0.0, 1e-9, 1e-3, 0.3, 0.999], [1, 40, 5000], [1e-6, 1e-2, 100.0]),
)
def test_point_rule_interpolates_the_kernel_to_round_off(width, N, h):
    # at the points the rule picks, the barycentric interpolant of the exact
    # centred kernel meets it at every k <= N to an ulp of its largest
    # value; one point fewer leaves over 30 ulps at width 1e-3 for N >= 40,
    # and over 900 at N = 5000. The kernel is the same for every h
    kernel = long_double_kernel(N, h)
    for lo in (1e-12, 1.0 - 1e-12 - width):
        hi = lo + width
        nodes, bary = vo_core._interpolation_points(lo, hi, N)
        at_nodes = np.array([kernel(x) for x in nodes])
        largest = float(np.max(np.abs(at_nodes)))
        for alpha in np.linspace(lo, hi, 6).tolist():
            if nodes.size == 1:
                interpolant = at_nodes[0]
            elif alpha in nodes:
                continue
            else:
                c = (bary / (alpha - nodes)).astype(np.longdouble)
                interpolant = (c @ at_nodes) / c.sum()
            gap = float(np.max(np.abs(interpolant - kernel(alpha))))
            assert gap <= 4 * 2.0**-53 * largest, (lo, alpha, nodes.size, gap / largest)


def long_horizon_case(N=25000, T=5.0):
    # the long_horizon benchmark's order 0.8 (1 - e^-t), with oscillating means
    h = T / N
    t = h * np.arange(1, N + 1)
    means = 10.0 * np.cos(5.0 * t) + np.random.default_rng(3).standard_normal(N)
    return means, 0.8 * -np.expm1(-t), h


def test_convolution_counts(monkeypatch):
    # one inverse FFT per convolution
    calls = []
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: calls.append(None) or irfft(*args, **kw))

    def count(means, alphas, h):
        calls.clear()
        history_sums(means, alphas, h)
        return len(calls)

    means, alphas, h = long_horizon_case()
    assert count(means, alphas, h) <= 19
    assert count(means, np.full(means.size, 0.3), h) == 1
    assert count(means[:500], alphas[:500], 0.01) > 1


def test_long_horizon_matches_direct_rows_at_sampled_nodes():
    means, alphas, h = long_horizon_case()
    N = means.size
    nodes = sorted({1, 2, 3, N, *np.linspace(1, N, 150).astype(int).tolist()})
    fast = history_sums(means, alphas, h)[np.array(nodes) - 1]
    direct, scale = direct_history_sums(means, alphas, h, nodes)
    gap = float(np.max(np.abs(fast - direct)))
    assert gap <= TOL * scale, f"{gap:.3e} of scale {scale:.3e}"


@pytest.mark.parametrize(
    "name", [n for n in SCENARIO_NAMES if scenario(n, h=1.0).problem is not None]
)
def test_registry_oscillators_at_500_steps(name):
    T = scenario(name, h=1.0).grid.T
    problem = scenario(name, h=T / 500).problem
    trace = solve_problem(problem)
    assert trace.N == 500
    assert_matches_direct(trace.udot_mean, trace.alpha_used[1:], problem.grid.h)


def test_derivative_series_takes_the_same_route():
    grid = Grid.make(1.0, 1e-2)
    ts = grid.times()
    alpha_fn = lambda t: 0.95 - 0.9 * math.exp(-3.0 * t)
    out = vo_derivative_series(np.cos(ts), alpha_fn, grid)
    alphas = [alpha_fn(n * grid.h) for n in range(1, grid.N + 1)]
    direct, scale = direct_history_sums(0.5 * (np.cos(ts[:-1]) + np.cos(ts[1:])), alphas, grid.h)
    assert np.max(np.abs(out - direct)) <= TOL * scale


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mean_stays_local(bad):
    means = np.sin(np.arange(60.0))
    means[23] = bad  # step 24
    alphas = np.linspace(0.1, 0.9, 60)
    out = history_sums(means, alphas, 0.1)
    direct, scale = direct_history_sums(means[:23], alphas[:23], 0.1)
    assert np.max(np.abs(out[:23] - direct)) <= TOL * scale
    assert np.all(np.isnan(out[23:]))


def test_non_finite_first_mean():
    assert np.all(np.isnan(history_sums([math.nan, 1.0], [0.5, 0.5], 0.1)))


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_order_outside_domain_names_the_node(bad):
    alphas = np.full(10, 0.5)
    alphas[6] = bad
    alphas[8] = 2.0
    with pytest.raises(OrderDomainError) as err:
        history_sums(np.ones(10), alphas, 0.1)
    assert err.value.node == 7


def test_argument_contract():
    with pytest.raises(IndexError):
        history_sums(np.ones(4), np.full(3, 0.5), 0.1)
    with pytest.raises(ValueError):
        history_sums(np.ones(4), np.full(4, 0.5), 0.0)
    assert history_sums([], [], 0.1).shape == (0,)


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for n in range(1, 3000):
        length = vo_core._fft_length(n)
        assert length >= n and smooth(length), n
        assert not any(smooth(k) for k in range(n, length)), n


def damped_trace(T=1.0, h=0.01):
    problem = OscillatorProblem.build(
        a1=1.0, a2=1.0, a3=25.0, p=0.0,
        alpha=AlphaSpec.of_time(lambda t: 0.8 * (1.0 - math.exp(-t)) + 0.01),
        u0=1.0, v0=10.0, T=T, h=h,
    )
    return problem, solve_explicit(problem)


def test_reverification_names_the_node_of_a_bad_order():
    problem, trace = damped_trace()
    trace.alpha_used[42] = 1.0
    with pytest.raises(OrderDomainError) as err:
        discrete_residuals(problem, trace)
    assert err.value.node == 42
    assert "node 42" in str(err.value)


def test_reverification_locates_the_first_non_finite_mean():
    problem, trace = damped_trace()
    trace.udot_mean[30] = math.nan  # step 31
    res = discrete_residuals(problem, trace)
    assert np.all(np.abs(res[:31]) < 1e-12)
    assert np.all(np.isnan(res[31:]))
    assert int(np.argmax(~np.isfinite(res))) == 31


@pytest.mark.parametrize("alpha", [1e-12, 0.1])
def test_small_orders_match_a_long_double_sum(alpha):
    # random-sign means, where subtracting two powers of size ~k to form
    # d_k would leave errors of about one ulp of k in every weight
    N, h = 5000, 1e-3
    rng = np.random.default_rng(5)
    means = rng.choice([-1.0, 1.0], N) * rng.uniform(0.5, 1.5, N)
    one, a = np.longdouble(1), np.longdouble(alpha)
    k = np.arange(2, N + 1, dtype=np.longdouble)
    d = np.concatenate(([one], (k - 1) ** (one - a) * np.expm1((one - a) * np.log1p(one / (k - 1)))))
    factor = np.longdouble(h ** (1.0 - alpha) / (math.gamma(1.0 - alpha) * (1.0 - alpha)))
    exact = factor * np.convolve(d, means.astype(np.longdouble))[:N]
    gap = np.max(np.abs(history_sums(means, np.full(N, alpha), h) - exact))
    assert float(gap / np.max(np.abs(exact))) <= 1e-14

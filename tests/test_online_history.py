"""The steppers' sum-of-exponentials history against direct weight rows.

vo_core.ExpSumHistory replaces one weight row per node by about 200
exponential modes, so it is checked three ways: its kernel against d_k in
long double, its online state against direct row sums, and whole traces of
both steppers against the direct row stepper of tests/oracles.py.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import direct_solve
from vofde import SCENARIO_NAMES, AlphaKind, coefficient_row, scenario, solve_explicit, solve_implicit
from vofde.explicit_solver import _BLOCK, _CHUNK
from vofde.vo_core import ExpSumHistory, _far_factors

orders = st.floats(1e-12, 1.0 - 1e-12)


def exact_d(k, alpha):
    """d_k = k^(1-alpha) - (k-1)^(1-alpha) in long double, without cancellation."""
    one, a, k = np.longdouble(1), np.longdouble(alpha), np.longdouble(k)
    return (k - 1) ** (one - a) * np.expm1((one - a) * np.log1p(one / (k - 1)))


@settings(max_examples=300, deadline=None)
@given(orders, st.integers(3, 100_000), st.floats(0.0, 1.0))
def test_kernel_matches_d_k_to_round_off(alpha, N, place):
    k = 3 + round(place * (N - 3))
    history = ExpSumHistory(N)
    # one unit mean k - 3 steps back: each mode of the state has decayed by
    # e^(-s (k-3)), and at h = 1 the far sum is d_k / Gamma(2 - alpha)
    history.push(1.0)
    history.state[:-1] = np.exp(-np.exp(history.y[:-1]) * (k - 3))
    d = history.far_sum(1.0, alpha) * math.gamma(2.0 - alpha)
    exact = exact_d(k, alpha)
    assert abs(d - float(exact)) <= 1e-14 * float(exact)


@settings(max_examples=200, deadline=None)
@given(orders, st.floats(1e-3, 0.5), st.integers(0, 400).flatmap(
    lambda size: st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size)
))
@example(1e-12, 0.01, [1.0, -2.0, 3.0])
@example(1.0 - 1e-12, 0.01, [1.0, -2.0, 3.0])
def test_far_sum_equals_far_sums_at_one_node(alpha, h, means):
    # the implicit stepper's one exp and one dot against the first node of
    # a block, relative to the sum of the terms' sizes: far_sum takes its
    # factors from _far_factors' scalar branch, far_sums from its array
    # branch, and this bound of 4.5 ulps keeps the two one formula
    history = ExpSumHistory(max(len(means), 3))
    for mean in means:
        history.push(mean)
    block = np.array([alpha])
    gap = abs(history.far_sum(h, alpha) - float(history.far_sums(block, _far_factors(h, block))[0]))
    # the far weights, all positive, as the class docstring writes them
    scale, geometric = _far_factors(h, alpha)
    weights = np.exp(alpha * history.y) * history.factor * scale
    weights[-1] /= geometric
    assert gap <= 1e-15 * float(weights @ np.abs(history.state))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 150).flatmap(
    lambda N: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N),
        st.lists(orders, min_size=N, max_size=N),
    )
), st.floats(1e-3, 1.0))
def test_online_state_matches_direct_rows(data, h):
    # the known part of node n's sum covers the means of steps 1 .. n-2;
    # error measured at the scale of the largest history, as in test_history
    means, alphas = (np.array(x) for x in data)
    N = means.size
    history = ExpSumHistory(N)
    far, direct, scale = [], [], 1.0
    for n in range(3, N + 1):
        history.push(means[n - 3])
        far.append(history.far_sum(h, float(alphas[n - 1])))
        row = coefficient_row(n, h, float(alphas[n - 1]))[: n - 2]
        direct.append(float(row @ means[: n - 2]))
        scale = max(scale, float(np.abs(row) @ np.abs(means[: n - 2])))
    assert np.max(np.abs(np.subtract(far, direct)), initial=0.0) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 150).flatmap(
    lambda N: st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=N, max_size=N),
        st.lists(orders, min_size=N, max_size=N),
    )
), st.floats(1e-3, 1.0), st.integers(1, 64))
def test_block_state_matches_direct_rows(data, h, block):
    # the explicit stepper's form: the state advances a block of means at a
    # time, and far_sums gives the known sums of the nodes size + 2 on, at
    # their own orders, from steps 1 .. size alone
    means, alphas = (np.array(x) for x in data)
    N = means.size
    history = ExpSumHistory(N)
    worst, scale = 0.0, 1.0
    for size in range(0, N - 1, block):
        assert history.size == size
        nodes = np.arange(size + 2, min(size + 2 + block, N + 1))
        block_orders = alphas[nodes - 1]
        sums = history.far_sums(block_orders, _far_factors(h, block_orders))
        for n, got in zip(nodes.tolist(), sums.tolist()):
            row = coefficient_row(n, h, float(alphas[n - 1]))[:size]
            worst = max(worst, abs(got - float(row @ means[:size])))
            scale = max(scale, float(np.abs(row) @ np.abs(means[:size])))
        history.advance(means[size : size + block])
    assert worst <= 1e-13 * scale


@pytest.mark.parametrize("h", [1e-3, 0.37])
def test_far_sums_from_a_chunks_factors_equal_the_blocks_own(h):
    # the explicit solve forms _far_factors once per chunk of blocks and
    # hands each block its slice; the sums equal those from the block's own
    # factors bit for bit, partial last block included
    rng = np.random.default_rng(11)
    history = ExpSumHistory(5000)
    history.advance(rng.uniform(-1e3, 1e3, 700))
    extremes = [1e-12, 0.5, 1.0 - 1e-12]
    chunk = np.concatenate((extremes, rng.uniform(1e-9, 1.0 - 1e-9, (_CHUNK - 1) * _BLOCK + 20)))
    factors = np.array(_far_factors(h, chunk))
    for first in range(0, chunk.size, _BLOCK):
        block = slice(first, first + _BLOCK)
        own = history.far_sums(chunk[block], _far_factors(h, chunk[block]))
        assert np.array_equal(history.far_sums(chunk[block], factors[:, block]), own)


def registry_problems(kind):
    """The registry's oscillators with time-only (or any other) order, at N = 1."""
    out = []
    for name in SCENARIO_NAMES:
        problem = scenario(name, h=1.0).problem
        if problem is not None:
            explicit = problem.alpha.kind is AlphaKind.TIME_ONLY and problem.f_nl is None
            if explicit == (kind == "explicit"):
                out.append(name)
    return out


def at_steps(name, N):
    T = scenario(name, h=1.0).grid.T
    problem = scenario(name, h=T / N).problem
    assert problem.grid.N == N
    return problem


def worst_gap(a, b):
    """Largest gap of u, udot and uddot, each relative to max(1, its peak)."""
    return max(
        float(np.max(np.abs(getattr(a, k) - getattr(b, k))))
        / max(1.0, float(np.max(np.abs(getattr(b, k)))))
        for k in ("u", "udot", "uddot")
    )


@pytest.mark.parametrize("N", [500, 5000])
@pytest.mark.parametrize("name", registry_problems("explicit"))
def test_explicit_trace_matches_direct_stepper(name, N):
    problem = at_steps(name, N)
    assert worst_gap(solve_explicit(problem), direct_solve(problem)) <= 1e-13


@functools.lru_cache(maxsize=None)
def implicit_traces(name, N):
    """The implicit trace of a registry problem and its direct-row twin."""
    problem = at_steps(name, N)
    return solve_implicit(problem), direct_solve(problem, implicit=True)


@pytest.mark.parametrize("N", [500, 5000])
@pytest.mark.parametrize("name", registry_problems("implicit"))
def test_implicit_trace_matches_direct_stepper(name, N):
    # implicit traces are defined to the root-solve tolerance, so the bound
    # is the one of the cross-solver property tests
    fast, direct = implicit_traces(name, N)
    assert worst_gap(fast, direct) <= 1e-9


@pytest.mark.parametrize("name,N", [
    (name, N) for name in registry_problems("implicit") for N in (500, 5000)
])
def test_implicit_evaluation_counts_match_direct_stepper(name, N):
    fast, direct = implicit_traces(name, N)
    evals, direct_evals = int(fast.iterations.sum()), int(direct.iterations.sum())
    assert abs(evals - direct_evals) <= 0.01 * direct_evals

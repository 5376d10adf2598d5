"""Problem container, order specification, and the trace residual recheck."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from vofde import (
    AlphaKind,
    AlphaSpec,
    OscillatorProblem,
    discrete_residuals,
    solve_explicit,
    solve_implicit,
    stability_report,
    stability_report_along_trace,
)
from vofde.cli import solve_problem
from vofde.errors import DegenerateProblemError, OrderDomainError
from vofde.reference import SCENARIO_NAMES, scenario

from oracles import node_residuals


def damped_problem(h=0.01, T=1.0):
    return OscillatorProblem.build(
        a1=1.0, a2=1.0, a3=25.0, p=0.0,
        alpha=AlphaSpec.of_time(lambda t: 0.9999 - 1e-9 * math.exp(-t)),
        u0=1.0, v0=10.0, T=T, h=h,
    )


class TestAlphaSpec:
    def test_of_time_ignores_state(self):
        spec = AlphaSpec.of_time(lambda t: 0.3 + 0.1 * t)
        assert spec.kind is AlphaKind.TIME_ONLY
        assert spec.value_at(1.0, math.nan, math.nan) == pytest.approx(0.4)

    def test_of_state_sees_velocity(self):
        spec = AlphaSpec.of_state(lambda t, u, udot: 0.9 - 0.1 * math.tanh(abs(udot)))
        assert spec.kind is AlphaKind.STATE_DEPENDENT
        assert spec.value_at(0.0, 0.0, 0.0) == pytest.approx(0.9)
        assert spec.value_at(0.0, 0.0, 100.0) == pytest.approx(0.8, rel=1e-6)

    def test_constant(self):
        spec = AlphaSpec.constant(0.8)
        assert spec.kind is AlphaKind.TIME_ONLY
        assert spec.value_at(2.0, 5.0, -3.0) == 0.8

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.0 + 1e-12, math.nan])
    def test_range_enforced(self, value):
        spec = AlphaSpec(AlphaKind.TIME_ONLY, lambda t, u, v: value)
        with pytest.raises(OrderDomainError):
            spec.value_at(1.0, 0.0, 0.0)

    def test_error_carries_context(self):
        spec = AlphaSpec(AlphaKind.STATE_DEPENDENT, lambda t, u, v: 2.0)
        with pytest.raises(OrderDomainError) as err:
            spec.value_at(1.0, 0.0, 0.0, node=17, trial_q=-3.5)
        assert err.value.node == 17
        assert err.value.trial_q == -3.5


def initial_acceleration(prob):
    """uddot[0] of a solve: explicit, or implicit when there is an f_nl."""
    solve = solve_explicit if prob.f_nl is None else solve_implicit
    return solve(prob).uddot[0]


class TestInitialAcceleration:
    def test_zero_data(self):
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=1.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        assert initial_acceleration(prob) == 0.0

    def test_damped_benchmark_value(self):
        # q0 = (0 - 25 * 1) / 1; the history term vanishes at t = 0
        assert initial_acceleration(damped_problem()) == pytest.approx(-25.0)

    def test_nonlinear_term_included(self):
        prob = OscillatorProblem.build(
            a1=2.0, a2=1.0, a3=3.0, p=5.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=0.0, T=1.0, h=0.1,
            f_nl=lambda u, udot: u ** 3,
        )
        # (5 - 3*1 - 1) / 2
        assert initial_acceleration(prob) == pytest.approx(0.5)

    def test_time_varying_leading_coefficient(self):
        prob = OscillatorProblem.build(
            a1=lambda t: 1.0 + t * t, a2=lambda t: 0.1 * math.sqrt(t),
            a3=lambda t: 10.0 + math.exp(-t), p=12.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=1.0, T=1.0, h=0.1,
        )
        assert initial_acceleration(prob) == pytest.approx(1.0)

    def test_degenerate_leading_coefficient(self):
        prob = OscillatorProblem.build(
            a1=lambda t: t, a2=1.0, a3=1.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        with pytest.raises(DegenerateProblemError):
            initial_acceleration(prob)


class TestNodeData:
    def test_each_function_is_evaluated_once_per_node(self):
        # a solve, both stability reports and re-verification share the
        # problem's node_table and time_only_orders
        calls = Counter()

        def counted(name, fn):
            def wrapped(t):
                calls[name] += 1
                return fn(t)

            return wrapped

        prob = OscillatorProblem.build(
            a1=counted("a1", lambda t: 1.0 + 0.1 * t),
            a2=counted("a2", lambda t: 1.0 + 0.5 * math.cos(t)),
            a3=counted("a3", lambda t: 25.0 - t),
            p=counted("p", math.sin),
            alpha=AlphaSpec.of_time(counted("alpha", lambda t: 0.5 + 0.3 * math.exp(-t))),
            u0=1.0, v0=10.0, T=1.0, h=5e-3,
        )
        N = prob.grid.N
        trace = solve_explicit(prob)
        stability_report(prob)
        stability_report_along_trace(prob, trace)
        discrete_residuals(prob, trace)
        assert [calls[name] for name in ("a1", "a2", "a3", "p")] == [N + 1] * 4
        # a time-only order as well: march reads node 0 from time_only_orders
        assert calls["alpha"] == N + 1

    def test_cached_arrays_are_read_only(self):
        prob = damped_problem()
        assert prob.node_table.shape == (prob.grid.N + 1, 4)
        for cached in (prob.node_table, prob.time_only_orders):
            with pytest.raises(ValueError):
                cached[1] = 0.0
        assert prob.node_table is prob.node_table


class TestDiscreteResiduals:
    def test_trace_of_another_grid_is_refused(self):
        # the history sums would use the problem's h at the trace's times
        prob = scenario("ex2iii_d", 1e-2).problem
        trace = solve_explicit(scenario("ex2iii_d", 5e-3).problem)
        with pytest.raises(IndexError, match="1000 steps.* 500"):
            discrete_residuals(prob, trace)

    def test_vanishing_leading_coefficient_on_the_grid_is_degenerate(self):
        # on the grid's own times the data come from node_table and its a1
        # check; a trace off the grid is evaluated where it is
        good = damped_problem(h=0.01, T=2.0)
        bad = replace(good, a1=lambda t: 1.0 - t)
        trace = solve_explicit(good)
        with pytest.raises(DegenerateProblemError) as err:
            discrete_residuals(bad, trace)
        assert err.value.step == 100
        trace.t[1:] += 1e-3
        assert np.isfinite(discrete_residuals(bad, trace)).all()

    def test_solved_trace_satisfies_the_equations(self):
        prob = damped_problem(h=0.01, T=0.5)
        trace = solve_explicit(prob)
        res = discrete_residuals(prob, trace)
        assert res.shape == (trace.N + 1,)
        assert float(np.max(np.abs(res))) < 1e-12

    def test_perturbed_trace_is_flagged(self):
        prob = damped_problem(h=0.01, T=0.5)
        trace = solve_explicit(prob)
        trace.u[7] += 1e-3
        res = discrete_residuals(prob, trace)
        assert abs(res[7]) > 1e-6

    # ex1i and ex1ii are derivative benchmarks with no oscillator
    @pytest.mark.parametrize("name", [n for n in SCENARIO_NAMES if not n.startswith("ex1")])
    def test_bitwise_equal_to_node_loop(self, name):
        prob = scenario(name, 0.05).problem
        trace = solve_problem(prob)
        assert discrete_residuals(prob, trace).tobytes() == node_residuals(prob, trace).tobytes()

    def test_nan_and_off_grid_times_match_node_loop(self):
        # a trace read back from a file carries its own times; a nan step
        # mean poisons the residuals from its node on
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=lambda t: 10.0 * t,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=10.0, T=0.5, h=0.01,
        )
        trace = solve_explicit(prob)
        trace.t[5] += 1e-3
        trace.udot_mean[20] = math.nan
        trace.u[30] = math.inf
        res = discrete_residuals(prob, trace)
        np.testing.assert_array_equal(res, node_residuals(prob, trace))
        assert np.isnan(res[21:]).all() and np.isfinite(res[:21]).all()
        assert abs(res[5]) > 1e-6

    def test_trace_shapes(self):
        prob = damped_problem(h=0.01, T=0.5)
        trace = solve_explicit(prob)
        N = prob.grid.N
        assert trace.t.shape == (N + 1,)
        assert trace.u.shape == (N + 1,)
        assert trace.udot.shape == (N + 1,)
        assert trace.uddot.shape == (N + 1,)
        assert trace.alpha_used.shape == (N + 1,)
        assert trace.udot_mean.shape == (N,)
        assert trace.iterations is None
        assert stability_report(prob).rho.shape == (N,)
        assert np.allclose(
            trace.udot_mean, 0.5 * (trace.udot[:-1] + trace.udot[1:])
        )

"""Per-step root solve: the scalar reduction, iteration behavior, limits.

The 2x2 elimination oracle in TestStateFromQ rebuilds the update relations
as a linear system and solves them with numpy, independently of the
closed-form inversion under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import history_of, node_coeffs, node_weights
from oracles import step_residual, stepwise_solve
from vofde import (
    AlphaKind,
    AlphaSpec,
    OscillatorProblem,
    StepState,
    discrete_residuals,
    solve_explicit,
    solve_implicit,
)
from vofde import implicit_solver
from vofde.errors import DegenerateProblemError, OrderDomainError, StepFailureError
from vofde.explicit_solver import load_term, state_from_q
from vofde.implicit_solver import solve_step_nonlinear
from vofde.reference import SCENARIO_NAMES, default_horizon, scenario

# the registry's scenarios that have an oscillator (ex1i and ex1ii have none)
OSCILLATORS = [name for name in SCENARIO_NAMES if scenario(name, 1.0).problem is not None]


def registry_problem(name, N):
    """Scenario name on N steps of its default horizon; name:state re-declares its order."""
    name, _, state = name.partition(":")
    problem = scenario(name, default_horizon(name) / N).problem
    return replace(problem, alpha=AlphaSpec.of_state(problem.alpha.eval)) if state else problem


class TestStateFromQ:
    def test_free_drift(self):
        # zero acceleration keeps the velocity and advances the displacement
        udot, u = state_from_q(0.0, StepState(0.0, 2.0, 1.0), 0.1)
        assert udot == pytest.approx(2.0)
        assert u == pytest.approx(1.2)

    def test_constant_acceleration_is_exact(self):
        # q = const: u = u0 + v0 h + q h^2 / 2 must hold exactly per step
        q, h = 3.0, 0.05
        udot, u = state_from_q(q, StepState(q, 1.0, 0.0), h)
        assert udot == pytest.approx(1.0 + q * h)
        assert u == pytest.approx(1.0 * h + 0.5 * q * h * h, rel=1e-14)

    def test_against_linear_system_oracle(self):
        # the update relations as a 2x2 system in (udot_n, u_n)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            q_n, q_p, v_p, u_p = rng.normal(size=4)
            h = float(rng.uniform(1e-4, 0.3))
            lhs = np.array([[1.0, 0.0], [-h, 1.0]])
            rhs = np.array(
                [v_p + 0.5 * h * (q_n + q_p), u_p - 0.25 * h * h * (q_n + q_p)]
            )
            ref = np.linalg.solve(lhs, rhs)
            udot, u = state_from_q(q_n, StepState(q_p, v_p, u_p), h)
            assert udot == pytest.approx(ref[0], abs=1e-14)
            assert u == pytest.approx(ref[1], abs=1e-13)

    def test_affine_in_q(self):
        # sensitivities dudot/dq = h/2 and du/dq = h^2/4, independent of q
        h = 0.02
        prev = StepState(-1.0, 0.7, 0.3)
        v0, u0 = state_from_q(0.0, prev, h)
        v1, u1 = state_from_q(1.0, prev, h)
        v2, u2 = state_from_q(2.0, prev, h)
        assert v1 - v0 == pytest.approx(0.5 * h, abs=1e-13)
        assert v2 - v1 == pytest.approx(0.5 * h, abs=1e-13)
        assert u1 - u0 == pytest.approx(0.25 * h * h, abs=1e-13)
        assert u2 - u1 == pytest.approx(0.25 * h * h, abs=1e-13)


def residual(q_n, n, problem, prev, hist):
    """The oracle's step residual at node n, with the order read at the trial state."""
    h = problem.grid.h
    udot_n, u_n = state_from_q(q_n, prev, h)
    weights = node_weights(n, h, problem.alpha.value_at(n * h, u_n, udot_n), hist)
    coeffs = node_coeffs(problem, n)
    g = load_term(coeffs, n, weights, hist[0])
    return step_residual(problem, n, (q_n, udot_n, u_n), weights, g, prev, coeffs)


class TestResidual:
    def test_explicit_step_satisfies_residual(self):
        # the direct stepper's result must be a root of the scalar equation
        scn = scenario("ex2i", 1e-2, T=1.0)
        prob = scn.problem
        trace = solve_explicit(prob)
        n = 30
        prev = StepState(trace.uddot[n - 1], trace.udot[n - 1], trace.u[n - 1])
        hist = history_of(trace.udot[:n])
        val = residual(float(trace.uddot[n]), n, prob, prev, hist)
        assert abs(val) < 1e-10

    def test_zero_problem_zero_residual(self):
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        hist = history_of([0.0])
        assert residual(0.0, 1, prob, StepState(0.0, 0.0, 0.0), hist) == 0.0


class TestSolveStepNonlinear:
    def test_zero_problem_converges_in_one_evaluation(self):
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        state, a_star, evals = solve_step_nonlinear(
            1, prob, StepState(0.0, 0.0, 0.0), history_of([0.0]), node_coeffs(prob, 1), 0.0
        )
        assert state == StepState(0.0, 0.0, 0.0)
        assert evals == 1

    def test_first_step_acceleration_near_truth(self):
        # manufactured u = t^2 has uddot = 2 everywhere; one step from exact
        # initial data must land within discretization error of it
        for h in (1e-2, 1e-3):
            scn = scenario("ex4", h)
            prob = scn.problem
            # the history vanishes at t = 0, so q0 solves the equation without it
            q0 = prob.p(0.0) - prob.a3(0.0) * prob.u0 - prob.f_nl(prob.u0, prob.v0)
            q0 /= prob.a1(0.0)
            state, _, _ = solve_step_nonlinear(
                1, prob, StepState(q0, prob.v0, prob.u0), history_of([prob.v0]),
                node_coeffs(prob, 1), q0,
            )
            assert abs(state.q - 2.0) <= h

    def test_iteration_cap_raises_with_context(self, monkeypatch):
        monkeypatch.setattr(implicit_solver, "_MAX_ITERS", 2)
        scn = scenario("ex3iii", 1e-2)
        prob = scn.problem
        q0 = (prob.p(0.0) - prob.a3(0.0) * prob.u0) / prob.a1(0.0)  # ex3iii is linear
        with pytest.raises(StepFailureError) as err:
            solve_step_nonlinear(
                1, prob, StepState(q0, prob.v0, prob.u0), history_of([prob.v0]),
                node_coeffs(prob, 1), q0,
            )
        assert err.value.step == 1
        assert err.value.last_q is not None
        assert err.value.residual is not None

    @pytest.mark.parametrize("start", [math.inf, -math.inf, math.nan])
    def test_non_finite_start_falls_back_to_the_previous_acceleration(self, start):
        # an overflowing prediction must not change the step it is handed to
        for name in ("ex3iii", "ex4"):
            prob = scenario(name, 1e-2).problem
            q0 = (prob.p(0.0) - prob.a3(0.0) * prob.u0 - prob.nonlinear_term(prob.u0, prob.v0))
            q0 /= prob.a1(0.0)
            prev = StepState(q0, prob.v0, prob.u0)
            hist, coeffs = history_of([prob.v0]), node_coeffs(prob, 1)
            fallback = solve_step_nonlinear(1, prob, prev, hist, coeffs, start)
            assert fallback == solve_step_nonlinear(1, prob, prev, hist, coeffs, q0)

    def test_start_within_tolerance_takes_a_free_newton_step(self):
        # a start whose residual already passes the tolerance is not returned
        # as it is: one Newton step with the evaluated slope, no second evaluation
        prob = scenario("ex3iii", 1e-2).problem
        q0 = (prob.p(0.0) - prob.a3(0.0) * prob.u0) / prob.a1(0.0)  # ex3iii is linear
        prev = StepState(q0, prob.v0, prob.u0)
        hist, coeffs = history_of([prob.v0]), node_coeffs(prob, 1)
        root = solve_step_nonlinear(1, prob, prev, hist, coeffs, q0)[0].q
        start = root + 5e-12
        before = residual(start, 1, prob, prev, hist)
        assert 1e-12 < abs(before) < 1e-11
        state, _, evals = solve_step_nonlinear(1, prob, prev, hist, coeffs, start)
        assert evals == 1
        assert abs(residual(state.q, 1, prob, prev, hist)) <= 1e-2 * abs(before)

    def test_order_leaving_range_carries_trial_q(self):
        # an order law that dips below 0 for large velocity: the failure must
        # say which trial acceleration caused it
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=1.0, p=lambda t: 1e6 * t,
            alpha=AlphaSpec.of_state(lambda t, u, udot: 0.5 - 0.6 * math.tanh(abs(udot))),
            u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        with pytest.raises(OrderDomainError) as err:
            solve_implicit(prob)
        assert err.value.node is not None
        assert err.value.trial_q is not None


class TestSolve:
    def test_velocity_damping_limit(self):
        scn = scenario("ex3i", 1e-2)
        trace = solve_implicit(scn.problem)
        ref = scn.limit_u(trace.t)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(trace.u - ref))) <= 0.02 * peak

    def test_velocity_stiffness_limit(self):
        scn = scenario("ex3ii", 1e-2)
        trace = solve_implicit(scn.problem)
        ref = scn.limit_u(trace.t)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(trace.u - ref))) <= 0.02 * peak

    def test_strong_feedback_differs_from_integer_order(self):
        scn = scenario("ex3iii", 1e-2)
        trace_vo = solve_implicit(scn.problem)
        near_one = OscillatorProblem.build(
            a1=1.0, a2=0.4, a3=4.0, p=0.0,
            alpha=AlphaSpec.constant(1.0 - 1e-12),
            u0=0.0, v0=10.0, T=5.0, h=1e-2,
        )
        trace_io = solve_implicit(near_one)
        gap = float(np.max(np.abs(trace_vo.u - trace_io.u)))
        assert gap > 0.05  # the state feedback visibly changes the response

    def test_manufactured_duffing(self):
        scn = scenario("ex4", 1e-2)
        trace = solve_implicit(scn.problem)
        assert float(np.max(np.abs(trace.u - trace.t ** 2))) <= 5e-3

    def test_agrees_with_direct_stepper_on_time_only_problems(self):
        for name in ("ex2i", "ex2ii", "ex5"):
            scn = scenario(name, 1e-2, T=1.0)
            a = solve_explicit(scn.problem)
            b = solve_implicit(scn.problem)
            assert float(np.max(np.abs(a.u - b.u))) <= 1e-8
            assert float(np.max(np.abs(a.udot - b.udot))) <= 1e-8

    @pytest.mark.parametrize("name", ["ex4", "ex2iii_d"])
    def test_time_only_route_matches_the_same_order_read_per_trial(self, name):
        # the time-only route takes block weights and one load per step; the
        # same order declared state-dependent is re-read at each trial state.
        # At h = 1e-3 the grid of 1000 steps crosses chunk edges
        for h in (1e-2, 1e-3):
            problem = scenario(name, h).problem
            per_trial = replace(problem, alpha=AlphaSpec.of_state(problem.alpha.eval))
            blocks, trial = solve_implicit(problem), solve_implicit(per_trial)
            assert np.array_equal(blocks.alpha_used, trial.alpha_used)
            for key, bound in (("u", 1e-12), ("udot", 1e-12), ("uddot", 1e-11)):
                # uddot is the root-solve unknown: residuals that differ by
                # round-off stop at iterates within the 1e-11 scaled tolerance
                a, b = getattr(blocks, key), getattr(trial, key)
                assert float(np.max(np.abs(a - b))) <= bound * max(1.0, float(np.max(np.abs(b))))

    def test_time_only_order_reading_the_state_fails_at_its_node(self):
        # from t = 0.5 on the order reads u, which a time-only order must not
        alpha = AlphaSpec(
            AlphaKind.TIME_ONLY, lambda t, u, udot: 0.5 if t < 0.5 else 0.5 + 0.1 * math.tanh(u)
        )
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=0.0, alpha=alpha, u0=1.0, v0=10.0, T=1.0, h=1e-2
        )
        for solve in (solve_implicit, solve_explicit):
            with pytest.raises(OrderDomainError) as err:
                solve(prob)
            assert err.value.node == 50

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_linear_time_only_steps_take_two_evaluations(self, h):
        # the second iterate is a Newton step with the slope of the step
        # equation's linear part, which lands on the root of an affine residual
        for name in [n for n in SCENARIO_NAMES if n.startswith(("ex2", "ex5"))]:
            trace = solve_implicit(scenario(name, h).problem)
            assert int(trace.iterations.max()) <= 2, name

    @pytest.mark.parametrize(
        "name, h, most",
        [("ex3iii", 1e-2, 1133), ("ex3iii", 1e-3, 6266), ("ex4", 1 / 500, 505), ("ex4", 1 / 5000, 5000)],
    )
    def test_total_evaluations_do_not_grow(self, name, h, most):
        # the root solve's effort on a state-dependent order and on a
        # nonlinear term, pinned at the counts the solver reached from the
        # quartic prediction of q_n; the direct-stepper comparison runs the
        # same root solve, so it cannot see these counts move
        assert int(solve_implicit(scenario(name, h).problem).iterations.sum()) <= most

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_small_response_matches_the_explicit_stepper(self, scale):
        # the stopping scale has a floor of 1, so a response of size 1e-9
        # passes the tolerance at its first evaluation; the free Newton step
        # still lands it on the root of the linear step equation
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=0.0, alpha=AlphaSpec.constant(0.5),
            u0=scale, v0=10.0 * scale, T=1.0, h=1e-2,
        )
        a, b = solve_explicit(prob), solve_implicit(prob)
        peak = float(np.max(np.abs(a.u)))
        assert float(np.max(np.abs(a.u - b.u))) <= 1e-12 * peak

    def test_iterations_recorded_and_small(self):
        scn = scenario("ex3i", 1e-2)
        trace = solve_implicit(scn.problem)
        assert trace.iterations is not None
        assert trace.iterations.shape == (scn.grid.N,)
        assert np.all(trace.iterations >= 1)
        assert float(np.median(trace.iterations)) <= 5.0

    def test_discrete_equation_residual(self):
        for name in ("ex3i", "ex4"):
            scn = scenario(name, 1e-2)
            trace = solve_implicit(scn.problem)
            res = discrete_residuals(scn.problem, trace)
            assert float(np.max(np.abs(res))) < 1e-9

    def test_deterministic(self):
        scn = scenario("ex3iii", 1e-2, T=1.0)
        a = solve_implicit(scn.problem)
        b = solve_implicit(scn.problem)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.iterations, b.iterations)

    @pytest.mark.parametrize(
        "a1",
        [lambda t: 1.0 - t, lambda t: 0.995 - t, lambda t: math.nan if t > 0.995 else 1.0],
        ids=["zero", "sign", "nan"],
    )
    def test_bad_leading_coefficient_names_step(self, a1):
        # a1 is zero, of the other sign or nan at t = 1
        prob = OscillatorProblem.build(
            a1=a1, a2=1.0, a3=25.0, p=0.0,
            alpha=AlphaSpec.of_state(lambda t, u, udot: 0.9 - 0.5 * math.tanh(abs(udot))),
            u0=1.0, v0=10.0, T=2.0, h=1e-2,
        )
        with pytest.raises(DegenerateProblemError) as err:
            solve_implicit(prob)
        assert err.value.step == 100

    def test_nan_residual_fails_its_step(self):
        # p is nan from step 51 on: a nan residual is not below any
        # tolerance, and it must not pass for converged either
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=25.0, p=lambda t: math.nan if t > 0.5 else 0.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=10.0, T=1.0, h=1e-2,
        )
        with pytest.raises(StepFailureError) as err:
            solve_implicit(prob)
        assert err.value.step == 51
        assert math.isfinite(err.value.last_q)
        assert math.isnan(err.value.residual)
        with pytest.raises(StepFailureError) as err:
            solve_explicit(prob)
        assert err.value.step == 51

    @pytest.mark.parametrize(
        "order",
        [AlphaSpec.constant(0.5), AlphaSpec.of_state(lambda t, u, udot: 0.5)],
        ids=["time_only", "state"],
    )
    def test_overflowing_nonlinear_term_fails_its_step(self, order):
        # the blow-up oscillator (a3 = -1e4) with f_nl = 0 u^3: the float
        # power raises OverflowError at a trial state of step 217, long
        # before the state itself overflows; both node loops report it as
        # a non-finite residual of that step
        prob = OscillatorProblem.build(
            a1=1.0, a2=1.0, a3=-1e4, p=0.0, alpha=order, f_nl=lambda u, udot: 0.0 * u ** 3,
            u0=1.0, v0=0.0, T=10.0, h=1e-2,
        )
        with pytest.raises(StepFailureError) as err:
            solve_implicit(prob)
        assert err.value.step == 217
        assert err.value.residual == math.inf
        assert str(err.value).startswith("residual inf at trial q ")
        assert str(err.value).endswith(" in step 217")

    @pytest.mark.parametrize(
        "order",
        [AlphaSpec.constant(0.5), AlphaSpec.of_state(lambda t, u, udot: 0.5)],
        ids=["time_only", "state"],
    )
    def test_singular_step_is_named_with_a_nonlinear_term(self, order):
        # a2 = 0 and a1 + a3 h^2/4 = 0 from step 48 on lose q_n from the step
        # equation, and f_nl = 0 u^3 has no slope to bring it back: the root
        # solve gives up at step 48 and names it singular, as it is without f_nl
        h = 0.01
        prob = OscillatorProblem.build(
            a1=1.0, a2=lambda t: 0.2 if t < 47.5 * h else 0.0,
            a3=lambda t: 25.0 if t < 47.5 * h else -4.0 / h ** 2, p=0.0, alpha=order,
            f_nl=lambda u, udot: 0.0 * u ** 3, u0=1.0, v0=10.0, T=1.5, h=h,
        )
        with pytest.raises(StepFailureError) as err:
            solve_implicit(prob)
        assert err.value.step == 48
        assert str(err.value).startswith("step equation singular or ill-conditioned")

    @pytest.mark.parametrize("name, N", [("ex3i", 500), ("ex3iii", 500), ("ex4", 500), ("ex4", 5000)])
    def test_no_evaluation_is_repeated(self, name, N):
        # each residual evaluation reads the order (a state-dependent order)
        # or f_nl (ex4) once, and node 0 once more: the node loops hand their
        # start's evaluation to the root solve instead of repeating it
        calls = 0

        def counted(fn):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                return fn(*args)

            return wrapper

        problem = registry_problem(name, N)
        if problem.f_nl is None:
            problem = replace(problem, alpha=AlphaSpec.of_state(counted(problem.alpha.eval)))
        else:
            problem = replace(problem, f_nl=counted(problem.f_nl))
        trace = solve_implicit(problem)
        assert calls == int(trace.iterations.sum()) + 1

    @pytest.mark.parametrize("N", [500, 5000])
    @pytest.mark.parametrize("name", OSCILLATORS + ["ex2iii_d:state"])
    def test_node_loops_take_the_root_solves_steps(self, name, N):
        # the loops take a start within tolerance in place: bit for bit the
        # root solve's full step, and so are the steps they hand on
        problem = registry_problem(name, N)
        loops, full = solve_implicit(problem), stepwise_solve(problem)
        for key in ("u", "udot", "uddot", "alpha_used", "udot_mean", "iterations"):
            a, b = getattr(loops, key), getattr(full, key)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key

    def test_recorded_order_tracks_velocity(self):
        scn = scenario("ex3iii", 1e-2, T=1.0)
        trace = solve_implicit(scn.problem)
        expected = 1.0 - 0.5 * np.tanh(np.abs(trace.udot[1:]))
        assert np.allclose(trace.alpha_used[1:], expected, atol=1e-9)

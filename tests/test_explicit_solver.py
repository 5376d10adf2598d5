"""Step system assembly, the scalar step and the blocked stepping loop.

The oracle step is checked against a dense solve of the 3x3 step system it
eliminates, and the explicit stepper's block solve against the oracle step,
node by node to round-off, and against the direct row stepper on a solution
that grows by e^100 per unit of time, where a pivoting solve goes wrong.
The damped and stiffness limit cases double as end-to-end accuracy checks:
with the order pushed against 1 or 0 the solutions must track the
closed-form integer-order references.
"""

import math

import numpy as np
import pytest

from conftest import history_of, node_coeffs, node_weights, step_means
from oracles import (
    block_maps_by_unit_vectors, direct_solve, solve_step, step_matrices, step_residual
)
from vofde import (
    AlphaSpec,
    OscillatorProblem,
    StepState,
    coefficient_row,
    discrete_residuals,
    solve_explicit,
    solve_implicit,
    stability_report,
)
from vofde.errors import DegenerateProblemError, OrderDomainError, StepFailureError
from vofde.explicit_solver import (
    _BLOCK,
    _CHUNK,
    _block_maps,
    _chunk_weights,
    linear_part,
    load_term,
    state_from_q,
)
from vofde.implicit_solver import solve_step_nonlinear
from vofde.reference import scenario
from vofde.vo_core import ExpSumHistory


def linear_problem(alpha, h=0.01, T=1.0, a1=1.0, a2=1.0, a3=25.0, p=0.0, u0=1.0, v0=10.0):
    return OscillatorProblem.build(
        a1=a1, a2=a2, a3=a3, p=p, alpha=alpha, u0=u0, v0=v0, T=T, h=h
    )


class TestStepMatrices:
    def test_first_step_has_no_history_column(self):
        prob = linear_problem(AlphaSpec.constant(0.5))
        row = coefficient_row(1, prob.grid.h, 0.5)
        left, right = step_matrices(prob, 1, row)
        # only half of the first mean velocity is known at n = 1
        assert right[0, 1] == pytest.approx(-0.5 * 1.0 * row[0])
        assert right[0, 0] == 0.0 and right[0, 2] == 0.0

    def test_update_rows_depend_only_on_h(self):
        prob = linear_problem(AlphaSpec.of_time(lambda t: 0.3 + 0.4 * t))
        h = prob.grid.h
        for n in (1, 5, 50):
            row = coefficient_row(n, h, float(prob.alpha.eval(n * h, 0, 0)))
            left, right = step_matrices(prob, n, row)
            assert np.allclose(left[1], [0.25 * h * h, -h, 1.0])
            assert np.allclose(left[2], [-0.5 * h, 1.0, 0.0])
            assert np.allclose(right[1], [-0.25 * h * h, 0.0, 1.0])
            assert np.allclose(right[2], [0.5 * h, 1.0, 0.0])

    def test_governing_row_uses_coefficients_at_tn(self):
        prob = OscillatorProblem.build(
            a1=lambda t: 1.0 + t * t,
            a2=lambda t: 0.1 * math.sqrt(t),
            a3=lambda t: 10.0 + math.exp(-t),
            p=0.0,
            alpha=AlphaSpec.constant(0.5),
            u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        n = 4
        tn = 0.4
        row = coefficient_row(n, 0.1, 0.5)
        left, _ = step_matrices(prob, n, row)
        assert left[0, 0] == pytest.approx(1.0 + tn * tn)
        assert left[0, 1] == pytest.approx(0.5 * 0.1 * math.sqrt(tn) * row[-1])
        assert left[0, 2] == pytest.approx(10.0 + math.exp(-tn))

    def test_without_fractional_term_reduces_to_plain_integrator(self):
        prob = linear_problem(AlphaSpec.constant(0.5), a2=0.0)
        row = coefficient_row(3, prob.grid.h, 0.5)
        left, right = step_matrices(prob, 3, row)
        assert left[0, 1] == 0.0
        assert right[0, 1] == 0.0

    def test_row_node_mismatch(self):
        prob = linear_problem(AlphaSpec.constant(0.5))
        row = coefficient_row(3, prob.grid.h, 0.5)
        with pytest.raises(IndexError):
            step_matrices(prob, 4, row)


class TestLoadTerm:
    def test_first_step_load_is_the_forcing(self):
        prob = linear_problem(AlphaSpec.constant(0.5), p=lambda t: 7.0 + t)
        hist = history_of([prob.v0])
        weights = node_weights(1, prob.grid.h, 0.5, hist)
        assert load_term(node_coeffs(prob, 1), 1, weights, hist[0]) == pytest.approx(7.0 + prob.grid.h)

    def test_history_split_matches_direct_sum(self):
        # g_n must equal p_n - a2 * (full history sum minus the two terms
        # kept on the matrix side)
        prob = linear_problem(AlphaSpec.constant(0.4), a2=2.5)
        h = prob.grid.h
        rng = np.random.default_rng(42)
        vels = rng.normal(size=8)
        n = 6
        hist = history_of(vels[:n])
        row = coefficient_row(n, h, 0.4)
        means = step_means(vels)
        full = float(row[: n] @ means[: n])
        kept = 0.5 * row[n - 1] * (vels[n - 1] + vels[n])
        kept += 0.5 * row[n - 2] * vels[n - 1]
        g = load_term(node_coeffs(prob, n), n, node_weights(n, h, 0.4, hist), hist[0])
        assert g == pytest.approx(0.0 - 2.5 * (full - kept), abs=1e-12)

    def test_history_too_short(self):
        # the load's known history must cover steps 1 .. n-2; the step that
        # reads it from a history, the state-dependent one, checks its length
        prob = linear_problem(AlphaSpec.of_state(lambda t, u, udot: 0.5))
        hist = history_of(np.ones(3))
        with pytest.raises(IndexError):
            solve_step_nonlinear(5, prob, StepState(1.0, 1.0, 1.0), hist, node_coeffs(prob, 5), 1.0)


class TestLinearPart:
    def test_equals_the_term_by_term_residual(self):
        # r0 + den q is the step equation at every q, and size bounds den
        prob = linear_problem(AlphaSpec.constant(0.5))
        rng = np.random.default_rng(11)
        for _ in range(300):
            a1, a2, a3, p = (rng.normal(size=4) * 10.0 ** rng.uniform(-3.0, 3.0, size=4)).tolist()
            c_nm1, c_n = rng.uniform(0.0, 2.0, size=2).tolist()
            weights = (c_nm1, c_n, 0.0)
            g = float(rng.normal()) * 10.0 ** rng.uniform(-3.0, 3.0)
            prev = StepState(*rng.normal(size=3).tolist())
            h = 10.0 ** rng.uniform(-4.0, -0.5)
            r0, den, size = linear_part((a1, a2, a3, p), weights, g, prev, h)
            assert abs(den) <= size
            for q in (rng.normal(size=3) * 10.0 ** rng.uniform(-2.0, 4.0)).tolist():
                udot_n, u_n = state_from_q(q, prev, h)
                exact = step_residual(prob, 1, (q, udot_n, u_n), weights, g, prev, (a1, a2, a3, p))
                motion = abs(prev.q) + abs(q)
                scale = (
                    abs(a1 * q)
                    + abs(a2) * (c_nm1 + 2.0 * c_n) * (abs(prev.udot) + h * motion)
                    + abs(a3) * (abs(prev.u) + h * abs(prev.udot) + h * h * motion)
                    + abs(g)
                )
                assert abs(r0 + den * q - exact) <= 1e-14 * scale


def near_row(n, weights):
    """A row of node n that holds the given near weights last, for step_matrices."""
    row = np.zeros(n)
    row[-1] = weights[1]
    if n >= 2:
        row[-2] = weights[0]
    return row


def dense_step(prob, n, weights, hist, prev):
    """Solution of the 3x3 step system L x = R x_prev + g e1 by LAPACK."""
    left, right = step_matrices(prob, n, near_row(n, weights))
    rhs = right @ np.array(prev)
    rhs[0] += load_term(node_coeffs(prob, n), n, weights, hist[0])
    return np.linalg.solve(left, rhs)


def switch_at(k, h, before, after):
    """A coefficient that is `before` up to step k - 1 and `after` from step k on."""
    return lambda t: before if t < (k - 0.5) * h else after


def span(n, size):
    """First and last step of the run of size steps, counted from step 1, that holds step n."""
    first = (n - 1) // size * size + 1
    return first, first + size - 1


# the block-edge tests run on N = 150 steps (T = 1.5, h = 0.01), which end
# in a partial block
EDGE_N = 150
assert EDGE_N % _BLOCK >= 2 and EDGE_N > 2 * _BLOCK, (EDGE_N, _BLOCK)
# one mid-block step, the first and last step of the first block, the first
# of the second, and one inside the partial block that ends the grid
BLOCK_EDGE_STEPS = (_BLOCK // 2, 1, _BLOCK, _BLOCK + 1, EDGE_N - 1)

# the step where the blow-up oscillator's state overflows, and the first
# and last step of its block and of its chunk
OVERFLOW_STEP = 639
OVERFLOW_BLOCK = span(OVERFLOW_STEP, _BLOCK)
OVERFLOW_CHUNK = span(OVERFLOW_STEP, _BLOCK * _CHUNK)
assert OVERFLOW_BLOCK[0] < OVERFLOW_STEP < OVERFLOW_BLOCK[1] < OVERFLOW_CHUNK[1]

# the three routes a linear problem can take: the explicit block solve and
# the root solve's time-only and state-dependent loops, the last with an
# order that reads the state and is 0.5 everywhere; each names a singular
# step alike
LINEAR_ROUTES = pytest.mark.parametrize(
    "solve, order",
    [
        (solve_explicit, AlphaSpec.constant(0.5)),
        (solve_implicit, AlphaSpec.constant(0.5)),
        (solve_implicit, AlphaSpec.of_state(lambda t, u, udot: 0.5)),
    ],
    ids=["explicit", "implicit", "implicit_state"],
)


def gathered_weights(h, alpha):
    """A block's in-block weights by one coefficient_row(_BLOCK + 1, h, alpha) per block.

    Entry (j, i) of the block's C, c_{s+i}^{s+j+1}, is entry _BLOCK - 1 - j + i
    of row j, for i <= j + 1, and 0 past it.
    """
    j, i = np.arange(alpha.size)[:, None], np.arange(alpha.size + 1)
    index = np.minimum(_BLOCK - 1 - j + i, _BLOCK)
    rows = coefficient_row(_BLOCK + 1, h, alpha)
    return np.take_along_axis(rows, index, axis=1) * (i <= j + 1)


class TestChunkWeights:
    @pytest.mark.parametrize("b", [_BLOCK, 37, 1])
    @pytest.mark.parametrize("alpha", [1e-12, 0.5, 1.0 - 1e-12, "random"])
    def test_triangle_equals_the_gathered_row_bit_for_bit(self, b, alpha):
        rng = np.random.default_rng(b)
        h = 10.0 ** rng.uniform(-4.0, -1.0)
        orders = rng.uniform(1e-6, 1.0 - 1e-6, b) if alpha == "random" else np.full(b, alpha)
        C, c_nn = _chunk_weights(h, 1)(orders)
        assert C.shape == (1, _BLOCK, _BLOCK + 1)
        assert np.array_equal(C[0, :b, : b + 1], gathered_weights(h, orders))
        assert np.array_equal(c_nn, C[0, :b, 1:].diagonal())

    def test_every_block_of_a_partial_chunk(self):
        # _CHUNK - 1 full blocks and one of 37 nodes, after a call for a
        # full chunk whose weights the partial one overwrites
        rng = np.random.default_rng(5)
        weights = _chunk_weights(1e-2, _CHUNK)
        weights(rng.uniform(1e-6, 1.0 - 1e-6, _CHUNK * _BLOCK))
        orders = rng.uniform(1e-6, 1.0 - 1e-6, (_CHUNK - 1) * _BLOCK + 37)
        C, c_nn = weights(orders)
        assert C.shape == (_CHUNK, _BLOCK, _BLOCK + 1)
        for block, first in zip(C, range(0, orders.size, _BLOCK)):
            alpha = orders[first : first + _BLOCK]
            b = alpha.size
            assert np.array_equal(block[:b, : b + 1], gathered_weights(1e-2, alpha))
            assert np.array_equal(c_nn[first : first + b], block[:b, 1:].diagonal())


class TestBlockMaps:
    @pytest.mark.parametrize("h", [1e-2, 1e-3, 2e-4, 5e-5, 1.0 / 3.0, 0.37])
    def test_walks_equal_the_unit_vector_maps_bit_for_bit(self, h):
        for walked, reference in zip(_block_maps(h), block_maps_by_unit_vectors(h)):
            assert walked.shape == reference.shape == (_BLOCK, _BLOCK + 3)
            assert walked.flags.c_contiguous
            assert np.array_equal(walked, reference)


class TestSolveStep:
    def test_zero_problem_fixed_point(self):
        prob = linear_problem(AlphaSpec.constant(0.5), u0=0.0, v0=0.0)
        hist = history_of([0.0])
        state = solve_step(
            prob, 1, node_weights(1, prob.grid.h, 0.5, hist), hist, StepState(0.0, 0.0, 0.0),
            node_coeffs(prob, 1),
        )
        assert state == StepState(0.0, 0.0, 0.0)

    def test_residual_of_solution(self):
        prob = linear_problem(AlphaSpec.constant(0.5))
        row = coefficient_row(1, prob.grid.h, 0.5)
        hist = history_of([prob.v0])
        weights = node_weights(1, prob.grid.h, 0.5, hist)
        prev = StepState(-25.0, 10.0, 1.0)
        state = solve_step(prob, 1, weights, hist, prev, node_coeffs(prob, 1))
        left, right = step_matrices(prob, 1, row)
        g = load_term(node_coeffs(prob, 1), 1, weights, hist[0])
        rhs = right @ np.array(prev)
        rhs[0] += g
        res = left @ np.array(state) - rhs
        bound = 1e-12 * (float(np.linalg.norm(right @ np.array(prev))) + abs(g))
        assert float(np.linalg.norm(res)) <= max(bound, 1e-15)

    @pytest.mark.parametrize("name", ["ex2iii_d", "ex5"])
    def test_matches_dense_solve_of_step_system(self, name):
        prob = scenario(name, 1e-3, T=0.3).problem
        h, N = prob.grid.h, prob.grid.N
        assert N == 300
        trace = solve_explicit(prob)
        worst = 0.0
        for n in range(1, N + 1):
            prev = StepState(trace.uddot[n - 1], trace.udot[n - 1], trace.u[n - 1])
            hist = history_of(trace.udot[:n], N)
            weights = node_weights(n, h, trace.alpha_used[n], hist)
            state = np.array(solve_step(prob, n, weights, hist, prev, node_coeffs(prob, n)))
            dense = dense_step(prob, n, weights, hist, prev)
            worst = max(worst, float(np.max(np.abs(state - dense)) / np.max(np.abs(dense))))
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "name, h, T",
        [
            ("ex2iii_d", 1e-3, 0.3),
            ("ex5", 1e-3, 0.3),
            ("ex2i", 1e-2, 2.0),
            ("ex2iii_d", 1e-3, 1.1),
            ("ex5", 1e-3, 1.1),
        ],
    )
    def test_block_loop_equals_the_oracle_step_at_every_node(self, name, h, T):
        # N = 300, 200 and 1100 are no multiples of _BLOCK: the last block
        # is partial; N = 1100 also ends in a partial chunk, after two full
        # ones. ex5's a1, a2 and a3 vary in time, so the blocks' den must
        # track them. The block solve sums the history in another order than
        # the step, so each node matches to 1e-13 of its array's peak, not
        # bit for bit.
        prob = scenario(name, h, T=T).problem
        N = prob.grid.N
        assert N in (200, 300, 1100) and N % _BLOCK
        assert N < 1100 or N // (_BLOCK * _CHUNK) >= 2 and N % (_BLOCK * _CHUNK)
        trace = solve_explicit(prob)
        arrays = (trace.uddot, trace.udot, trace.u)
        peaks = np.array([np.max(np.abs(x)) for x in arrays])
        history = ExpSumHistory(N)
        hist = (trace.udot, history)
        for n in range(1, N + 1):
            if n >= 3:
                history.push(trace.udot_mean[n - 3])
            prev = StepState(trace.uddot[n - 1], trace.udot[n - 1], trace.u[n - 1])
            weights = node_weights(n, h, trace.alpha_used[n], hist)
            state = solve_step(prob, n, weights, hist, prev, node_coeffs(prob, n))
            gap = np.abs(np.subtract(state, [x[n] for x in arrays]))
            assert np.all(gap <= 1e-13 * peaks), (n, gap / peaks)

    def test_singular_system_reports_step(self):
        prob = linear_problem(AlphaSpec.constant(0.5), a1=0.0, a2=0.0, a3=0.0)
        hist = history_of(np.ones(9))
        weights = node_weights(9, prob.grid.h, 0.5, hist)
        with pytest.raises(StepFailureError) as err:
            solve_step(prob, 9, weights, hist, StepState(1.0, 1.0, 1.0), node_coeffs(prob, 9))
        assert err.value.step == 9

    @LINEAR_ROUTES
    def test_vanishing_coefficients_mid_run_report_step(self, solve, order):
        h = 0.01
        for k in BLOCK_EDGE_STEPS:
            # a1 = a2 = a3 = 0 from step k on: the a1 check stops the run there
            switch = switch_at(k, h, 1.0, 0.0)
            prob = linear_problem(
                order, a1=switch, a2=lambda t: 0.2 * switch(t), a3=switch, T=1.5,
            )
            with pytest.raises(DegenerateProblemError) as err:
                solve(prob)
            assert err.value.step == k
            # a1 = 1, a2 = 0, a3 = -4/h^2 from step k on: a1 is fine, but the
            # step equation loses q_n, since its denominator a1 + a3 h^2/4 is 0
            prob = linear_problem(
                order,
                a2=lambda t: 0.2 * switch(t),
                a3=switch_at(k, h, 25.0, -4.0 / h ** 2),
                T=1.5,
            )
            with pytest.raises(StepFailureError) as err:
                solve(prob)
            assert err.value.step == k
            assert "singular" in str(err.value)

    def test_denominator_lost_in_rounding_raises(self):
        # a1 cancels a3 h^2/4 up to 1e-15 of the terms: below the 1e-14 guard
        h = 0.01
        hist = history_of([1.0])
        weights = node_weights(1, h, 0.5, hist)
        prev = StepState(1.0, 1.0, 1.0)
        for gap, fails in ((1e-15, True), (1e-12, False)):
            prob = linear_problem(
                AlphaSpec.constant(0.5), a1=-0.25 * h * h * (1.0 + gap), a2=0.0, a3=1.0
            )
            if fails:
                with pytest.raises(StepFailureError) as err:
                    solve_step(prob, 1, weights, hist, prev, node_coeffs(prob, 1))
                assert err.value.step == 1
            else:
                state = solve_step(prob, 1, weights, hist, prev, node_coeffs(prob, 1))
                assert math.isfinite(state.q)

    @LINEAR_ROUTES
    def test_denominator_lost_in_rounding_names_its_step(self, solve, order):
        # a3 = 1 at step k alone and 0 elsewhere, where a1 cancels a3 h^2/4
        # up to 1e-15 (below the 1e-14 guard) or 1e-12 of the terms: q_n = 0
        # before k, and the guard fails or holds at k
        h = 0.01
        for gap, fails in ((1e-15, True), (1e-12, False)):
            for k in BLOCK_EDGE_STEPS:
                prob = linear_problem(
                    order, a1=-0.25 * h * h * (1.0 + gap), a2=0.0,
                    a3=lambda t, k=k: 1.0 if abs(t - k * h) < 0.5 * h else 0.0, u0=1.0, v0=1.0,
                    T=1.5,
                )
                if fails:
                    with pytest.raises(StepFailureError) as err:
                        solve(prob)
                    assert err.value.step == k
                    assert "singular" in str(err.value)
                else:
                    trace = solve(prob)
                    assert np.all(np.isfinite(trace.uddot)) and trace.uddot[k] != 0.0


def assert_nan_load_fails_at(prob, k):
    """Both solvers stop at step k, each with its own message."""
    with pytest.raises(StepFailureError) as err:
        solve_explicit(prob)
    assert err.value.step == k
    assert str(err.value).startswith(f"acceleration nan in step {k}:")
    with pytest.raises(StepFailureError) as err:
        solve_implicit(prob)
    assert err.value.step == k
    assert str(err.value).startswith("residual nan at trial q ")
    assert str(err.value).endswith(f" in step {k}")


class TestSolve:
    def test_damping_limit_tracks_closed_form(self):
        scn = scenario("ex2i", 1e-2)
        trace = solve_explicit(scn.problem)
        ref = scn.limit_u(trace.t)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(trace.u - ref))) <= 0.02 * peak

    def test_stiffness_limit_tracks_closed_form(self):
        scn = scenario("ex2ii", 1e-2)
        trace = solve_explicit(scn.problem)
        ref = scn.limit_u(trace.t)
        peak = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(trace.u - ref))) <= 0.02 * peak

    def test_variable_order_beats_constant_order_peak(self):
        # the decaying-order oscillator rings higher than its constant-order
        # counterpart because early weights still look like low order
        peak = {}
        for name in ("ex2iii_c", "ex2iii_d"):
            scn = scenario(name, 1e-2)
            trace = solve_explicit(scn.problem)
            peak[name] = float(np.max(trace.u))
        assert peak["ex2iii_d"] > peak["ex2iii_c"]

    def test_manufactured_time_varying_coefficients(self):
        scn = scenario("ex5", 1e-2)
        trace = solve_explicit(scn.problem)
        exact = np.exp(trace.t)
        rel = float(np.max(np.abs(trace.u - exact)) / np.max(np.abs(exact)))
        assert rel <= 0.01

    def test_update_relations_hold_exactly(self):
        scn = scenario("ex2i", 1e-2, T=1.0)
        trace = solve_explicit(scn.problem)
        h = scn.grid.h
        qs = trace.uddot
        vel_gap = trace.udot[1:] - trace.udot[:-1] - 0.5 * h * (qs[1:] + qs[:-1])
        disp_gap = (
            trace.u[1:]
            - trace.u[:-1]
            - h * trace.udot[1:]
            + 0.25 * h * h * (qs[1:] + qs[:-1])
        )
        scale_v = np.maximum(1.0, np.abs(trace.udot[1:]))
        scale_u = np.maximum(1.0, np.abs(trace.u[1:]))
        assert float(np.max(np.abs(vel_gap) / scale_v)) < 1e-12
        assert float(np.max(np.abs(disp_gap) / scale_u)) < 1e-12

    def test_discrete_equation_residual(self):
        for name in ("ex2i", "ex2iii_d"):
            scn = scenario(name, 1e-2, T=2.0)
            trace = solve_explicit(scn.problem)
            res = discrete_residuals(scn.problem, trace)
            assert float(np.max(np.abs(res))) < 1e-9

    def test_deterministic(self):
        scn = scenario("ex2i", 1e-2, T=1.0)
        a = solve_explicit(scn.problem)
        b = solve_explicit(scn.problem)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.udot, b.udot)
        assert np.array_equal(a.uddot, b.uddot)

    def test_horizon_shorter_than_step(self):
        prob = linear_problem(AlphaSpec.constant(0.5), h=0.01, T=0.004)
        trace = solve_explicit(prob)
        assert trace.t.shape == (2,)

    def test_spectral_radius_recording(self):
        # per-step radii come from the stability sweep, not from the solve
        scn = scenario("ex2i", 1e-2, T=1.0)
        trace = solve_explicit(scn.problem)
        assert not hasattr(trace, "rho")
        report = stability_report(scn.problem)
        assert report.rho.shape == (trace.N,)
        assert np.all(np.isfinite(report.rho))
        assert report.max_rho <= 1.0 + 1e-12

    def test_rejects_state_dependent_order(self):
        prob = linear_problem(
            AlphaSpec.of_state(lambda t, u, udot: 0.9 - 0.1 * math.tanh(abs(udot)))
        )
        with pytest.raises(ValueError):
            solve_explicit(prob)

    def test_rejects_nonlinear_restoring(self):
        prob = OscillatorProblem.build(
            a1=1.0, a2=0.2, a3=1.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
            f_nl=lambda u, udot: u ** 3,
        )
        with pytest.raises(ValueError):
            solve_explicit(prob)

    def test_state_reading_order_function_is_caught(self):
        # declared time-only but actually reads the velocity: the nan probe
        # must surface it as an order-domain failure at the first used node
        sneaky = AlphaSpec(
            kind=AlphaSpec.of_time(lambda t: 0.5).kind,
            eval=lambda t, u, udot: 0.5 + 0.0 * udot,
        )
        prob = linear_problem(sneaky)
        with pytest.raises(OrderDomainError):
            solve_explicit(prob)

    def test_order_out_of_range_names_node(self):
        prob = linear_problem(
            AlphaSpec.of_time(lambda t: 0.5 if t < 0.5 else 1.2), h=0.1, T=1.0
        )
        with pytest.raises(OrderDomainError) as err:
            solve_explicit(prob)
        assert err.value.node == 5

    @pytest.mark.parametrize(
        "a1",
        [lambda t: 1.0 - t, lambda t: 0.995 - t, lambda t: math.nan if t > 0.995 else 1.0],
        ids=["zero", "sign", "nan"],
    )
    def test_bad_leading_coefficient_names_step(self, a1):
        # a1 is zero, of the other sign or nan at t = 1; the step equation
        # keeps its other terms, so only the a1 check can stop the run
        prob = linear_problem(AlphaSpec.constant(0.5), a1=a1, T=2.0)
        with pytest.raises(DegenerateProblemError) as err:
            solve_explicit(prob)
        assert err.value.step == 100

    @pytest.mark.parametrize("k", BLOCK_EDGE_STEPS)
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["a2", "a3"])
    def test_non_finite_damping_or_stiffness_names_step(self, name, value, k):
        # the node_table check stops both solvers and the stability sweep
        # at step k, before any step is solved, and without a warning
        prob = linear_problem(
            AlphaSpec.constant(0.5), T=1.5, **{name: switch_at(k, 0.01, 1.0, value)}
        )
        for run in (solve_explicit, solve_implicit, stability_report):
            with pytest.raises(DegenerateProblemError) as err:
                run(prob)
            assert err.value.step == k
            assert f"coefficient {name} = {value!r} at step {k} " in str(err.value)

    @pytest.mark.parametrize("solve", [solve_explicit, solve_implicit], ids=["explicit", "implicit"])
    def test_blow_up_stops_where_the_state_overflows(self, solve):
        # a3 = -1e4 grows the state by about e^100 per unit of time; both
        # solvers run on until the state itself overflows, and neither calls
        # the step equation singular, whose denominator stays near 0.75
        prob = linear_problem(AlphaSpec.constant(0.5), a3=-1e4, u0=1.0, v0=0.0, T=10.0)
        with pytest.raises(StepFailureError) as err:
            solve(prob)
        assert err.value.step == OVERFLOW_STEP
        assert "singular" not in str(err.value)

    @LINEAR_ROUTES
    def test_huge_damping_judges_its_denominator_without_overflow(self, solve, order):
        # a2 = 1e300: |den| 1e14 would overflow with a RuntimeWarning, which
        # the tests' warning filter turns into a failure; |den| / size
        # cannot. Its residual is far above round-off, which no solver
        # refuses yet, so the trace is not re-verified here
        trace = solve(linear_problem(order, a2=1e300))
        assert np.all(np.isfinite(trace.u))

    def test_growing_solution_follows_the_direct_stepper(self):
        # the same oscillator up to node 600: its block systems' entries below
        # the diagonal far outgrow the diagonal, where a pivoting LU swaps rows
        # and mixes later nodes into earlier ones (off by 23 orders of
        # magnitude at node 100); the substitution in node order is not
        prob = linear_problem(AlphaSpec.constant(0.5), a3=-1e4, u0=1.0, v0=0.0, T=6.3)
        trace = solve_explicit(prob)
        direct = direct_solve(prob)
        u, ref = trace.u[:601], direct.u[:601]
        assert np.all(np.abs(u - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("k", BLOCK_EDGE_STEPS)
    def test_nan_load_names_its_step(self, k):
        # p is nan from step k on; the nodes of k's block before it are
        # solved. The implicit solver walks the same blocks node by node
        prob = linear_problem(AlphaSpec.constant(0.5), p=switch_at(k, 0.01, 0.0, math.nan), T=1.5)
        assert_nan_load_fails_at(prob, k)

    def test_nan_load_at_the_first_step_of_a_chunk_names_it(self):
        # the second chunk starts at step _CHUNK _BLOCK + 1: its weights and
        # guards are formed before any of its blocks is solved
        k = _CHUNK * _BLOCK + 1
        prob = linear_problem(AlphaSpec.constant(0.5), p=switch_at(k, 0.01, 0.0, math.nan), T=6.0)
        assert prob.grid.N > k
        assert_nan_load_fails_at(prob, k)

    @LINEAR_ROUTES
    @pytest.mark.parametrize(
        "k, named",
        [(OVERFLOW_BLOCK[1] + 1, OVERFLOW_STEP), (OVERFLOW_BLOCK[0], OVERFLOW_BLOCK[0])],
    )
    def test_singular_step_is_named_only_when_its_block_is_reached(self, k, named, solve, order):
        # the blow-up oscillator, with a step equation singular from step k
        # on (a2 = 0 and a1 + a3 h^2/4 = 0): the first step of the block
        # after the overflow's, or of the overflow's own. Both lie in the
        # overflow's chunk, whose den are all judged before its first block
        # is solved; the overflow comes first unless the singular step does
        h = 0.01
        prob = linear_problem(
            order, a2=switch_at(k, h, 1.0, 0.0),
            a3=switch_at(k, h, -1e4, -4.0 / h ** 2), u0=1.0, v0=0.0, T=10.0,
        )
        with pytest.raises(StepFailureError) as err:
            solve(prob)
        assert err.value.step == named
        assert ("singular" in str(err.value)) == (named == k)

    @pytest.mark.parametrize(
        "k, named",
        [
            (OVERFLOW_STEP + 1, OVERFLOW_STEP),
            (OVERFLOW_STEP, OVERFLOW_STEP),
            (OVERFLOW_BLOCK[0], OVERFLOW_BLOCK[0]),
        ],
    )
    def test_first_failure_of_a_block_is_named(self, k, named):
        # the blow-up oscillator overflows at OVERFLOW_STEP, inside the
        # block OVERFLOW_BLOCK; a nan p from step k of that block on fails
        # the run at whichever of the two comes first, with the value
        # printed as a float
        prob = linear_problem(
            AlphaSpec.constant(0.5), a3=-1e4, u0=1.0, v0=0.0, T=10.0,
            p=switch_at(k, 0.01, 0.0, math.nan),
        )
        with pytest.raises(StepFailureError) as err:
            solve_explicit(prob)
        assert err.value.step == named
        value = "inf" if named < k else "nan"
        assert str(err.value).startswith(f"acceleration {value} in step {named}:")

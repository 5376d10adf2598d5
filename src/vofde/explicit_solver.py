"""The step equation, the time loop, and the explicit stepper built on them.

At node n the governing equation, with the history sum split into the load
g_n (load_term) and the terms carrying the two latest velocities, reads

    a1 q_n + a2 (c_{n-1} udot_{n-1} + c_n (udot_{n-1} + udot_n)) / 2
        + a3 u_n + f_nl(u_n, udot_n) = g_n

with every coefficient at t_n and c_{n-1}, c_n the two near weights of
node n (c_{n-1} = 0 at n = 1). The average-acceleration relations make
udot_n and u_n affine in the new acceleration q_n (state_from_q), so
step_residual is one scalar equation in q_n. solve_step takes the linear
case with a time-only order, where it is affine in q_n, by one Newton step
from q_n = 0; implicit_solver root-solves it for everything else. Both run
in the one time loop, march, which takes a1, a2 and a3 from the problem's
coefficients_at_nodes table (the only check on a1), keeps the velocities
and step means in the trace's own arrays, and advances one
vo_core.ExpSumHistory per step. The load reads the known history from it
in O(L) for L ~ 200 exponential modes, so a solve costs O(N L), not the
O(N^2) of one weight row per node. Since a time-only order is known in
advance, its weights are built for blocks of nodes at once
(time_only_weights), for this stepper and for the implicit one alike.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepFailureError
from .model import AlphaKind, OscillatorProblem, SolutionTrace, StepState
from .vo_core import ExpSumHistory, coefficient_row

__all__ = [
    "state_from_q",
    "load_term",
    "step_residual",
    "march",
    "time_only_weights",
    "solve_step",
    "solve",
]

# a step denominator this much smaller than the sum of its terms' sizes is
# treated as zero: the scalar form of a condition-number bound of 1e14
_COND_LIMIT = 1e14

# nodes per block of the explicit stepper's weights: a block's array of
# 64 x ~200 weights stays near 100 kB, where 256 nodes raised the peak RSS of
# a run of N = 500 solves by 0.7 MB, and the block's fixed cost is already
# below 1 us per node
_BLOCK = 64


def state_from_q(q_n: float, prev: StepState, h: float) -> tuple[float, float]:
    """Velocity and displacement at the new node as functions of q_n.

    Inverts the average-acceleration update relations:

        udot_n = udot_{n-1} + h/2 (q_n + q_{n-1})
        u_n    = u_{n-1} + h udot_n - h^2/4 (q_n + q_{n-1})
    """
    qsum = q_n + prev.q
    udot_n = prev.udot + 0.5 * h * qsum
    u_n = prev.u + h * udot_n - 0.25 * h * h * qsum
    return udot_n, u_n


def load_term(coeffs, n: int, weights, hist) -> float:
    """Load g_n: the forcing minus the fully known part of the history sum.

    coeffs is node n's (a1, a2, a3, p), weights its (c_{n-1}, c_n, far) at
    the order used, and hist the pair (udot, history) of the node
    velocities so far and the history of step means 1 .. n-2 (an
    ExpSumHistory). far is either the far weights, a row of
    history.weights, or the far sum they give, history.far_sum. The known
    part is that sum over steps 1 .. n-2, far @ history.state for weights,
    plus the half of step n-1's mean contributed by the velocity at node
    n-2; the halves carrying udot_{n-1} and udot_n are left to the step
    equation. Empty for n <= 1. A history of another length raises
    IndexError.
    """
    udot, history = hist
    if history.size != max(n - 2, 0):
        raise IndexError(f"node {n} needs the means of {max(n - 2, 0)} steps, got {history.size}")
    g = coeffs[3]
    if n >= 2:
        far = weights[2]
        if not isinstance(far, float):
            far = float(np.dot(far, history.state))
        g -= coeffs[1] * (far + 0.5 * weights[0] * float(udot[n - 2]))
    return g


def step_residual(
    problem: OscillatorProblem, n: int, trial, weights, g: float, prev: StepState, coeffs
) -> float:
    """Residual of node n's step equation at a trial state.

    trial is (q_n, udot_n, u_n), a trial acceleration with the velocity and
    displacement that state_from_q gives for it; weights is node n's
    (c_{n-1}, c_n, far), g its load_term, coeffs its (a1, a2, a3, p), and
    prev the state at node n-1.
    """
    a1, a2, a3, _ = coeffs
    q, udot_n, u_n = trial
    c_nm1, c_n, _ = weights
    return (
        a1 * q
        + 0.5 * a2 * (c_nm1 * prev.udot + c_n * (prev.udot + udot_n))
        + a3 * u_n
        + problem.nonlinear_term(u_n, udot_n)
        - g
    )


def march(problem: OscillatorProblem, step) -> SolutionTrace:
    """The time loop of both steppers.

    step(n, prev, coeffs, hist) returns the state at node n and the order
    used there, given the state at node n-1, the coefficients
    (a1, a2, a3, p) at t_n as floats, and the history (udot, history): a
    view of the trace's velocities at nodes 0 .. n-1 and the run's
    ExpSumHistory, advanced to hold the step means 1 .. n-2. a1, a2 and a3
    come from one coefficients_at_nodes table, so a bad a1 stops the run
    before its first step. The history integral of a continuous velocity
    vanishes at t = 0, so the initial acceleration is
    q0 = (p(0) - a3(0) u0 - f_nl(u0, v0)) / a1(0), from row 0 of the table.
    """
    grid = problem.grid
    h = grid.h
    q, ud, u, alphas = np.empty((4, grid.N + 1))
    means = np.empty(grid.N)
    table = problem.coefficients_at_nodes()
    a1_0, _, a3_0 = table[0].tolist()
    load_0 = float(problem.p(0.0)) - a3_0 * problem.u0
    q0 = (load_0 - problem.nonlinear_term(problem.u0, problem.v0)) / a1_0
    prev = StepState(q0, float(problem.v0), float(problem.u0))
    history = ExpSumHistory(grid.N)
    q[0], ud[0], u[0] = prev
    try:
        # reference only; never range-checked and never used in a weight
        alphas[0] = float(problem.alpha.eval(0.0, problem.u0, problem.v0))
    except Exception:
        alphas[0] = math.nan

    for n in range(1, grid.N + 1):
        if n >= 3:
            history.push(means[n - 3])
        coeffs = (*table[n].tolist(), float(problem.p(n * h)))
        prev, alphas[n] = step(n, prev, coeffs, (ud[:n], history))
        q[n], ud[n], u[n] = prev
        means[n - 1] = 0.5 * (ud[n - 1] + ud[n])
    return SolutionTrace(t=grid.times(), u=u, udot=ud, uddot=q, alpha_used=alphas, udot_mean=means)


def solve_step(
    problem: OscillatorProblem, n: int, weights, hist, prev: StepState, coeffs
) -> StepState:
    """Advance a linear problem to node n in one Newton step from q_n = 0.

    The step residual is then affine in q_n with slope
    den = a1 + a2 c_n h/4 + a3 h^2/4, so q_n = -residual(0) / den exactly.
    A denominator that is zero or lost in rounding raises StepFailureError
    naming step n, and so does a non-finite q_n past a sound denominator,
    which only an overflowed state or a non-finite p can give.
    """
    h = problem.grid.h
    a1, a2, a3, _ = coeffs
    damping = 0.25 * h * a2 * weights[1]
    stiffness = 0.25 * h * h * a3
    den = a1 + damping + stiffness
    size = abs(a1) + abs(damping) + abs(stiffness)
    g = load_term(coeffs, n, weights, hist)
    trial = (0.0, *state_from_q(0.0, prev, h))
    residual = step_residual(problem, n, trial, weights, g, prev, coeffs)
    if not abs(den) * _COND_LIMIT > size:
        raise StepFailureError(
            f"step equation singular or ill-conditioned (denominator {den:.3e} "
            f"against term sizes {size:.3e})",
            step=n,
        )
    q = -residual / den
    if not math.isfinite(q):
        raise StepFailureError(
            f"acceleration {q!r} in step {n}: the state overflowed or p is not finite", step=n
        )
    return StepState(q, *state_from_q(q, prev, h))


def solve(problem: OscillatorProblem) -> SolutionTrace:
    """Integrate the problem over its whole grid.

    Only linear problems with a TIME_ONLY order are accepted.
    """
    if problem.alpha.kind is not AlphaKind.TIME_ONLY:
        raise ValueError(
            "explicit stepping needs a time-only order; state-dependent orders "
            "require the implicit solver"
        )
    if problem.f_nl is not None:
        raise ValueError(
            "explicit stepping handles linear restoring only; use the implicit "
            "solver for nonlinear terms"
        )
    alphas = problem.time_only_orders()
    weights = time_only_weights(problem.grid.h, alphas)

    def step(n, prev, coeffs, hist):
        return solve_step(problem, n, weights(n, hist[1]), hist, prev, coeffs), float(alphas[n])

    return march(problem, step)


def time_only_weights(h: float, orders: np.ndarray):
    """Node weights of a time-only order, for either stepper's step function.

    Returns weights(n, history): node n's (c_{n-1}, c_n, far) at orders[n],
    far being the far weights on march's ExpSumHistory. A time-only order
    is known before its step, so the call for the node that opens a block
    builds the weights of its _BLOCK nodes at once; march's order, n = 1,
    2, ..., is the order the calls must come in.
    """
    block = []

    def weights(n: int, history: ExpSumHistory):
        j = (n - 1) % _BLOCK
        if j == 0:
            block[:] = _block_weights(h, orders[n : n + _BLOCK], n, history)
        return block[j]

    return weights


def _block_weights(h: float, orders: np.ndarray, first: int, history: ExpSumHistory) -> list:
    """(c_{n-1}, c_n, far) of the nodes n = first, first+1, ... at the given orders.

    The near weights are the row coefficient_row(2, h, alpha_n)
    (c_{n-1} = 0 at n = 1); the far ones come from one exp per block.
    """
    near = coefficient_row(2, h, orders)
    if first == 1:
        near[0, 0] = 0.0
    return list(zip(*near.T.tolist(), history.weights(h, orders)))

"""The step equation, the time loop, and the explicit stepper built on them.

At node n the governing equation, with the history sum split into the load
g_n (load_term) and the terms carrying the two latest velocities, reads

    a1 q_n + a2 (c_{n-1} udot_{n-1} + c_n (udot_{n-1} + udot_n)) / 2
        + a3 u_n + f_nl(u_n, udot_n) = g_n

with every coefficient at t_n and c_{n-1}, c_n the two near weights of
node n (c_{n-1} = 0 at n = 1). The average-acceleration relations make
udot_n and u_n affine in the new acceleration q_n (state_from_q), so
step_residual is one scalar equation in q_n; implicit_solver root-solves
it. For a linear problem with a time-only order it is affine in q_n, and
solve takes it by one Newton step from q_n = 0: per node, one scalar body
forms the load, the residual at q_n = 0 and q_n = -residual / den. Both
steppers run in the one time loop, march, which walks the grid in blocks
of _BLOCK nodes. Each block slices its a1, a2, a3 and p from the
problem's read-only node_table (evaluated once per problem, the only check
on a1), and a block hook adds to them; time_only_blocks adds the weights
of the problem's time_only_orders and the explicit step's den and guard.
The state passes between nodes as floats; march keeps the velocities and
step means in the trace's arrays and advances one vo_core.ExpSumHistory
per step, from which the load reads the known history in O(L) for L ~ 200
exponential modes, so a solve costs O(N L), not the O(N^2) of one weight
row per node.
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
    "time_only_blocks",
    "solve",
]

# a step denominator this much smaller than the sum of its terms' sizes is
# treated as zero: the scalar form of a condition-number bound of 1e14
_COND_LIMIT = 1e14

# nodes per block of march: a block's array of 64 x ~200 far weights stays
# near 100 kB, where 256 nodes raised the peak RSS of a run of N = 500
# solves by 0.7 MB
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
    velocities, through node n-2 at least, and the history of step means
    1 .. n-2 (an ExpSumHistory). far is either the far weights, a row of
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
            far = float(far.dot(history.state))
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


def march(problem: OscillatorProblem, step, block=None) -> SolutionTrace:
    """The time loop of both steppers, a block of _BLOCK nodes at a time.

    Each block slices its rows (a1, a2, a3, p) from the problem's
    node_table, built before the first step (so a1 is checked and a p that
    raises raises there), as the read-only array coeffs; given block,
    block(first, coeffs, history) is an iterable with one item per node of
    the block (else each item is None). Per node,
    step(n, prev, coeffs_n, item, hist) returns the state (q, udot, u) at
    node n and the order used there. prev is the state it returned for
    node n-1, StepState(q0, v0, u0) at n = 1; coeffs_n is node n's row of
    coeffs as a list of floats; and hist is (udot, history), the trace's
    velocity array, filled through node n-1, and the run's ExpSumHistory,
    advanced to hold the step means 1 .. n-2. The history integral of a
    continuous velocity vanishes at t = 0, so the initial acceleration is
    q0 = (p(0) - a3(0) u0 - f_nl(u0, v0)) / a1(0), from row 0 of the table.
    """
    grid = problem.grid
    N = grid.N
    q, ud, u, alphas = np.empty((4, N + 1))
    means = np.empty(N)
    table = problem.node_table
    a1_0, _, a3_0, p_0 = table[0].tolist()
    q0 = (p_0 - a3_0 * problem.u0 - problem.nonlinear_term(problem.u0, problem.v0)) / a1_0
    prev = StepState(q0, float(problem.v0), float(problem.u0))
    q[0], ud[0], u[0] = prev
    # reference only; never range-checked and never used in a weight
    if problem.alpha.kind is AlphaKind.TIME_ONLY:
        alphas[0] = problem.time_only_orders[0]
    else:
        try:
            alphas[0] = float(problem.alpha.eval(0.0, problem.u0, problem.v0))
        except Exception:
            alphas[0] = math.nan
    history = ExpSumHistory(N)
    hist = (ud, history)

    for first in range(1, N + 1, _BLOCK):
        coeffs = table[first : first + _BLOCK]
        nodes = range(first, first + len(coeffs))
        items = [None] * len(nodes) if block is None else block(first, coeffs, history)
        for n, coeffs_n, item in zip(nodes, coeffs.tolist(), items):
            if n >= 3:
                history.push(means[n - 3])
            udot_prev = prev[1]
            prev, alphas[n] = step(n, prev, coeffs_n, item, hist)
            q[n], ud[n], u[n] = prev
            means[n - 1] = 0.5 * (udot_prev + prev[1])
    return SolutionTrace(t=grid.times(), u=u, udot=ud, uddot=q, alpha_used=alphas, udot_mean=means)


def time_only_blocks(h: float, orders: np.ndarray):
    """march's block hook for a time-only order, orders[n] being its value at node n.

    Gives each node n of the block (weights, alpha_n, den, size): weights
    is (c_{n-1}, c_n, far) at alpha_n, the near pair a row of
    coefficient_row(2, h, orders) (c_{n-1} = 0 at n = 1) and far a row of
    history.weights; den = a1 + a2 c_n h/4 + a3 h^2/4 is the slope in q_n
    of a linear step equation and size = |a1| + |a2 c_n h/4| + |a3 h^2/4|
    the scale of its guard, formed elementwise in the scalar terms' order.
    """

    def block(first: int, coeffs: np.ndarray, history: ExpSumHistory):
        alpha = orders[first : first + len(coeffs)]
        near = coefficient_row(2, h, alpha)
        if first == 1:
            near[0, 0] = 0.0
        a1, a2, a3, _ = coeffs.T
        damping = 0.25 * h * a2 * near[:, 1]
        stiffness = 0.25 * h * h * a3
        den = a1 + damping + stiffness
        size = np.abs(a1) + np.abs(damping) + np.abs(stiffness)
        weights = zip(*near.T.tolist(), history.weights(h, alpha))
        return zip(weights, alpha.tolist(), den.tolist(), size.tolist())

    return block


def solve(problem: OscillatorProblem) -> SolutionTrace:
    """Integrate the problem over its whole grid.

    Only linear problems with a TIME_ONLY order are accepted. Each step is
    one Newton step from q_n = 0: the step residual is affine in q_n with
    slope den, so q_n = -residual(0) / den exactly. A denominator that is
    zero or lost in rounding raises StepFailureError naming its step, and
    so does a non-finite q_n past a sound denominator, which only an
    overflowed state or a non-finite p can give.
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
    h = problem.grid.h
    half_h, quarter_hh = 0.5 * h, 0.25 * h * h

    def step(n, prev, coeffs, node, hist):
        weights, alpha, den, size = node
        q_prev, udot_prev, u_prev = prev
        g = load_term(coeffs, n, weights, hist)
        # step_residual at q_n = 0 (a1 q_n and f_nl drop out), at state_from_q's state
        udot_0 = udot_prev + half_h * q_prev
        u_0 = u_prev + h * udot_0 - quarter_hh * q_prev
        c_nm1, c_n, _ = weights
        damping = 0.5 * coeffs[1] * (c_nm1 * udot_prev + c_n * (udot_prev + udot_0))
        residual = damping + coeffs[2] * u_0 - g
        if not abs(den) * _COND_LIMIT > size:
            raise StepFailureError(
                f"step equation singular or ill-conditioned (denominator {den:.3e} "
                f"against term sizes {size:.3e})",
                step=n,
            )
        q_n = -residual / den
        if not math.isfinite(q_n):
            raise StepFailureError(
                f"acceleration {q_n!r} in step {n}: the state overflowed or p is not finite",
                step=n,
            )
        qsum = q_n + q_prev
        udot_n = udot_prev + half_h * qsum
        return (q_n, udot_n, u_prev + h * udot_n - quarter_hh * qsum), alpha

    return march(problem, step, time_only_blocks(h, problem.time_only_orders))

"""The step equation, the per-node time loop, and the explicit stepper built on them.

At node n the governing equation, with the history sum split into the load
g_n (load_term) and the terms carrying the two latest velocities, reads

    a1 q_n + a2 (c_{n-1} udot_{n-1} + c_n (udot_{n-1} + udot_n)) / 2
        + a3 u_n + f_nl(u_n, udot_n) = g_n

with every coefficient at t_n and c_{n-1}, c_n the two near weights of
node n (c_{n-1} = 0 at n = 1). The average-acceleration relations make
udot_n and u_n affine in the new acceleration q_n (state_from_q), so
without f_nl the equation is r0 + den q_n = 0, and linear_part gives its
value r0 at q_n = 0 and its slope den at one node. Every coefficient
comes from the problem's read-only node_table (evaluated and checked once
per problem), and the known history from a vo_core.ExpSumHistory in O(L)
for L ~ 200 exponential modes, so a solve costs O(N L), not the O(N^2) of
one weight row per node.

A time-only order is known before the solve, so its steps are walked a
block of _BLOCK nodes at a time, and the step equations of a block,
coupled only through earlier nodes, are formed in one place (_blocks) as
one lower-triangular system A Q = rhs in the block's accelerations Q,
with the velocities, displacements and step means written as maps of Q
and of the state before the block (_block_maps). What does not depend on
the state is built a chunk of _CHUNK blocks at a time, and the far
history of a block's nodes comes from one product with the history's
state, which advances once per block. solve takes a linear problem's Q
from one LU of the system, with no Python per node; implicit_solver
root-solves its rows node by node.

For a state-dependent order, implicit_solver root-solves
r0 + den q_n + f_nl = 0 in the time loop march, node by node: the state
passes between nodes as floats, and march keeps the velocities and step
means in the trace's arrays and pushes each step mean into the history.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepFailureError
from .model import AlphaKind, OscillatorProblem, SolutionTrace, StepState
from .vo_core import ExpSumHistory, _far_factors, _increments, _log_table, coefficient_row

__all__ = [
    "state_from_q",
    "load_term",
    "linear_part",
    "march",
    "solve",
]

# a step denominator this much smaller than the sum of its terms' sizes is
# treated as zero: the scalar form of a condition-number bound of 1e14,
# the bound the stability sweep puts on its step matrices
_COND_LIMIT = 1e14

# nodes per block of _blocks. Per node, a block of B nodes costs O(B^2) in
# solve's LU (O(B^3) a block) and its C @ M product, O(B) in its in-block
# weights and O(L) in its far sums, and its dozen or so numpy calls cost
# O(1/B): the sum is least at a middle B. Timed on the explicit solve, 48
# was fastest at N = 25000 (3.19 us a node against 3.39 at 40, 3.54 at 32
# and 3.61 at 64) and as fast as 32 and 40 at N = 500, where 64 took 25%
# more. march slices its node rows in batches of as many nodes
_BLOCK = 48

# blocks per chunk of _blocks, whose weights, guards and far-sum factors are
# formed at once: the chunk's arrays, C and the triangle's two, take about
# 0.3 MB
_CHUNK = 8


def state_from_q(q_n: float, prev, h: float) -> tuple[float, float]:
    """Velocity and displacement at the new node as functions of q_n.

    prev is the state (q, udot, u) at node n-1. The average-acceleration
    update relations, written here only:

        udot_n = udot_{n-1} + h/2 (q_n + q_{n-1})
        u_n    = u_{n-1} + h udot_n - h^2/4 (q_n + q_{n-1})
    """
    q_prev, udot_prev, u_prev = prev
    qsum = q_n + q_prev
    udot_n = udot_prev + 0.5 * h * qsum
    return udot_n, u_prev + h * udot_n - 0.25 * h * h * qsum


def load_term(coeffs, n: int, weights, udot) -> float:
    """Load g_n: the forcing minus the fully known part of the history sum.

    coeffs is node n's (a1, a2, a3, p), weights its (c_{n-1}, c_n, far) at
    the order used, with far the known history sum over steps 1 .. n-2,
    and udot the node velocities, through node n-2 at least. The known
    part is far plus the half of step n-1's mean contributed by the
    velocity at node n-2; the halves carrying udot_{n-1} and udot_n are
    left to the step equation. Empty for n <= 1.
    """
    g = coeffs[3]
    if n >= 2:
        g -= coeffs[1] * (weights[2] + 0.5 * weights[0] * float(udot[n - 2]))
    return g


def linear_part(coeffs, weights, g: float, prev, h: float) -> tuple[float, float, float]:
    """Node n's step equation without f_nl, r0 + den q_n, as (r0, den, size).

    coeffs is node n's (a1, a2, a3, p), weights its (c_{n-1}, c_n, far), g
    its load_term and prev the state at node n-1. r0 is the equation's
    value at q_n = 0, at the state state_from_q gives there; den = a1 +
    a2 c_n h/4 + a3 h^2/4 is its slope in q_n, since udot_n and u_n grow by
    h/2 and h^2/4 per unit of q_n; size = |a1| + |a2 c_n h/4| + |a3 h^2/4|
    is the scale of den's terms, against which _COND_LIMIT judges den.
    """
    a1, a2, a3, _ = coeffs
    c_nm1, c_n, _ = weights
    udot_prev = prev[1]
    udot_0, u_0 = state_from_q(0.0, prev, h)
    r0 = 0.5 * a2 * (c_nm1 * udot_prev + c_n * (udot_prev + udot_0)) + a3 * u_0 - g
    damping = 0.25 * h * a2 * c_n
    stiffness = 0.25 * h * h * a3
    return r0, a1 + damping + stiffness, abs(a1) + abs(damping) + abs(stiffness)


def _initial_trace(problem: OscillatorProblem) -> SolutionTrace:
    """The trace's arrays, empty but for node 0, where t = 0, u0 and v0 are given.

    The history integral of a continuous velocity vanishes at t = 0, so the
    initial acceleration is q0 = (p(0) - a3(0) u0 - f_nl(u0, v0)) / a1(0),
    from row 0 of the problem's node_table. A time-only order's
    time_only_orders are evaluated before that table and are the trace's
    orders at every node.
    """
    N = problem.grid.N
    time_only = problem.alpha.kind is AlphaKind.TIME_ONLY
    orders = problem.time_only_orders if time_only else None
    q, ud, u, alphas = np.empty((4, N + 1))
    a1_0, _, a3_0, p_0 = problem.node_table[0].tolist()
    q[0] = (p_0 - a3_0 * problem.u0 - problem.nonlinear_term(problem.u0, problem.v0)) / a1_0
    ud[0], u[0] = problem.v0, problem.u0
    if time_only:
        alphas[:] = orders
    else:  # reference only; never range-checked and never used in a weight
        try:
            alphas[0] = float(problem.alpha.eval(0.0, problem.u0, problem.v0))
        except Exception:
            alphas[0] = math.nan
    return SolutionTrace(
        t=problem.grid.times(), u=u, udot=ud, uddot=q, alpha_used=alphas, udot_mean=np.empty(N)
    )


def march(problem: OscillatorProblem, step) -> SolutionTrace:
    """The time loop of the implicit solver for a state-dependent order, node by node.

    It walks the problem's node_table, built before the first step (so a1
    is checked and a p that raises raises there), in batches of _BLOCK
    rows. Per node, step(n, prev, coeffs_n, hist, start) returns the state
    (q, udot, u) at node n and the order used there. prev is the state it
    returned for node n-1, node 0's from _initial_trace at n = 1; coeffs_n
    is node n's row (a1, a2, a3, p) as a list of floats; hist is (udot,
    history), the trace's velocity array, filled through node n-1, and the
    run's ExpSumHistory, advanced to hold the step means 1 .. n-2; and
    start is _start's predicted q_n.
    """
    N = problem.grid.N
    trace = _initial_trace(problem)
    q, ud, u, alphas, means = trace.uddot, trace.udot, trace.u, trace.alpha_used, trace.udot_mean
    table = problem.node_table
    prev = StepState(float(q[0]), float(ud[0]), float(u[0]))
    history = ExpSumHistory(N)
    hist = (ud, history)
    for first in range(1, N + 1, _BLOCK):
        for n, coeffs_n in enumerate(table[first : first + _BLOCK].tolist(), first):
            if n >= 3:
                history.push(means[n - 3])
            udot_prev = prev[1]
            prev, alphas[n] = step(n, prev, coeffs_n, hist, _start(q, n))
            q[n], ud[n], u[n] = prev
            means[n - 1] = 0.5 * (udot_prev + prev[1])
    return trace


def _start(q: np.ndarray, n: int) -> float:
    """A root solve's predicted q_n, from the accelerations q[0] .. q[n-1] solved so far.

    The quartic through the five previous accelerations, 5 q_{n-1} -
    10 q_{n-2} + 10 q_{n-3} - 5 q_{n-4} + q_{n-5}, O(h^5) from the root;
    the quadratic through three, 3 q_{n-1} - 3 q_{n-2} + q_{n-3}, for
    n = 3, 4; q_{n-1} for n <= 2. A Python float, which may overflow.
    """
    if n >= 5:
        q_5, q_4, q_3, q_2, q_1 = q[n - 5 : n].tolist()
        return 5.0 * q_1 - 10.0 * q_2 + 10.0 * q_3 - 5.0 * q_4 + q_5
    if n >= 3:
        q_3, q_2, q_1 = q[n - 3 : n].tolist()
        return 3.0 * q_1 - 3.0 * q_2 + q_3
    return float(q[n - 1])


def _block_maps(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V, U and M: a block's velocities, displacements and step means as maps of z.

    z holds the accelerations Q of the _BLOCK nodes s+1 .. s+_BLOCK, then
    the state (q_s, udot_s, u_s) at node s; row j-1 of V and U gives node
    s+j's value, and row j-1 of M the mean velocity of step s+j. They walk
    state_from_q, where alone the update relations are written, in floats
    from four unit starts: q_{s+1} = 1, whose values at lag j - i fill the
    lower triangular Toeplitz Q-part, and q_s, udot_s and u_s = 1 in turn,
    with zero accelerations, for the last three columns.
    """
    walks = []
    for q_n, *prev in np.eye(4).tolist():  # q_{s+1}, then the state at node s
        for _ in range(_BLOCK):
            udot_n, u_n = state_from_q(q_n, prev, h)
            walks += udot_n, u_n
            prev, q_n = (q_n, udot_n, u_n), 0.0
    walks = np.array(walks).reshape(4, _BLOCK, 2).transpose(2, 0, 1)  # (udot, u), walk, node
    lagged = np.zeros((2, 2 * _BLOCK - 1))  # the first walk at lags 1 - _BLOCK .. _BLOCK - 1
    lagged[:, _BLOCK - 1 :] = walks[:, 0]
    V, U = maps = np.empty((2, _BLOCK, _BLOCK + 3))
    maps[:, :, :_BLOCK] = np.lib.stride_tricks.sliding_window_view(lagged, _BLOCK, 1)[..., ::-1]
    maps[:, :, _BLOCK:] = walks[:, 1:].transpose(0, 2, 1)
    return V, U, 0.5 * (np.vstack((np.eye(1, _BLOCK + 3, _BLOCK + 1), V[:-1])) + V)


def _chunk_weights(h: float, blocks: int):
    """The in-block weights of a chunk of up to blocks blocks, as a function of its orders.

    The returned function takes the orders alpha of the chunk's nodes, block
    after block, the last block possibly partial, and gives (C, c_nn): C
    holds per block the _BLOCK x (_BLOCK + 1) weights of its own steps,
    entry (j-1, i) = c_{s+i}^{s+j} for i = 0 .. j at node s+j's order and 0
    past i = j, and c_nn the diagonal weights c_n^n = -f(alpha_n), from
    coefficient_row(1, h, alpha). A weight depends on its order and k =
    j - i + 1 alone, so the _BLOCK (_BLOCK + 3) / 2 = 1224 entries of a
    block's lower triangle are formed as they lie: the table of log k and
    log1p(-1/k), k = 1 .. _BLOCK + 1, laid out in the triangle's pattern
    once, then exp and expm1 of whole chunk x 1224 arrays (_increments),
    scaled by f(alpha_n) = -c_n^n and scattered into C. Each entry is then
    bit for bit the entry of coefficient_row(_BLOCK + 1, h, alpha_n) at
    that k. C and the scratch are reused from call to call: each call
    overwrites the last one's C, and the rows of a partial block past its
    last node hold no weights of it.
    """
    rows, cols = np.tril_indices(_BLOCK, 1, _BLOCK + 1)
    logs, log1ms = _log_table(np.arange(1.0, _BLOCK + 2.0))[:, rows - cols + 1]
    flat = rows * (_BLOCK + 1) + cols
    C = np.zeros((blocks, _BLOCK, _BLOCK + 1))
    # the orders, then f(alpha_n), of the chunk's nodes by block; the rows
    # of a partial block past its end keep valid orders from an earlier call
    by_node = np.full((2, blocks, _BLOCK), 0.5)
    x, work = np.empty((2, blocks, rows.size))

    def weights(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = alpha.size
        n = -(-m // _BLOCK)
        c_nn = coefficient_row(1, h, alpha)[:, 0]
        orders, f = by_node.reshape(2, -1)
        orders[:m] = alpha
        np.negative(c_nn, out=f[:m])
        tri, scratch = x[:n], work[:n]
        by_node[0, :n].take(rows, axis=1, out=tri)
        _increments(logs, log1ms, tri, tri, scratch)
        by_node[1, :n].take(rows, axis=1, out=scratch)
        tri *= scratch
        C.reshape(blocks, -1)[:n, flat] = tri
        return C[:n], c_nn

    return weights


def _blocks(problem: OscillatorProblem, trace: SolutionTrace, V, U, M):
    """The step system of each block of _BLOCK nodes of a time-only order, in node order.

    Yields (s, coeffs, A, rhs, den, size, at_zero) for the block of nodes
    s+1 .. s+b, whose accelerations Q solve the lower-triangular system
    A Q = rhs, row j node s+1+j's step equation without f_nl:

        A = diag a1 + diag a2 C M + diag a3 U,  rhs = p - a2 (far + c_s m_s + C m0) - a3 u0.

    coeffs are the nodes' (a1, a2, a3, p) from the node_table; C the
    weights of the block's own steps, entry (j-1, i-1) = c_{s+i}^{s+j} at
    node s+j's order, and c_s those of step s, whose mean m_s is 0 at s = 0;
    far the known history sums over steps 1 .. s-1; M and U in A the Q-parts
    of _block_maps' V, U and M; at_zero the velocities and displacements
    (udot0, u0) at Q = 0, and m0 the step means, from the state at node s; den
    and size each node's slope and term scale (linear_part). The weights,
    den, size and far-sum factors come a chunk of _CHUNK blocks at a time.
    Once the consumer has written the block's state and means into the
    trace, the history advances by steps s .. s+b-1 in one product.
    """
    N, h = problem.grid.N, problem.grid.h
    orders = problem.time_only_orders
    table = problem.node_table
    q, ud, u, means = trace.uddot, trace.udot, trace.u, trace.udot_mean
    chunk_weights = _chunk_weights(h, min(_CHUNK, -(-N // _BLOCK)))
    history = ExpSumHistory(N)
    for first in range(0, N, _CHUNK * _BLOCK):
        chunk = slice(first + 1, min(first + _CHUNK * _BLOCK, N) + 1)
        weights, c_nn = chunk_weights(orders[chunk])
        coeffs = table[chunk].T
        _, den, size = linear_part(coeffs, (0.0, c_nn, None), 0.0, (0.0, 0.0, 0.0), h)
        factors = np.array(_far_factors(h, orders[chunk]))
        for s, block in zip(range(first, N, _BLOCK), weights):
            b = min(_BLOCK, N - s)
            at = slice(s - first, s - first + b)
            far = history.far_sums(orders[s + 1 : s + 1 + b], factors[:, at])
            a1, a2, a3, p = rows = coeffs[:, at]
            C = block[:b, 1 : b + 1]
            x = np.array([q[s], ud[s], u[s]])
            m_s = means[s - 1] if s else 0.0
            u0 = U[:b, _BLOCK:] @ x
            rhs = p - a2 * (far + block[:b, 0] * m_s + C @ (M[:b, _BLOCK:] @ x)) - a3 * u0
            A = C @ M[:b, :b]
            A *= a2[:, None]
            A += a3[:, None] * U[:b, :b]
            A.flat[:: b + 1] += a1
            yield s, rows, A, rhs, den[at], size[at], (V[:b, _BLOCK:] @ x, u0)
            if s + b < N:  # to steps 1 .. s+b-1 for the next block
                history.advance(means[max(s - 1, 0) : s + b - 1])


def solve(problem: OscillatorProblem) -> SolutionTrace:
    """Integrate the problem over its whole grid, a block of _BLOCK nodes at a time.

    Only linear problems with a TIME_ONLY order are accepted. Each block's
    system A Q = rhs from _blocks is solved reversed, where it is upper
    triangular, so LAPACK's LU swaps no row and solves by substitution in
    node order (with pivoting, a row swap mixes later nodes into earlier
    ones and a fast-growing solution comes out wrong); u' and u follow
    from Q by _block_maps' V and U, built once per solve.

    A step whose denominator den is zero or lost in rounding raises
    StepFailureError naming it, and so does a non-finite q_n or right-hand
    side, which only an overflowed state or a non-finite p can give; the
    first such step of a block in node order is named, from a solve of the
    block's nodes before it, and only once the blocks before it are solved.
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
    trace = _initial_trace(problem)
    q, ud, u, means = trace.uddot, trace.udot, trace.u, trace.udot_mean
    V, U, M = _block_maps(problem.grid.h)
    for s, _, A, rhs, den, size, (ud0, u0) in _blocks(problem, trace, V, U, M):
        b = rhs.size
        nodes = slice(s + 1, s + 1 + b)
        # the nodes before the block's first failing step, solved alone
        sound = abs(den) * _COND_LIMIT > size
        good = sound & np.isfinite(rhs)
        k = b if good.all() else int(np.argmin(good))
        Q = np.linalg.solve(A[:k, :k][::-1, ::-1], rhs[:k][::-1])[::-1]
        finite = np.isfinite(Q)
        if not finite.all():
            i = int(np.argmin(finite))
            raise _overflow(s + 1 + i, Q[i])
        if k < b:
            if not sound[k]:
                raise StepFailureError(
                    f"step equation singular or ill-conditioned (denominator {den[k]:.3e} "
                    f"against term sizes {size[k]:.3e})",
                    step=s + 1 + k,
                )
            raise _overflow(s + 1 + k, rhs[k] / den[k])
        q[nodes] = Q
        ud[nodes] = V[:b, :b] @ Q + ud0
        u[nodes] = U[:b, :b] @ Q + u0
        means[s : s + b] = 0.5 * (ud[s : s + b] + ud[s + 1 : s + b + 1])
    return trace


def _overflow(n: int, q_n) -> StepFailureError:
    return StepFailureError(
        f"acceleration {float(q_n)!r} in step {n}: the state overflowed or p is not finite",
        step=n,
    )

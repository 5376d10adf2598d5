"""Direct step-by-step integrator for linear problems with time-only order.

At node n the governing equation, with the history sum split into its known
part and the terms carrying the two latest velocities, is coupled to the
average-acceleration update relations. Those relations give the velocity
and displacement as affine functions of the new acceleration q_n (see
implicit_solver.state_from_q), so each step reduces to one division

    q_n = num_n / (a1 + a2 c_nn h/4 + a3 h^2/4),

with every coefficient evaluated at t_n and c_nn the weight of the current
step. The weight row of each step is fixed by the order value at t_n,
which is why the order must not depend on the state here; anything else
goes through the implicit solver.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderDomainError, StepFailureError
from .implicit_solver import state_from_q
from .model import (
    AlphaKind,
    OscillatorProblem,
    SolutionTrace,
    StepState,
    initial_acceleration,
)
from .vo_core import VelocityHistory, coefficient_row

__all__ = [
    "load_term",
    "solve_step",
    "solve",
]

# a step denominator this much smaller than the sum of its terms' sizes is
# treated as zero: the scalar form of a condition-number bound of 1e14
_COND_LIMIT = 1e14


def load_term(
    problem: OscillatorProblem, n: int, row: np.ndarray, hist: VelocityHistory
) -> float:
    """Load g_n: the forcing minus the fully known part of the history sum.

    The known part covers the means of steps 1 .. n-2 plus the half of step
    n-1's mean contributed by the velocity at node n-2; the halves carrying
    udot_{n-1} and udot_n are left to the step itself. Empty for n <= 1.
    """
    if len(hist) < n - 1:
        raise IndexError(
            f"history holds {len(hist)} steps, load term of node {n} needs {n - 1}"
        )
    tn = n * problem.grid.h
    g = float(problem.p(tn))
    if n >= 2:
        known = 0.5 * float(row[n - 2]) * hist.endpoint(n - 2)
        if n > 2:
            known += float(row[: n - 2] @ hist.udot_mean[: n - 2])
        g -= float(problem.a2(tn)) * known
    return g


def solve_step(
    problem: OscillatorProblem,
    n: int,
    row: np.ndarray,
    hist: VelocityHistory,
    prev: StepState,
) -> StepState:
    """Advance to node n by solving the step's equation for q_n.

    The equation a1 q_n + a2 (c_{n-1} udot_{n-1} + c_n (udot_{n-1} + udot_n)) / 2
    + a3 u_n = g_n is affine in q_n once udot_n and u_n are written through
    state_from_q. A denominator that is zero or lost in rounding, or a
    non-finite q_n, raises StepFailureError naming step n.
    """
    h = problem.grid.h
    tn = n * h
    a1 = float(problem.a1(tn))
    a2 = float(problem.a2(tn))
    a3 = float(problem.a3(tn))
    c_nn = float(row[n - 1])
    c_nm1 = float(row[n - 2]) if n >= 2 else 0.0
    # udot_n and u_n at q_n = 0; they grow by h/2 and h^2/4 per unit of q_n
    udot_0, u_0 = state_from_q(0.0, prev, h)
    num = (
        load_term(problem, n, row, hist)
        - 0.5 * a2 * (c_nm1 * prev.udot + c_nn * (prev.udot + udot_0))
        - a3 * u_0
    )
    damping = 0.25 * h * a2 * c_nn
    stiffness = 0.25 * h * h * a3
    den = a1 + damping + stiffness
    size = abs(a1) + abs(damping) + abs(stiffness)
    q = num / den if abs(den) * _COND_LIMIT > size else math.nan
    if not math.isfinite(q):
        raise StepFailureError(
            f"step equation singular or ill-conditioned (denominator {den:.3e} "
            f"against term sizes {size:.3e}, q {q!r})",
            step=n,
        )
    udot_n, u_n = state_from_q(q, prev, h)
    return StepState(q=q, udot=udot_n, u=u_n)


def _order_at_nodes(problem: OscillatorProblem) -> np.ndarray:
    """Order values at every node, evaluated without state.

    The state arguments are passed as nan to hold the time-only promise to
    account: an order function that actually reads them produces nan or
    raises, and either is reported as an order-domain failure. The node-0
    value is recorded but not range-checked; no weight row uses it.
    """
    N = problem.grid.N
    h = problem.grid.h
    out = np.empty(N + 1)
    nan = math.nan
    for n in range(N + 1):
        try:
            a = float(problem.alpha.eval(n * h, nan, nan))
        except OrderDomainError:
            raise
        except Exception as exc:
            raise OrderDomainError(
                f"order function raised at node {n} when evaluated without state; "
                f"a time-only order must ignore u and udot ({exc!r})",
                node=n,
            ) from exc
        if n >= 1 and not (0.0 < a < 1.0):
            raise OrderDomainError(
                f"fractional order {a!r} outside (0, 1) at node {n}; nan here "
                "usually means the order function reads the state despite being "
                "declared time-only",
                node=n,
            )
        out[n] = a
    return out


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

    grid = problem.grid
    h, N = grid.h, grid.N
    alphas = _order_at_nodes(problem)

    q = np.empty(N + 1)
    ud = np.empty(N + 1)
    u = np.empty(N + 1)
    q[0] = initial_acceleration(problem)
    ud[0] = problem.v0
    u[0] = problem.u0

    hist = VelocityHistory(problem.v0, capacity=N)
    prev = StepState(q=float(q[0]), udot=float(ud[0]), u=float(u[0]))
    for n in range(1, N + 1):
        row = coefficient_row(n, h, float(alphas[n]))
        state = solve_step(problem, n, row, hist, prev)
        q[n], ud[n], u[n] = state
        hist.append(state.udot)
        prev = state

    return SolutionTrace(
        t=grid.times(),
        u=u,
        udot=ud,
        uddot=q,
        alpha_used=alphas,
        udot_mean=hist.udot_mean.copy(),
    )

"""The step equation, the time loop, and the direct stepper built on them.

At node n the governing equation, with the history sum split into the load
g_n (load_term) and the terms carrying the two latest velocities, reads

    a1 q_n + a2 (c_{n-1} udot_{n-1} + c_n (udot_{n-1} + udot_n)) / 2
        + a3 u_n + f_nl(u_n, udot_n) = g_n

with every coefficient at t_n and c_r the weights of node n's row. The
average-acceleration relations make udot_n and u_n affine in the new
acceleration q_n (state_from_q), so step_residual is one scalar equation in
q_n. solve_step takes the linear case with a time-only order, where it is
affine in q_n, by one Newton step from q_n = 0; implicit_solver root-solves
it for everything else. Both run in the one time loop, march.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateProblemError, OrderDomainError, StepFailureError
from .model import (
    AlphaKind,
    OscillatorProblem,
    SolutionTrace,
    StepState,
    initial_acceleration,
)
from .vo_core import VelocityHistory, coefficient_row

__all__ = [
    "state_from_q",
    "load_term",
    "step_coefficients",
    "check_leading",
    "step_residual",
    "march",
    "solve_step",
    "solve",
]

# a step denominator this much smaller than the sum of its terms' sizes is
# treated as zero: the scalar form of a condition-number bound of 1e14
_COND_LIMIT = 1e14


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


def load_term(
    problem: OscillatorProblem, n: int, row: np.ndarray, hist: VelocityHistory
) -> float:
    """Load g_n: the forcing minus the fully known part of the history sum.

    The known part covers the means of steps 1 .. n-2 plus the half of step
    n-1's mean contributed by the velocity at node n-2; the halves carrying
    udot_{n-1} and udot_n are left to the step equation. Empty for n <= 1.
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


def step_coefficients(problem: OscillatorProblem, n: int) -> tuple[float, float, float]:
    """a1, a2 and a3 at t_n; a stepper evaluates them once per step."""
    tn = n * problem.grid.h
    return float(problem.a1(tn)), float(problem.a2(tn)), float(problem.a3(tn))


def check_leading(problem: OscillatorProblem, n: int, a1: float) -> None:
    """Fail step n unless a1(t_n) is finite, nonzero and of a1(0)'s sign.

    A stepper run through a zero of a1 goes on without complaint while its
    solution grows without bound.
    """
    a1_0 = float(problem.a1(0.0))
    if not math.isfinite(a1) or a1 == 0.0 or (a1 > 0.0) != (a1_0 > 0.0):
        raise DegenerateProblemError(
            f"leading coefficient a1 = {a1!r} at step {n} (t = {n * problem.grid.h!r}) "
            f"is not finite, nonzero and of the sign of a1(0) = {a1_0!r}",
            step=n,
        )


def step_residual(
    problem: OscillatorProblem, n: int, trial, row: np.ndarray, g: float, prev: StepState, coeffs
) -> float:
    """Residual of node n's step equation at a trial state.

    trial is (q_n, udot_n, u_n), a trial acceleration with the velocity and
    displacement that state_from_q gives for it; row is node n's weight
    row, g its load_term, coeffs its step_coefficients, and prev the state
    at node n-1.
    """
    a1, a2, a3 = coeffs
    q, udot_n, u_n = trial
    c_nm1 = float(row[n - 2]) if n >= 2 else 0.0
    return (
        a1 * q
        + 0.5 * a2 * (c_nm1 * prev.udot + float(row[n - 1]) * (prev.udot + udot_n))
        + a3 * u_n
        + problem.nonlinear_term(u_n, udot_n)
        - g
    )


def march(problem: OscillatorProblem, step) -> SolutionTrace:
    """The time loop of both steppers.

    step(n, prev, hist) returns the state at node n and the order used
    there, given the state at node n-1 and the velocities of nodes 0 .. n-1.
    """
    grid = problem.grid
    q, ud, u, alphas = np.empty((4, grid.N + 1))
    prev = StepState(initial_acceleration(problem), float(problem.v0), float(problem.u0))
    q[0], ud[0], u[0] = prev
    try:
        # reference only; never range-checked and never used in a weight row
        alphas[0] = float(problem.alpha.eval(0.0, problem.u0, problem.v0))
    except Exception:
        alphas[0] = math.nan

    hist = VelocityHistory(problem.v0, capacity=grid.N)
    for n in range(1, grid.N + 1):
        prev, alphas[n] = step(n, prev, hist)
        q[n], ud[n], u[n] = prev
        hist.append(prev.udot)
    return SolutionTrace(
        t=grid.times(), u=u, udot=ud, uddot=q, alpha_used=alphas, udot_mean=hist.udot_mean.copy()
    )


def solve_step(
    problem: OscillatorProblem, n: int, row: np.ndarray, hist: VelocityHistory, prev: StepState
) -> StepState:
    """Advance a linear problem to node n in one Newton step from q_n = 0.

    The step residual is then affine in q_n with slope
    den = a1 + a2 c_n h/4 + a3 h^2/4, so q_n = -residual(0) / den exactly.
    A denominator that is zero or lost in rounding, or a non-finite q_n,
    raises StepFailureError naming step n, and so does an equation with no
    term left; otherwise a bad a1 raises check_leading's error first.
    """
    h = problem.grid.h
    coeffs = step_coefficients(problem, n)
    a1, a2, a3 = coeffs
    damping = 0.25 * h * a2 * float(row[n - 1])
    stiffness = 0.25 * h * h * a3
    den = a1 + damping + stiffness
    size = abs(a1) + abs(damping) + abs(stiffness)
    if size:  # an equation left without any term fails the guard below instead
        check_leading(problem, n, a1)
    g = load_term(problem, n, row, hist)
    trial = (0.0, *state_from_q(0.0, prev, h))
    residual = step_residual(problem, n, trial, row, g, prev, coeffs)
    q = -residual / den if abs(den) * _COND_LIMIT > size else math.nan
    if not math.isfinite(q):
        raise StepFailureError(
            f"step equation singular or ill-conditioned (denominator {den:.3e} "
            f"against term sizes {size:.3e}, q {q!r})",
            step=n,
        )
    return StepState(q, *state_from_q(q, prev, h))


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
    for n in range(N + 1):
        try:
            a = float(problem.alpha.eval(n * h, math.nan, math.nan))
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
    h = problem.grid.h
    alphas = _order_at_nodes(problem)

    def step(n, prev, hist):
        a = float(alphas[n])
        return solve_step(problem, n, coefficient_row(n, h, a), hist, prev), a

    return march(problem, step)

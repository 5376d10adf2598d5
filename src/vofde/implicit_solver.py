"""Per-step root solve for state-dependent orders and nonlinear restoring.

Eliminating the average-acceleration update relations leaves one scalar
equation per step in the new acceleration q_n: the governing equation at
t_n with velocity and displacement written as affine functions of q_n. A
secant iteration with bisection fallback solves it; each residual
evaluation re-reads the order at the trial state, so the weight row tracks
the state exactly rather than being frozen at the previous step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StepFailureError
from .model import (
    OscillatorProblem,
    SolutionTrace,
    StepState,
    initial_acceleration,
)
from .vo_core import VelocityHistory, coefficient_row

__all__ = [
    "RootSolveConfig",
    "state_from_q",
    "residual",
    "solve_step_nonlinear",
    "solve",
]

# order change below which a cached weight row is reused between residual
# evaluations of one step; at double precision the rows are identical
_ALPHA_CACHE_TOL = 1e-14


@dataclass(frozen=True)
class RootSolveConfig:
    """Tolerances of the per-step scalar root solve.

    tol_q bounds the bracket width on q (absolute plus relative), tol_res
    the scaled residual, max_iters the residual evaluations per step.
    """

    tol_q: float = 1e-12
    tol_res: float = 1e-11
    max_iters: int = 50

    def __post_init__(self):
        if not (self.tol_q > 0.0 and math.isfinite(self.tol_q)):
            raise ValueError(f"tol_q must be positive, got {self.tol_q!r}")
        if not (self.tol_res > 0.0 and math.isfinite(self.tol_res)):
            raise ValueError(f"tol_res must be positive, got {self.tol_res!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 2):
            raise ValueError(f"max_iters must be an integer >= 2, got {self.max_iters!r}")


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


def residual(
    q_n: float,
    n: int,
    problem: OscillatorProblem,
    prev: StepState,
    hist: VelocityHistory,
) -> float:
    """Governing-equation residual at node n for trial acceleration q_n.

    Plain uncached form, one weight row per call; the stepping loop uses a
    cached equivalent internally.
    """
    value, _scale, _alpha = _residual_parts(q_n, n, problem, prev, hist, cache=None)
    return value


def _residual_parts(q_n, n, problem, prev, hist, cache):
    h = problem.grid.h
    tn = n * h
    udot_n, u_n = state_from_q(q_n, prev, h)
    a_star = problem.alpha.value_at(tn, u_n, udot_n, node=n, trial_q=q_n)

    if cache is not None and cache and abs(a_star - cache["alpha"]) < _ALPHA_CACHE_TOL:
        c = cache["c"]
        known = cache["known"]
    else:
        c = coefficient_row(n, h, a_star)
        known = float(c[: n - 1] @ hist.udot_mean[: n - 1]) if n > 1 else 0.0
        if cache is not None:
            cache["alpha"] = a_star
            cache["c"] = c
            cache["known"] = known

    deriv = known + float(c[n - 1]) * 0.5 * (prev.udot + udot_n)
    p_n = float(problem.p(tn))
    a3_u = float(problem.a3(tn)) * u_n
    value = (
        float(problem.a1(tn)) * q_n
        + float(problem.a2(tn)) * deriv
        + a3_u
        + problem.nonlinear_term(u_n, udot_n)
        - p_n
    )
    scale = max(1.0, abs(p_n), abs(a3_u))
    return value, scale, a_star


def solve_step_nonlinear(
    n: int,
    problem: OscillatorProblem,
    prev: StepState,
    hist: VelocityHistory,
    cfg: RootSolveConfig,
) -> tuple[StepState, float, int]:
    """Advance one step; returns (new state, order used, residual evaluations).

    Secant iteration started from the previous acceleration; once a sign
    change is seen the iterate is kept inside the bracket, falling back to
    bisection whenever the secant step leaves it or degenerates.
    """
    h = problem.grid.h
    cache: dict = {}

    def f(q):
        return _residual_parts(q, n, problem, prev, hist, cache)

    def done(q, a_star):
        udot_n, u_n = state_from_q(q, prev, h)
        return StepState(q=float(q), udot=float(udot_n), u=float(u_n)), a_star

    x0 = prev.q
    f0, s0, a0 = f(x0)
    evals = 1
    if abs(f0) <= cfg.tol_res * s0:
        return (*done(x0, a0), evals)

    x1 = x0 * (1.0 + 1e-6) + 1e-6
    f1, s1, a1_ = f(x1)
    evals += 1
    bracket = None  # (xa, fa, xb, fb) with a sign change between
    if f0 * f1 < 0.0:
        bracket = (x0, f0, x1, f1)

    while True:
        if abs(f1) <= cfg.tol_res * s1:
            return (*done(x1, a1_), evals)
        if bracket is not None:
            lo, hi = sorted((bracket[0], bracket[2]))
            if hi - lo <= cfg.tol_q * (1.0 + abs(x1)):
                # root pinned to q tolerance; keep the endpoint with the
                # smaller residual
                xa, fa, xb, fb = bracket
                pick = xa if abs(fa) <= abs(fb) else xb
                _, _, a_pick = f(pick)
                return (*done(pick, a_pick), evals + 1)
        if evals >= cfg.max_iters:
            raise StepFailureError(
                f"root solve for step {n} did not converge in {cfg.max_iters} "
                f"evaluations (last q {x1!r}, residual {f1!r})",
                step=n,
                last_q=x1,
                residual=f1,
            )

        if f1 != f0:
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        else:
            x2 = None
        if bracket is not None:
            lo, hi = sorted((bracket[0], bracket[2]))
            if x2 is None or not (lo < x2 < hi):
                x2 = 0.5 * (lo + hi)
        elif x2 is None:
            # flat residual without a bracket: probe sideways
            x2 = x1 + 1e-6 * (1.0 + abs(x1))

        f2, s2, a2_ = f(x2)
        evals += 1
        if bracket is not None:
            xa, fa, xb, fb = bracket
            if (fa < 0.0) == (f2 < 0.0):
                bracket = (x2, f2, xb, fb)
            else:
                bracket = (xa, fa, x2, f2)
        elif f1 * f2 < 0.0:
            bracket = (x1, f1, x2, f2)
        elif f0 * f2 < 0.0:
            bracket = (x0, f0, x2, f2)
        x0, f0 = x1, f1
        x1, f1, s1, a1_ = x2, f2, s2, a2_


def solve(problem: OscillatorProblem, cfg: RootSolveConfig | None = None) -> SolutionTrace:
    """Integrate the problem over its grid with the per-step root solve.

    Handles every admissible problem, including time-only orders (for which
    it reproduces the direct stepper up to the root-solve tolerance) and
    nonlinear restoring terms. The trace's iterations array holds the
    residual evaluation count of each step.
    """
    if cfg is None:
        cfg = RootSolveConfig()
    grid = problem.grid
    N = grid.N

    q = np.empty(N + 1)
    ud = np.empty(N + 1)
    u = np.empty(N + 1)
    alphas = np.empty(N + 1)
    iters = np.zeros(N, dtype=int)

    q[0] = initial_acceleration(problem)
    ud[0] = problem.v0
    u[0] = problem.u0
    try:
        # reference only; never range-checked and never used in a weight row
        alphas[0] = float(problem.alpha.eval(0.0, problem.u0, problem.v0))
    except Exception:
        alphas[0] = math.nan

    hist = VelocityHistory(problem.v0, capacity=N)
    prev = StepState(q=float(q[0]), udot=float(ud[0]), u=float(u[0]))
    for n in range(1, N + 1):
        state, a_star, evals = solve_step_nonlinear(n, problem, prev, hist, cfg)
        q[n], ud[n], u[n] = state.q, state.udot, state.u
        alphas[n] = a_star
        iters[n - 1] = evals
        hist.append(state.udot)
        prev = state

    return SolutionTrace(
        t=grid.times(),
        u=u,
        udot=ud,
        uddot=q,
        alpha_used=alphas,
        udot_mean=hist.udot_mean.copy(),
        iterations=iters,
    )

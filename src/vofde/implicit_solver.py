"""Per-step root solve for state-dependent orders and nonlinear restoring.

Each step solves the step equation of explicit_solver (the governing
equation at t_n with velocity and displacement written as affine functions
of the new acceleration q_n), r0 + den q_n + f_nl(u_n, udot_n) = 0, by a
secant iteration with bisection fallback. It starts from
explicit_solver._start's quartic prediction of q_n through the five
previous accelerations, O(h^5) from the root where the previous
acceleration is O(h) away, and its first step is a Newton step with slope
den: taken without an evaluation when the start already passes the
tolerance, and evaluated otherwise. So a linear problem with a time-only
order takes at most two residual evaluations a step. r0 and den depend on
the kind of order:

- a state-dependent order is re-read at every trial state, in the time
  loop explicit_solver.march, so the weights track the state exactly
  rather than being frozen at the previous step. The history is
  order-free (vo_core.ExpSumHistory), so a new trial order costs its two
  near weights in scalar math (vo_core.near_weights), one exp over the
  modes and one dot (ExpSumHistory.far_sum), and explicit_solver's
  load_term and linear_part;
- a time-only order is known before its step, so node s+1+j reads r0 and
  den from row j of its block's system A Q = rhs (explicit_solver._blocks);
  the root solve evaluates neither the order nor any weight.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import StepFailureError
from .explicit_solver import (
    _block_maps, _blocks, _initial_trace, _start, linear_part, load_term, march, state_from_q
)
from .model import AlphaKind, OscillatorProblem, SolutionTrace, StepState
from .vo_core import near_weights

__all__ = [
    "solve_step_nonlinear",
    "solve",
]

# order change below which cached weights are reused between residual
# evaluations of one step: the weights at orders this close differ by about
# 1e-14 relative, below the _TOL_RES stopping tolerance of 1e-11
_ALPHA_CACHE_TOL = 1e-14

# stopping rules of the root solve: bracket width on q (absolute plus
# relative), scaled residual, and residual evaluations per step
_TOL_Q = 1e-12
_TOL_RES = 1e-11
_MAX_ITERS = 50


def solve_step_nonlinear(
    n: int, problem: OscillatorProblem, prev: StepState, hist, coeffs, start: float
) -> tuple[StepState, float, int]:
    """Advance one step; returns (new state, order used, residual evaluations).

    The order is read at each trial state, and its weights, load and
    linear part are rebuilt whenever it moves by _ALPHA_CACHE_TOL or more.
    hist, coeffs and start are as march hands them; the root solve is
    _root_solve's. A history that does not hold the means of steps
    1 .. n-2 raises IndexError.
    """
    h = problem.grid.h
    tn = n * h
    udot, history = hist
    if history.size != max(n - 2, 0):
        raise IndexError(f"node {n} needs the means of {max(n - 2, 0)} steps, got {history.size}")
    # order, r0 and den of the last order seen
    cached = (math.nan, 0.0, 0.0)

    def weigh(q, udot_n, u_n):
        nonlocal cached
        a_star = problem.alpha.value_at(tn, u_n, udot_n, node=n, trial_q=q)
        if not abs(a_star - cached[0]) < _ALPHA_CACHE_TOL:
            c_nm1, c_n = near_weights(h, a_star)
            weights = (c_nm1 if n >= 2 else 0.0, c_n, history.far_sum(h, a_star))
            g = load_term(coeffs, n, weights, udot)
            r0, den, _ = linear_part(coeffs, weights, g, prev, h)
            cached = (a_star, r0, den)
        return cached

    return _root_solve(n, problem, prev, coeffs, weigh, start)


def _root_solve(n: int, problem: OscillatorProblem, prev: StepState, coeffs, weigh, start: float):
    """Root of node n's step residual in q_n; (new state, order used, evaluations).

    weigh(q, udot_n, u_n) gives the (order, r0, den) of a trial state, r0
    and den the step equation's linear part, and the residual is r0 + den q +
    f_nl(u_n, udot_n). The iteration starts from start, march's
    predicted q_n, or from the previous acceleration if start is not
    finite, and takes one Newton step from it with the start's den. If
    the start's residual is already within tolerance, that step is
    returned unevaluated (the start itself if den is zero or the step is
    not finite); otherwise secant iteration goes on from it. Once a sign
    change is seen the iterate is kept inside the bracket,
    falling back to bisection whenever the secant step leaves it or
    degenerates. A residual counts as zero within _TOL_RES of
    max(1, |p_n|, |a3 u_n|); a non-finite one raises StepFailureError.
    """
    h = problem.grid.h
    _, _, a3, p_n = coeffs

    def f(q):
        udot_n, u_n = state_from_q(q, prev, h)
        a_star, r0, den = weigh(q, udot_n, u_n)
        value = r0 + den * q + problem.nonlinear_term(u_n, udot_n)
        if not math.isfinite(value):
            raise StepFailureError(
                f"residual {value!r} at trial q {q!r} in step {n}",
                step=n,
                last_q=q,
                residual=value,
            )
        return value, max(1.0, abs(p_n), abs(a3 * u_n)), a_star, den

    def done(q, a_star, evals):
        return StepState(q, *state_from_q(q, prev, h)), a_star, evals

    # an overflowing prediction falls back to the previous acceleration,
    # so a state that overflows fails at the step it overflows in
    x0 = start if math.isfinite(start) else prev.q
    f0, s0, a0, den = f(x0)
    # an affine residual is solved here, so a start within tolerance is
    # polished for free rather than returned with its residual; a zero or
    # non-finite quotient keeps the start, or probes beside it
    newton = f0 / den if den != 0.0 else 0.0
    if not math.isfinite(newton):
        newton = 0.0
    if abs(f0) <= _TOL_RES * s0:
        return done(x0 - newton, a0, 1)
    x1 = x0 - newton if newton != 0.0 else x0 * (1.0 + 1e-6) + 1e-6
    f1, s1, a1_, _ = f(x1)
    evals = 2
    bracket = (x0, f0, x1, f1) if f0 * f1 < 0.0 else None  # a sign change between

    while abs(f1) > _TOL_RES * s1:
        if bracket is not None:
            lo, hi = sorted(bracket[::2])
            if hi - lo <= _TOL_Q * (1.0 + abs(x1)):
                # root pinned to q tolerance; keep the endpoint with the
                # smaller residual
                xa, fa, xb, fb = bracket
                pick = xa if abs(fa) <= abs(fb) else xb
                return done(pick, f(pick)[2], evals + 1)
        if evals >= _MAX_ITERS:
            raise StepFailureError(
                f"root solve for step {n} did not converge in {_MAX_ITERS} "
                f"evaluations (last q {x1!r}, residual {f1!r})",
                step=n,
                last_q=x1,
                residual=f1,
            )

        # the quotient first: f1 (x1 - x0) overflows long before the state does
        x2 = x1 - (x1 - x0) / (f1 - f0) * f1 if f1 != f0 else None
        if bracket is not None:
            if x2 is None or not (lo < x2 < hi):
                x2 = 0.5 * (lo + hi)
        elif x2 is None:
            # flat residual without a bracket: probe sideways
            x2 = x1 + 1e-6 * (1.0 + abs(x1))

        f2, s2, a2_, _ = f(x2)
        evals += 1
        if bracket is not None:
            xa, fa, xb, fb = bracket
            bracket = (x2, f2, xb, fb) if (fa < 0.0) == (f2 < 0.0) else (xa, fa, x2, f2)
        elif f1 * f2 < 0.0:
            bracket = (x1, f1, x2, f2)
        elif f0 * f2 < 0.0:
            bracket = (x0, f0, x2, f2)
        x0, f0 = x1, f1
        x1, f1, s1, a1_ = x2, f2, s2, a2_
    return done(x1, a1_, evals)


def solve(problem: OscillatorProblem) -> SolutionTrace:
    """Integrate the problem over its grid with the per-step root solve.

    Handles every admissible problem, including time-only orders (for which
    it reproduces the explicit stepper up to the root-solve tolerance) and
    nonlinear restoring terms. A time-only order is evaluated once per node
    without state, as for the explicit stepper, so one that reads u or udot
    raises OrderDomainError at its node. The trace's iterations array holds
    the residual evaluation count of each step.
    """
    iters = np.zeros(problem.grid.N, dtype=int)
    if problem.alpha.kind is AlphaKind.TIME_ONLY:
        trace = _solve_time_only(problem, iters)
    else:
        def step(n, prev, coeffs, hist, start):
            state, a_star, iters[n - 1] = solve_step_nonlinear(
                n, problem, prev, hist, coeffs, start
            )
            return state, a_star

        trace = march(problem, step)
    return replace(trace, iterations=iters)


def _solve_time_only(problem: OscillatorProblem, iters: np.ndarray) -> SolutionTrace:
    """The root solve of a time-only order, node by node over explicit_solver._blocks.

    Once the nodes of a block before n = s+1+j are solved, row j of its
    system A Q = rhs is node n's linear part, r0 = A[j, :j] . q[s+1 .. s+j]
    - rhs[j] and den = A[j, j]. _root_solve, started from _start, is handed
    Python floats only: one numpy scalar would make every later state one,
    slower and warning where the state overflows.
    """
    trace = _initial_trace(problem)
    q, ud, u, means = trace.uddot, trace.udot, trace.u, trace.udot_mean
    prev = StepState(float(q[0]), float(ud[0]), float(u[0]))
    for s, coeffs, A, rhs, _, _, _ in _blocks(problem, trace, *_block_maps(problem.grid.h)):
        dens, rhs = A.diagonal().tolist(), rhs.tolist()
        # a row product overflows where the state does, and the root solve
        # reports the non-finite residual; one scope a block (one a node
        # costs 1 us) also silences f_nl's overflow warnings
        with np.errstate(over="ignore"):
            for j, coeffs_n in enumerate(coeffs.T.tolist()):
                n = s + 1 + j
                # the order is already the trace's; the root solve only hands it back
                fixed = (None, float(A[j, :j].dot(q[s + 1 : n])) - rhs[j], dens[j])
                udot_prev = prev[1]
                prev, _, iters[n - 1] = _root_solve(
                    n, problem, prev, coeffs_n, lambda q_n, udot_n, u_n: fixed, _start(q, n)
                )
                q[n], ud[n], u[n] = prev
                means[n - 1] = 0.5 * (udot_prev + prev[1])
    return trace

"""The implicit stepper: a root solve per step, in one of two node loops.

Each step solves the step equation of explicit_solver, r0 + den q_n +
f_nl(u_n, udot_n) = 0 with udot_n and u_n affine in the new acceleration
q_n, by a secant iteration with bisection fallback. It starts from
_start's quartic prediction of q_n, O(h^5) from the root, and its first
step is a Newton step with slope den: taken without an evaluation when
the start already passes the tolerance, and evaluated otherwise. So a
linear problem with a time-only order takes at most two residual
evaluations a step. The node loops evaluate each start and take that
free step in place; _root_solve continues from any other start's
evaluation. solve walks the nodes by the kind of order:

- a state-dependent order is re-read at every trial state, in
  _solve_state_dependent, so the weights track the state exactly. The
  history is order-free (vo_core.ExpSumHistory), so a new trial order
  costs its two near weights in scalar math (vo_core.near_weights), one
  exp over the modes and one dot (ExpSumHistory.far_sum), and
  explicit_solver's load_term and linear_part;
- a time-only order is known before its step, so in _solve_time_only node
  s+1+j reads r0 and den from row j of its block's system A Q = rhs
  (explicit_solver._blocks); the root solve evaluates no order or weight.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import StepFailureError
from .explicit_solver import (
    _BLOCK, _block_maps, _blocks, _initial_trace, _singular, _sound, linear_part, load_term,
    state_from_q,
)
from .model import AlphaKind, OscillatorProblem, SolutionTrace, StepState
from .vo_core import ExpSumHistory, near_weights

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
    linear part are rebuilt whenever it moves by _ALPHA_CACHE_TOL or more
    (_weigher); without f_nl, a den that fails _sound raises
    StepFailureError. hist is (udot, history), the velocities through node
    n-1 and the ExpSumHistory of the means of steps 1 .. n-2 (else
    IndexError), coeffs node n's (a1, a2, a3, p) and start its predicted
    q_n; the root solve is _root_solve's.
    """
    udot, history = hist
    if history.size != max(n - 2, 0):
        raise IndexError(f"node {n} needs the means of {max(n - 2, 0)} steps, got {history.size}")
    weigh = _weigher(n, problem, prev, udot, history, coeffs, (math.nan, 0.0, 0.0, 0.0))
    return _root_solve(n, problem, prev, coeffs, weigh, start)


def _weigher(n: int, problem: OscillatorProblem, prev, udot, history, coeffs, cached):
    """solve_step_nonlinear's weigh, cached the (order, r0, den, size) of the last order seen."""
    h = problem.grid.h
    tn = n * h

    def weigh(q, udot_n, u_n):
        nonlocal cached
        a_star = problem.alpha.value_at(tn, u_n, udot_n, node=n, trial_q=q)
        if not abs(a_star - cached[0]) < _ALPHA_CACHE_TOL:
            c_nm1, c_n = near_weights(h, a_star)
            weights = (c_nm1 if n >= 2 else 0.0, c_n, history.far_sum(h, a_star))
            g = load_term(coeffs, n, weights, udot)
            r0, den, size = linear_part(coeffs, weights, g, prev, h)
            if problem.f_nl is None and not _sound(den, size):
                raise _singular(n, den, size)
            cached = (a_star, r0, den, size)
        return cached

    return weigh


def _root_solve(n: int, problem: OscillatorProblem, prev, coeffs, weigh, start: float, first=None):
    """Root of node n's step residual in q_n; (new state, order used, evaluations).

    weigh(q, udot_n, u_n) gives the (order, r0, den, size) of a trial
    state, r0 + den q being the step residual without f_nl(u_n, udot_n)
    and size den's term scale (linear_part). The iteration starts from
    start, or from the previous acceleration if start is not finite;
    first, if given, is the caller's evaluation of it, (residual, scale,
    weigh's tuple), and is continued from. It takes one Newton step from
    the start with the start's den: returned unevaluated (the start itself
    if den is zero or the step is not finite) if the start's residual is
    already within tolerance, else secant iteration goes on from it. Once
    a sign change is seen the iterate is kept inside the bracket, falling
    back to bisection whenever the secant step leaves it or degenerates.
    A residual counts as zero within _TOL_RES of max(1, |p_n|, |a3 u_n|);
    a non-finite one raises StepFailureError, and so does an OverflowError
    while the order or f_nl is evaluated, or _MAX_ITERS evaluations, named
    singular where the last den fails _sound.
    """
    h = problem.grid.h
    _, _, a3, p_n = coeffs

    def f(q):
        udot_n, u_n = state_from_q(q, prev, h)
        try:
            weighed = weigh(q, udot_n, u_n)
            value = weighed[1] + weighed[2] * q + problem.nonlinear_term(u_n, udot_n)
        except OverflowError:  # a float power of the trial state, say
            value, weighed = math.inf, None
        if not math.isfinite(value):
            raise _not_finite(n, q, value)
        return value, max(1.0, abs(p_n), abs(a3 * u_n)), weighed

    def done(q, a_star, evals):
        return StepState(q, *state_from_q(q, prev, h)), a_star, evals

    # as in _start, so a state that overflows fails at the step it overflows in
    x0 = start if math.isfinite(start) else prev[0]
    f0, s0, w0 = first or f(x0)
    if not math.isfinite(f0):  # the caller's evaluation; f raises on its own
        raise _not_finite(n, x0, f0)
    # an affine residual is solved here, so a start within tolerance is
    # polished for free rather than returned with its residual; a zero or
    # non-finite quotient keeps the start, or probes beside it
    den = w0[2]
    newton = f0 / den if den != 0.0 else 0.0
    if not math.isfinite(newton):
        newton = 0.0
    if abs(f0) <= _TOL_RES * s0:
        return done(x0 - newton, w0[0], 1)
    x1 = x0 - newton if newton != 0.0 else x0 * (1.0 + 1e-6) + 1e-6
    f1, s1, w1 = f(x1)
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
                return done(pick, f(pick)[2][0], evals + 1)
        if evals >= _MAX_ITERS:
            if not _sound(*w1[2:]):  # f_nl's slope does not lift a singular linear part
                raise _singular(n, *w1[2:])
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

        f2, s2, w2 = f(x2)
        evals += 1
        if bracket is not None:
            xa, fa, xb, fb = bracket
            bracket = (x2, f2, xb, fb) if (fa < 0.0) == (f2 < 0.0) else (xa, fa, x2, f2)
        elif f1 * f2 < 0.0:
            bracket = (x1, f1, x2, f2)
        elif f0 * f2 < 0.0:
            bracket = (x0, f0, x2, f2)
        x0, f0 = x1, f1
        x1, f1, s1, w1 = x2, f2, s2, w2
    return done(x1, w1[0], evals)


def _not_finite(n: int, q: float, value: float) -> StepFailureError:
    message = f"residual {value!r} at trial q {q!r} in step {n}"
    return StepFailureError(message, step=n, last_q=q, residual=value)


def solve(problem: OscillatorProblem) -> SolutionTrace:
    """Integrate the problem over its grid with the per-step root solve.

    Handles every admissible problem, including time-only orders (for which
    it reproduces the explicit stepper up to the root-solve tolerance) and
    nonlinear restoring terms. A time-only order is evaluated once per node
    without state, as for the explicit stepper, so one that reads u or udot
    raises OrderDomainError at its node. The trace's iterations array holds
    the residual evaluation count of each step.
    """
    iters = np.ones(problem.grid.N, dtype=int)  # a start taken in place costs its one
    time_only = problem.alpha.kind is AlphaKind.TIME_ONLY
    walk = _solve_time_only if time_only else _solve_state_dependent
    return replace(walk(problem, iters), iterations=iters)


def _solve_state_dependent(problem: OscillatorProblem, iters: np.ndarray) -> SolutionTrace:
    """The root solve of a state-dependent order, node by node.

    The problem's node_table, built before the first step (so a1 is
    checked and a p that raises raises there), is read _BLOCK rows at a
    time. Each start is evaluated here as _weigher and _root_solve would;
    any not within tolerance goes to _root_solve with its weights.
    """
    N, h = problem.grid.N, problem.grid.h
    order, linear = problem.alpha.value_at, problem.f_nl is None
    trace = _initial_trace(problem)
    q, ud, u, alphas, means = trace.uddot, trace.udot, trace.u, trace.alpha_used, trace.udot_mean
    prev = (float(q[0]), float(ud[0]), float(u[0]))
    history = ExpSumHistory(N)
    for first in range(1, N + 1, _BLOCK):
        for n, coeffs_n in enumerate(problem.node_table[first : first + _BLOCK].tolist(), first):
            if n >= 3:
                history.push(means[n - 3])
            x0 = _start(q, n)
            udot_n, u_n = state_from_q(x0, prev, h)
            try:
                a_star = order(n * h, u_n, udot_n, node=n, trial_q=x0)
                c_nm1, c_n = near_weights(h, a_star)
                weights = (c_nm1 if n >= 2 else 0.0, c_n, history.far_sum(h, a_star))
                g = load_term(coeffs_n, n, weights, ud)
                r0, den, size = linear_part(coeffs_n, weights, g, prev, h)
                if linear and not _sound(den, size):
                    raise _singular(n, den, size)
                f0 = r0 + den * x0 + problem.nonlinear_term(u_n, udot_n)
            except OverflowError:
                f0 = math.inf
            s0 = max(1.0, abs(coeffs_n[3]), abs(coeffs_n[2] * u_n))
            if math.isfinite(f0) and abs(f0) <= _TOL_RES * s0:
                newton = f0 / den if den != 0.0 else 0.0
                q_n = x0 - newton if math.isfinite(newton) else x0
                udot_n, u_n = state_from_q(q_n, prev, h)
                state = (q_n, udot_n, u_n)
            else:  # a non-finite f0 raises there before any weight is read
                cached = (a_star, r0, den, size) if math.isfinite(f0) else None
                weigh = _weigher(n, problem, prev, ud, history, coeffs_n, cached)
                state, a_star, iters[n - 1] = _root_solve(
                    n, problem, prev, coeffs_n, weigh, x0, (f0, s0, cached)
                )
            q[n], ud[n], u[n] = state
            alphas[n] = a_star
            means[n - 1] = 0.5 * (prev[1] + state[1])
            prev = state
    return trace


def _solve_time_only(problem: OscillatorProblem, iters: np.ndarray) -> SolutionTrace:
    """The root solve of a time-only order, node by node over explicit_solver._blocks.

    Once the nodes of a block before n = s+1+j are solved, row j of its
    system A Q = rhs is node n's linear part, r0 = A[j, :j] . q[s+1 .. s+j]
    - rhs[j] and den = A[j, j]; without f_nl, the first node whose den from
    _blocks fails _sound raises instead. Each start is evaluated here as
    _root_solve would; any not within tolerance goes on there. The state
    stays in Python floats: one numpy scalar would make every later state
    one, slower and warning where the state overflows.
    """
    h = problem.grid.h
    trace = _initial_trace(problem)
    q, ud, u, means = trace.uddot, trace.udot, trace.u, trace.udot_mean
    prev = (float(q[0]), float(ud[0]), float(u[0]))
    for s, coeffs, A, rhs, den, size, _ in _blocks(problem, trace, *_block_maps(h)):
        k = rhs.size
        if problem.f_nl is None and not (sound := _sound(den, size)).all():
            k = int(np.argmin(sound))
        dens, sizes, rhs = A.diagonal().tolist(), size.tolist(), rhs.tolist()
        # a row product overflows where the state does, and the root solve
        # reports the non-finite residual; one scope a block (one a node
        # costs 1 us) also silences f_nl's overflow warnings
        with np.errstate(over="ignore"):
            for j, coeffs_n in enumerate(coeffs.T[:k].tolist()):
                n = s + 1 + j
                r0, den_n = float(A[j, :j].dot(q[s + 1 : n])) - rhs[j], dens[j]
                x0 = _start(q, n)
                udot_n, u_n = state_from_q(x0, prev, h)
                try:
                    f0 = r0 + den_n * x0 + problem.nonlinear_term(u_n, udot_n)
                except OverflowError:
                    f0 = math.inf
                s0 = max(1.0, abs(coeffs_n[3]), abs(coeffs_n[2] * u_n))
                if math.isfinite(f0) and abs(f0) <= _TOL_RES * s0:
                    newton = f0 / den_n if den_n != 0.0 else 0.0
                    q_n = x0 - newton if math.isfinite(newton) else x0
                    udot_n, u_n = state_from_q(q_n, prev, h)
                    state = (q_n, udot_n, u_n)
                else:  # the order is already the trace's; the root solve only hands it back
                    fixed = (None, r0, den_n, sizes[j])
                    state, _, iters[n - 1] = _root_solve(
                        n, problem, prev, coeffs_n, lambda *_: fixed, x0, (f0, s0, fixed)
                    )
                q[n], ud[n], u[n] = state
                means[n - 1] = 0.5 * (prev[1] + state[1])
                prev = state
        if k < len(rhs):
            raise _singular(s + 1 + k, den[k], size[k])
    return trace


def _start(q: np.ndarray, n: int) -> float:
    """A root solve's predicted q_n, from the accelerations q[0] .. q[n-1] solved so far.

    The quartic through the five previous accelerations, O(h^5) from the
    root, the quadratic through three for n = 3, 4, and q_{n-1} for n <= 2
    or where the prediction overflows: a Python float.
    """
    if n >= 5:
        q_5, q_4, q_3, q_2, q_1 = q[n - 5 : n].tolist()
        start = 5.0 * q_1 - 10.0 * q_2 + 10.0 * q_3 - 5.0 * q_4 + q_5
    elif n >= 3:
        q_3, q_2, q_1 = q[n - 3 : n].tolist()
        start = 3.0 * q_1 - 3.0 * q_2 + q_3
    else:
        return float(q[n - 1])
    return start if math.isfinite(start) else q_1

"""Test oracles: independent forms of what the package computes.

The package runs on numpy alone; scipy is a test dependency and is
imported only here and by the tests themselves.
caputo_quadrature_oracle evaluates the defining history integral at a
fixed order by QUADPACK's algebraic-weight rule; ode_limit_oracle
integrates an integer-order limit equation with DOP853 at tight tolerance.
Either raises this module's ConvergenceError when scipy misses its
tolerance.

step_matrices writes the 3x3 step system L x_n = R x_{n-1} + (g_n, 0, 0)
of one step with a1, a2 and a3 evaluated here, not taken from the
problem's coefficient table; the explicit step and the stability sweep
are checked against it. check_scenario_consistency plugs a scenario's
exact solution into its own equation with the fractional term from the
quadrature oracle. direct_history_sums builds the history sums from one
full weight row per node, the direct O(N^2) route that history_sums is
checked against. solve_step is the explicit step node by node: the
package's load_term, state_from_q and step_residual at q_n = 0, divided
by the step's slope, which the explicit stepper's block loop must match
bit for bit. direct_solve is the direct row stepper: that step and the
implicit one in the package's time loop, with the known history read from
full weight rows (DirectHistory) instead of the sum of exponentials,
O(N^2) in all.
node_residuals is discrete_residuals written as one loop over the nodes,
the form the array version must match bit for bit.
"""

import math
from math import gamma
from typing import Callable

import numpy as np
from scipy.integrate import quad, solve_ivp

from vofde import coefficient_row, history_sums
from vofde.errors import OrderDomainError, StepFailureError
from vofde.explicit_solver import _COND_LIMIT, load_term, march, state_from_q, step_residual
from vofde.implicit_solver import solve_step_nonlinear
from vofde.model import StepState
from vofde.stability import amplification_from_matrices


class ConvergenceError(RuntimeError):
    """A scipy oracle did not reach its tolerance."""


def step_matrices(problem, n, row):
    """L and R of step n with coefficients evaluated at t_n.

    Rows two and three encode the average-acceleration update relations and
    depend only on h.
    """
    if row.shape != (n,):
        raise IndexError(f"weight row of shape {row.shape} given for node {n}")
    h = problem.grid.h
    tn = n * h
    a1, a2, a3 = (float(fn(tn)) for fn in (problem.a1, problem.a2, problem.a3))
    c_nn = float(row[n - 1])
    c_nm1 = float(row[n - 2]) if n >= 2 else 0.0
    left = np.array([[a1, 0.5 * a2 * c_nn, a3], [0.25 * h * h, -h, 1.0], [-0.5 * h, 1.0, 0.0]])
    right = np.array(
        [[0.0, -0.5 * a2 * (c_nm1 + c_nn), 0.0], [-0.25 * h * h, 0.0, 1.0], [0.5 * h, 1.0, 0.0]]
    )
    return left, right


def amplification_matrix(n, problem, row):
    """A_n = L^{-1} R of step n, through the package's singularity guard."""
    left, right = step_matrices(problem, n, row)
    return amplification_from_matrices(left, right, step=n)


def check_scenario_consistency(scn, n_samples=8, tol=1e-10):
    """Residual of the exact solution in the governing equation.

    Plugs the scenario's exact solution into its own equation at sample
    times, with the fractional term evaluated by the direct quadrature
    oracle, and returns the largest absolute residual. Only meaningful for
    scenarios that carry exact_u (manufactured or known true solutions).
    """
    if scn.problem is None or scn.exact_u is None or scn.exact_uddot is None:
        raise ValueError(f"scenario {scn.name!r} carries no exact solution to check")
    prob = scn.problem
    T = scn.grid.T
    worst = 0.0
    for t in np.linspace(T / n_samples, T, n_samples):
        t = float(t)
        u = float(scn.exact_u(t))
        ud = float(scn.exact_udot(t))
        a = prob.alpha.value_at(t, u, ud)
        deriv = caputo_quadrature_oracle(scn.exact_udot, a, t, tol=tol)
        res = (
            float(prob.a1(t)) * float(scn.exact_uddot(t))
            + float(prob.a2(t)) * deriv
            + float(prob.a3(t)) * u
            + prob.nonlinear_term(u, ud)
            - float(prob.p(t))
        )
        worst = max(worst, abs(res))
    return worst


def solve_step(problem, n, weights, hist, prev, coeffs):
    """Advance a linear problem to node n in one Newton step from q_n = 0.

    The step residual is then affine in q_n with slope
    den = a1 + a2 c_n h/4 + a3 h^2/4, so q_n = -residual(0) / den exactly.
    A denominator that is zero or lost in rounding raises StepFailureError
    naming step n, and so does a non-finite q_n.
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
        raise StepFailureError(f"step equation singular (denominator {den:.3e})", step=n)
    q = -residual / den
    if not math.isfinite(q):
        raise StepFailureError(f"acceleration {q!r} in step {n}", step=n)
    return StepState(q, *state_from_q(q, prev, h))


def direct_history_sums(means, orders, h, nodes=None):
    """S_n = sum_r c_r^n m_r for n = 1 .. N, one coefficient_row per node.

    Returns the sums and the scale of the largest history,
    max(1, max_n sum_r |c_r^n m_r|), against which the fast route's error is
    measured: per node, the error is relative to that global scale, not to
    the node's own sum, which can be tiny. Given nodes, a sequence of n,
    the sums and the scale are taken at those nodes only.
    """
    means = np.asarray(means, dtype=float)
    nodes = range(1, means.size + 1) if nodes is None else nodes
    sums = np.empty(len(nodes))
    scale = 1.0
    for i, n in enumerate(nodes):
        row = coefficient_row(int(n), h, float(orders[n - 1]))
        sums[i] = row @ means[:n]
        scale = max(scale, float(np.abs(row) @ np.abs(means[:n])))
    return sums, scale


class DirectHistory:
    """The step means 1 .. size in full, with far sums from weight rows.

    It stands in for vo_core.ExpSumHistory in the implicit steps: the far
    weights at an order are the first size entries of node size + 2's row,
    and the state is the means themselves, so far_sum, their dot, is the
    direct known history sum.
    """

    def __init__(self, means):
        self.state = np.asarray(means, dtype=float)
        self.size = self.state.size

    def far_sum(self, h, alpha):
        return float(coefficient_row(self.size + 2, h, alpha)[: self.size] @ self.state)


def direct_solve(problem, implicit=False):
    """Trace of the explicit (or implicit) stepper with direct history sums.

    Each step gets a DirectHistory of the trace's own step means; the
    explicit steps take all their weights from node n's full row. The
    implicit trace carries its evaluation counts.
    """
    h = problem.grid.h
    alphas = None if implicit else problem.time_only_orders
    iters = np.zeros(problem.grid.N, dtype=int)

    def step(n, prev, coeffs, _node, hist):
        udot, m = hist[0], max(n - 2, 0)
        hist = (udot, DirectHistory(0.5 * (udot[:m] + udot[1 : m + 1])))
        if implicit:
            state, a, iters[n - 1] = solve_step_nonlinear(n, problem, prev, hist, coeffs)
            return state, a
        a = float(alphas[n])
        row = coefficient_row(n, h, a)
        weights = (float(row[-2]) if n >= 2 else 0.0, float(row[-1]), row[: n - 2])
        return solve_step(problem, n, weights, hist, prev, coeffs), a

    trace = march(problem, step)
    if implicit:
        trace.iterations = iters
    return trace


def node_residuals(problem, trace):
    """Scaled residual of the discrete equation, evaluated node by node."""
    history = history_sums(trace.udot_mean, trace.alpha_used[1:], problem.grid.h)
    out = np.empty(trace.N + 1)
    for n in range(trace.N + 1):
        tn = trace.t[n]
        deriv = float(history[n - 1]) if n else 0.0
        inertia = float(problem.a1(tn)) * trace.uddot[n]
        damping = float(problem.a2(tn)) * deriv
        restoring = float(problem.a3(tn)) * trace.u[n]
        extra = problem.nonlinear_term(float(trace.u[n]), float(trace.udot[n]))
        load = float(problem.p(tn))
        res = inertia + damping + restoring + extra - load
        scale = max(1.0, abs(inertia), abs(damping), abs(restoring), abs(extra), abs(load))
        out[n] = res / scale
    return out


def caputo_quadrature_oracle(
    u_dot: Callable[[float], float], alpha: float, t: float, tol: float = 1e-10
) -> float:
    """Direct evaluation of the defining history integral at fixed order.

    QUADPACK's algebraic-weight rule (scipy.integrate.quad with
    weight="alg") integrates u'(x) against the kernel (t - x)^(-alpha),
    endpoint singularity included, to the requested absolute tolerance on
    the derivative. Intended as an independent check of the closed-form
    weights; too slow for use inside stepping loops. A rule that cannot
    reach the tolerance raises ConvergenceError.
    """
    a = float(alpha)
    if not (0.0 < a < 1.0):  # also rejects nan
        raise OrderDomainError(f"fractional order must lie in (0, 1), got {alpha!r}")
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0.0:
        raise ValueError(f"oracle needs t > 0, got {t!r}")
    if not (tol >= 1e-12):
        raise ValueError(f"tolerance must be at least 1e-12, got {tol!r}")
    norm = gamma(1.0 - a)
    raw, err, _info, *message = quad(
        u_dot, 0.0, t, weight="alg", wvar=(0.0, -a),
        epsabs=tol * norm, epsrel=0.0, limit=200, full_output=1,
    )
    if message:
        raise ConvergenceError(
            f"quadrature oracle did not reach tolerance {tol:.3e} "
            f"(error estimate {err / norm:.3e}): {message[0]}"
        )
    return raw / norm


def ode_limit_oracle(rhs, y0, t_samples, tol: float = 1e-10) -> np.ndarray:
    """High-accuracy displacement reference for an integer-order limit ODE.

    Integrates y' = rhs(t, y) from t = 0 with an adaptive high-order
    Runge-Kutta method at tight tolerance and returns the first state
    component at the requested sample times (which must be nondecreasing).
    """
    samples = np.asarray(t_samples, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("t_samples must be a nonempty 1-d array")
    if np.any(np.diff(samples) < 0.0) or samples[0] < 0.0:
        raise ValueError("t_samples must be nondecreasing and nonnegative")
    y0 = np.asarray(y0, dtype=float)
    t_end = float(samples[-1])
    if t_end == 0.0:
        return np.full(samples.size, y0[0])
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        y0,
        method="DOP853",
        t_eval=samples,
        rtol=max(tol, 1e-13),
        atol=tol,
    )
    if not sol.success:
        raise ConvergenceError(f"limit-equation integration failed: {sol.message}")
    return sol.y[0]

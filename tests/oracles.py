"""Test oracles: independent forms of what the package computes.

step_matrices writes the 3x3 step system L x_n = R x_{n-1} + (g_n, 0, 0)
of one step with a1, a2 and a3 evaluated here, not taken from the
problem's coefficient table; the explicit step and the stability sweep
are checked against it. check_scenario_consistency plugs a scenario's
exact solution into its own equation with the fractional term from the
quadrature oracle. direct_history_sums builds the history sums from one
full weight row per node, the direct O(N^2) route that history_sums is
checked against.
"""

import numpy as np

from vofde import caputo_quadrature_oracle, coefficient_row
from vofde.stability import amplification_from_matrices


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


def direct_history_sums(means, orders, h):
    """S_n = sum_r c_r^n m_r for n = 1 .. N, one coefficient_row per node.

    Returns the sums and the scale of the largest history,
    max(1, max_n sum_r |c_r^n m_r|), against which the fast route's error is
    measured: per node, the error is relative to that global scale, not to
    the node's own sum, which can be tiny.
    """
    means = np.asarray(means, dtype=float)
    sums = np.empty(means.size)
    scale = 1.0
    for n in range(1, means.size + 1):
        row = coefficient_row(n, h, float(orders[n - 1]))
        sums[n - 1] = row @ means[:n]
        scale = max(scale, float(np.abs(row) @ np.abs(means[:n])))
    return sums, scale

"""Shared pytest hooks and test helpers.

The acceptance module records one verdict line per criterion; they are
replayed after the run summary so they stay visible even though pytest
captures stdout during the tests themselves.
"""

import numpy as np

from vofde.vo_core import ExpSumHistory, coefficient_row

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def node_coeffs(problem, n):
    """(a1, a2, a3, p) at t_n, evaluated one by one, as march hands them to a step."""
    tn = n * problem.grid.h
    return tuple(float(fn(tn)) for fn in (problem.a1, problem.a2, problem.a3, problem.p))


def step_means(endpoints):
    """Mean velocity of each step from the node velocities, node 0 first."""
    udot = np.asarray(endpoints, dtype=float)
    return 0.5 * (udot[:-1] + udot[1:])


def history_of(endpoints, n_steps=None):
    """The (udot, history) of the given node velocities, node 0 first.

    As march hands it to the step at the node after the last velocity: the
    history holds every step mean but the last. n_steps sizes its kernel
    (default: one step per velocity).
    """
    udot = np.array(endpoints, dtype=float)
    history = ExpSumHistory(n_steps or udot.size)
    for mean in step_means(udot)[:-1]:
        history.push(mean)
    return udot, history


def node_weights(n, h, alpha, hist):
    """(c_{n-1}, c_n, far) of node n at one order, far from the history of hist.

    The near pair is the row coefficient_row(2, h, alpha), with c_{n-1} = 0
    at n = 1, and far the history's far_sum, the known history sum over the
    steps it holds.
    """
    alpha = float(alpha)
    c_nm1, c_n = coefficient_row(2, h, alpha).tolist()
    return (c_nm1 if n >= 2 else 0.0, c_n, hist[1].far_sum(h, alpha))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)

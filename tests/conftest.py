"""Shared pytest hooks and test helpers.

The acceptance module records one verdict line per criterion; they are
replayed after the run summary so they stay visible even though pytest
captures stdout during the tests themselves.
"""

import numpy as np

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def node_coeffs(problem, n):
    """(a1, a2, a3, p) at t_n, evaluated one by one, as march hands them to a step."""
    tn = n * problem.grid.h
    return tuple(float(fn(tn)) for fn in (problem.a1, problem.a2, problem.a3, problem.p))


def history_of(endpoints):
    """The (udot, means) history of the given node velocities, node 0 first."""
    udot = np.array(endpoints, dtype=float)
    return udot, 0.5 * (udot[:-1] + udot[1:])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)

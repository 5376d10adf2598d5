"""Shared pytest hooks and test helpers.

The acceptance module records one verdict line per criterion; they are
replayed after the run summary so they stay visible even though pytest
captures stdout during the tests themselves.
"""

from vofde import VelocityHistory

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def history_of(endpoints) -> VelocityHistory:
    """Velocity history holding the given endpoint velocities, node 0 first."""
    hist = VelocityHistory(endpoints[0])
    for v in endpoints[1:]:
        hist.append(v)
    return hist


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_lines:
        terminalreporter.write_line(line)

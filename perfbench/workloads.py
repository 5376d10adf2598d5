"""Workloads of the vofde benchmark: inputs made from a seed, jobs, output checks.

Importing this module puts the checkout's ``src`` directory first on the
module path and refuses any other copy of vofde, so the benchmark always
measures the code of the checkout it runs in.

A workload is one pass: a list of named jobs that run back to back. Each job
calls only the public vofde API (looked up on the package at call time,
so the tracer's wrappers take effect), adds its CPU time to the pass's
``trace_s`` and ``verify_s`` phases, and returns the list of output checks
it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import vofde  # noqa: E402
import vofde.cli  # noqa: E402

if not Path(vofde.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"vofde was imported from {vofde.__file__}, not from {SRC}")

# Grid sizes N of each workload's problems.
SIZES = {"long_horizon": 25000, "state_feedback": 10000, "registry_sweep": 500}
NAMES = tuple(SIZES)

# Limits of the output checks: the scaled-residual limit of acceptance
# criterion 12 and the ex4 error limit of criterion 9.
RESIDUAL_LIMIT = 1e-9
EX4_ERROR_LIMIT = 5e-3

# CLI exit code of a run whose stability verdict holds only along the trace.
EXIT_CONDITIONAL = 4


class Phases:
    """CPU seconds of one pass, per end-to-end phase.

    The benchmark runs single-threaded (BLAS pinned to one thread), so on an
    idle machine process CPU time equals wall time. On a shared virtual
    machine it also leaves out the time the hypervisor gives the CPU to
    other guests, which made wall-clock figures drift by up to 40% between
    runs of identical work.
    """

    def __init__(self):
        self.trace_s = 0.0
        self.verify_s = 0.0

    @contextlib.contextmanager
    def timed(self, phase: str):
        """Add the block's CPU time to ``phase``, also when the block raises."""
        start = time.process_time()
        try:
            yield
        finally:
            setattr(self, phase, getattr(self, phase) + time.process_time() - start)


Job = Callable[[Phases], list]


# output checks ---------------------------------------------------------------

def check_trace(trace, residuals) -> list[str]:
    """Finite values, orders inside (0, 1) and residuals within the limit."""
    failures = []
    arrays = {
        "t": trace.t, "u": trace.u, "udot": trace.udot, "uddot": trace.uddot,
        "alpha_used": trace.alpha_used, "udot_mean": trace.udot_mean,
    }
    for name, values in arrays.items():
        if not np.all(np.isfinite(values)):
            failures.append(f"non-finite {name}")
    orders = trace.alpha_used[1:]
    if not np.all((orders > 0.0) & (orders < 1.0)):
        failures.append("alpha_used[1:] leaves (0, 1)")
    worst = float(np.max(np.abs(residuals)))
    if not worst <= RESIDUAL_LIMIT:
        failures.append(f"scaled residual {worst:.3e} > {RESIDUAL_LIMIT:g}")
    return failures


def check_stable(satisfied: bool) -> list[str]:
    return [] if satisfied else ["stability verdict not satisfied"]


# long_horizon ------------------------------------------------------------------

def _long_horizon(seed: int, n_steps: int) -> list[tuple[str, Job]]:
    rng = random.Random(seed)
    u0 = 1.0 * rng.uniform(0.8, 1.2)
    v0 = 10.0 * rng.uniform(0.8, 1.2)
    T = 5.0
    problem = vofde.OscillatorProblem.build(
        a1=1.0, a2=1.0, a3=25.0, p=0.0,
        alpha=vofde.AlphaSpec.of_time(lambda t: 0.8 * (1.0 - math.exp(-t))),
        u0=u0, v0=v0, T=T, h=T / n_steps,
    )

    def job(phases: Phases) -> list[str]:
        with phases.timed("trace_s"):
            trace = vofde.solve_explicit(problem)
            report = vofde.stability_report(problem)
        with phases.timed("verify_s"):
            residuals = vofde.discrete_residuals(problem, trace)
        return check_trace(trace, residuals) + check_stable(report.satisfied)

    return [("ex2iii_d-like", job)]


# state_feedback ----------------------------------------------------------------

def _implicit_job(problem, time_only: bool, exact_u=None) -> Job:
    def job(phases: Phases) -> list[str]:
        with phases.timed("trace_s"):
            trace = vofde.solve_implicit(problem)
            report = vofde.stability_report_along_trace(problem, trace)
        with phases.timed("verify_s"):
            residuals = vofde.discrete_residuals(problem, trace)
        failures = check_trace(trace, residuals)
        if time_only:
            failures += check_stable(report.satisfied)
        if exact_u is not None:
            error = float(np.max(np.abs(trace.u - exact_u(trace.t))))
            if not error <= EX4_ERROR_LIMIT:
                failures.append(f"max |u - exact| {error:.3e} > {EX4_ERROR_LIMIT:g}")
        return failures

    return job


def _state_feedback(seed: int, n_steps: int) -> list[tuple[str, Job]]:
    # v0 within 10% of ex3iii's 10: over [5, 15] the weight rows built per
    # solve fall from 29.9k to 21.0k as tanh|udot| saturates and the solver's
    # row cache hits, which would make the seed change the cost class
    v0 = random.Random(seed).uniform(9.0, 11.0)
    T = 5.0
    feedback = vofde.OscillatorProblem.build(
        a1=1.0, a2=0.4, a3=4.0, p=0.0,
        alpha=vofde.AlphaSpec.of_state(lambda t, u, udot: 1.0 - 0.5 * math.tanh(abs(udot))),
        u0=0.0, v0=v0, T=T, h=T / n_steps,
    )
    # ex4 stays unperturbed so that its manufactured u = t^2 remains exact
    ex4 = vofde.scenario("ex4", h=1.0 / n_steps).problem
    return [
        ("ex3iii-like", _implicit_job(feedback, time_only=False)),
        ("ex4", _implicit_job(ex4, time_only=True, exact_u=lambda t: t * t)),
    ]


# registry_sweep ----------------------------------------------------------------

def read_trace_csv(path: Path):
    """SolutionTrace from a CLI trace CSV; step means follow from the velocities."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    udot = data[:, 2]
    return vofde.SolutionTrace(
        t=data[:, 0], u=data[:, 1], udot=udot, uddot=data[:, 3],
        alpha_used=data[:, 4], udot_mean=0.5 * (udot[:-1] + udot[1:]),
    )


def _registry_job(name: str, n_steps: int, out_dir: Path) -> Job:
    horizon = vofde.scenario(name, h=1.0).grid.T
    h = horizon / n_steps
    problem = vofde.scenario(name, h=h).problem
    time_only = problem.alpha.kind is vofde.AlphaKind.TIME_ONLY
    expected_code = 0 if time_only else EXIT_CONDITIONAL
    csv_path = out_dir / f"{name}.csv"
    argv = ["scenario", "--name", name, "--h", repr(h), "--stability", "--out", str(csv_path)]

    def job(phases: Phases) -> list[str]:
        with phases.timed("trace_s"), contextlib.redirect_stderr(io.StringIO()):
            code = vofde.cli.main(argv)
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}"]
        with phases.timed("verify_s"):
            trace = read_trace_csv(csv_path)
            residuals = vofde.discrete_residuals(problem, trace)
        failures = []
        if trace.N != problem.grid.N:
            failures.append(f"CSV holds {trace.N + 1} rows, expected {problem.grid.N + 1}")
        else:
            failures += check_trace(trace, residuals)
        with open(f"{csv_path}.stability.json", encoding="utf-8") as f:
            satisfied = json.load(f)["satisfied"]
        if time_only:
            failures += check_stable(satisfied)
        return failures

    return job


def _registry_sweep(seed: int, n_steps: int, out_dir: Path) -> list[tuple[str, Job]]:
    names = [n for n in vofde.SCENARIO_NAMES if vofde.scenario(n, h=1.0).problem is not None]
    random.Random(seed).shuffle(names)
    return [(name, _registry_job(name, n_steps, out_dir)) for name in names]


def build(name: str, seed: int, out_dir: Path, n_steps: int | None = None) -> list[tuple[str, Job]]:
    """Named jobs of one pass of workload ``name`` for ``seed``.

    ``n_steps`` overrides the workload's grid size N; ``out_dir`` is where
    registry_sweep's CLI runs write their files (nothing is written here).
    """
    if name not in SIZES:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    n = SIZES[name] if n_steps is None else n_steps
    if name == "long_horizon":
        return _long_horizon(seed, n)
    if name == "state_feedback":
        return _state_feedback(seed, n)
    return _registry_sweep(seed, n, out_dir)

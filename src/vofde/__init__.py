"""Solvers for oscillators with a variable-order fractional damping term.

The fractional term is the Caputo-type history derivative whose order may
change with time or with the state itself. vo_core holds the discrete
derivative machinery, explicit_solver the step equation, its block system
and the explicit stepping for time-only orders, implicit_solver the root
solve in two node loops for state-dependent orders and nonlinear forces,
stability the spectral-radius check, and reference the benchmark scenarios.
"""

from .errors import DegenerateProblemError, OrderDomainError, StepFailureError
from .explicit_solver import solve as solve_explicit
from .implicit_solver import solve as solve_implicit
from .model import (
    AlphaKind,
    AlphaSpec,
    OscillatorProblem,
    SolutionTrace,
    StepState,
    discrete_residuals,
)
from .reference import (
    SCENARIO_NAMES,
    Scenario,
    list_scenarios,
    scenario,
)
from .stability import (
    StabilityReport,
    spectral_radius,
    stability_report,
    stability_report_along_trace,
)
from .vo_core import (
    Grid,
    coefficient,
    coefficient_row,
    history_sums,
    vo_derivative_series,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaKind",
    "AlphaSpec",
    "DegenerateProblemError",
    "Grid",
    "OrderDomainError",
    "OscillatorProblem",
    "SCENARIO_NAMES",
    "Scenario",
    "SolutionTrace",
    "StabilityReport",
    "StepFailureError",
    "StepState",
    "coefficient",
    "coefficient_row",
    "discrete_residuals",
    "history_sums",
    "list_scenarios",
    "scenario",
    "solve_explicit",
    "solve_implicit",
    "spectral_radius",
    "stability_report",
    "stability_report_along_trace",
    "vo_derivative_series",
]

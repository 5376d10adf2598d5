"""Command-line front end.

Three subcommands: ``list`` prints the scenario registry, ``scenario`` runs
one registered benchmark, and ``run`` executes a JSON run configuration
(either a registry reference or an inline problem built from a small
catalog of coefficient forms). Exit codes: 0 success, 2 configuration or
usage error, 3 solver failure, 4 success but with a stability check that is
only conditional on the solved trajectory (state-dependent order).

parse_config checks a request in full before anything is loaded, solved or
written. It knows every run's horizon, T or the scenario's default from the
registry table, and checks the steps against it (_check_steps_fit), as
convergence_study does for its own steps when called from Python.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import explicit_solver, implicit_solver
from .errors import DegenerateProblemError, OrderDomainError, StepFailureError
from .model import AlphaKind, AlphaSpec, OscillatorProblem, SolutionTrace
from .reference import Scenario, default_horizon, list_scenarios, scenario
from .stability import (
    StabilityReport,
    stability_report,
    stability_report_along_trace,
)
from .vo_core import Grid, _check_order, _check_positive, vo_derivative_series

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "solve_problem",
    "convergence_study",
    "write_trace_csv",
    "write_convergence_csv",
    "write_stability_json",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_CONDITIONAL_STABILITY = 4

_OUTPUT_KINDS = ("trace", "stability", "convergence")


class ConfigError(ValueError):
    """Invalid run configuration or command usage."""


@dataclass
class RunConfig:
    """Validated run request, shared by the run and scenario subcommands."""

    h: float
    T: float
    outputs: tuple[str, ...]
    out_path: Optional[str]
    scenario_name: Optional[str] = None
    problem_spec: Optional[dict] = None
    convergence_steps: tuple[float, ...] = ()


# inline problem catalog ------------------------------------------------------

def _require_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer too large for a float
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return v


def _from_form(spec, forms: dict, what: str):
    """Build what a {"form": name, "params": {...}} object asks for, by its table.

    forms maps each form to ({parameter: default, or None when required},
    builder); a bare number is shorthand for a table's constant form. Every
    parameter becomes a finite number, except one whose default is [], which
    must be a nonempty list of them (the polynomial's coefficients). The
    builder gets them as keywords, and a ValueError it raises about them
    becomes a ConfigError naming what.
    """
    takes_number = "constant" in forms
    if takes_number and isinstance(spec, (int, float)) and not isinstance(spec, bool):
        spec = {"form": "constant", "params": {"value": spec}}
    if not isinstance(spec, dict) or set(spec) - {"form", "params"}:
        expected = "a number or a form object" if takes_number else "a form object"
        raise ConfigError(f"{what} must be {expected}, got {spec!r}")
    form, params = spec.get("form"), spec.get("params", {})
    if not isinstance(form, str) or form not in forms:
        raise ConfigError(f"{what} has unknown form {form!r}; known forms: {', '.join(forms)}")
    defaults, build = forms[form]
    if not isinstance(params, dict) or set(params) - set(defaults):
        raise ConfigError(f"{what} {form!r} takes the parameters {list(defaults)}, got {params!r}")
    args = {}
    for name, default in defaults.items():
        if name not in params and default is None:
            raise ConfigError(f"{what} is missing required parameter {name!r}")
        value = params.get(name, default)
        if default != []:
            args[name] = _require_number(value, f"{what}.{name}")
        elif isinstance(value, list) and value:
            args[name] = [_require_number(c, f"{what}.{name}[{i}]") for i, c in enumerate(value)]
        else:
            raise ConfigError(f"{what}.{name} must be a nonempty list")
    try:
        return build(**args)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _polynomial(coeffs: list) -> Callable[[float], float]:
    def poly(t: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return poly


def _power(coeff: float, exponent: float) -> Callable[[float], float]:
    if exponent < 0.0:
        raise ValueError("the exponent must be >= 0 so values stay finite at t = 0")
    return lambda t: coeff * t ** exponent


def _time_only(build):
    return lambda **params: AlphaSpec.of_time(build(**params))


# the inline catalog: form -> ({parameter: default, None if required, [] for a list}, builder)
_TIME_FORMS = {
    "constant": ({"value": None}, lambda value: lambda t: value),
    "polynomial": ({"coeffs": []}, _polynomial),
    "exp_decay": (
        {"offset": None, "scale": None, "rate": 1.0},
        lambda offset, scale, rate: lambda t: offset + scale * math.exp(-rate * t),
    ),
    "power": ({"coeff": None, "exponent": None}, _power),
}
# an order is any time form, time-only, or a form that reads the state; only
# a constant one is range-checked before the solve
_ORDER_FORMS = {
    **{form: (params, _time_only(build)) for form, (params, build) in _TIME_FORMS.items()},
    "constant": ({"value": None}, lambda value: AlphaSpec.constant(_check_order(value))),
    "tanh_abs_velocity": (
        {"d": None, "k": None},
        lambda d, k: AlphaSpec.of_state(lambda t, u, udot: d - k * math.tanh(abs(udot))),
    ),
}
_NONLINEAR_FORMS = {"cubic": ({"coeff": 1.0}, lambda coeff: lambda u, udot: coeff * u ** 3)}


def _build_problem(spec: dict, h: float, T: float) -> OscillatorProblem:
    if not isinstance(spec, dict):
        raise ConfigError(f"problem must be an object, got {spec!r}")
    allowed = {"a1", "a2", "a3", "p", "alpha", "u0", "v0", "nonlinear"}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"problem has unknown keys {sorted(unknown)}")
    missing = {"a1", "a2", "a3", "p", "alpha", "u0", "v0"} - set(spec)
    if missing:
        raise ConfigError(f"problem is missing keys {sorted(missing)}")

    f_nl = None
    if "nonlinear" in spec:
        f_nl = _from_form(spec["nonlinear"], _NONLINEAR_FORMS, "nonlinear")
    return OscillatorProblem.build(
        **{key: _from_form(spec[key], _TIME_FORMS, key) for key in ("a1", "a2", "a3", "p")},
        alpha=_from_form(spec["alpha"], _ORDER_FORMS, "alpha"),
        u0=_require_number(spec["u0"], "u0"),
        v0=_require_number(spec["v0"], "v0"),
        T=T,
        h=h,
        f_nl=f_nl,
    )


# config parsing --------------------------------------------------------------

def _check_steps_fit(horizon: float, steps, h: Optional[float] = None) -> None:
    """Reject a step or horizon that Grid.make refuses, or a step longer than the horizon.

    Grid.make refuses a step or horizon that is not positive, and a grid
    that would fail only once the run allocates; a step longer than T
    would end its one-step grid past T. The horizon is checked first, under
    its own key T; steps are the convergence steps, and h, when given, is
    checked before them.
    """
    try:
        _check_positive(horizon, "horizon T")
    except ValueError as exc:
        raise ConfigError(f"T = {horizon!r}: {exc}") from exc
    named = [(f"convergence_steps[{i}]", s) for i, s in enumerate(steps)]
    if h is not None:
        named.insert(0, ("h", h))
    for what, step in named:
        try:
            Grid.make(horizon, step)
        except ValueError as exc:
            raise ConfigError(f"{what} = {step!r}: {exc}") from exc
        if step > horizon:
            raise ConfigError(f"{what} = {step!r} exceeds the horizon T = {horizon!r}")


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("run configuration must be a JSON object")
    allowed = {
        "scenario", "problem", "h", "T", "outputs", "convergence_steps", "out_path",
    }
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"configuration has unknown keys {sorted(unknown)}")

    has_scn = "scenario" in data
    has_prob = "problem" in data
    if has_scn == has_prob:
        raise ConfigError("configuration needs exactly one of 'scenario' or 'problem'")
    if has_scn and not isinstance(data["scenario"], str):
        raise ConfigError(f"scenario must be a string, got {data['scenario']!r}")

    if "h" not in data:
        raise ConfigError("configuration is missing the step size h")
    h = _require_number(data["h"], "h")

    # the registry lookup also rejects an unknown name, with or without T
    T = _from_registry(default_horizon, data["scenario"]) if has_scn else None
    if "T" in data:
        T = _require_number(data["T"], "T")
    elif T is None:
        raise ConfigError("inline problems need a top-level horizon T")

    outputs = data.get("outputs", ["trace"])
    if not isinstance(outputs, list) or not outputs:
        raise ConfigError("outputs must be a nonempty list")
    for o in outputs:
        if o not in _OUTPUT_KINDS:
            raise ConfigError(f"unknown output kind {o!r}; known kinds: {_OUTPUT_KINDS}")
    outputs = tuple(dict.fromkeys(outputs))  # dedupe, keep order

    steps: tuple[float, ...] = ()
    if "convergence" in outputs:
        if not has_scn:
            raise ConfigError(
                "convergence studies need a named scenario with a reference solution"
            )
        raw = data.get("convergence_steps")
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError(
                "convergence output needs convergence_steps, a list of >= 2 step sizes"
            )
        steps = tuple(_require_number(s, f"convergence_steps[{i}]") for i, s in enumerate(raw))
    elif "convergence_steps" in data:
        raise ConfigError("convergence_steps given but 'convergence' is not in outputs")
    _check_steps_fit(T, steps, h)

    out_path = data.get("out_path")
    if not isinstance(out_path, str):
        raise ConfigError(f"out_path must be a path string, got {out_path!r}")

    return RunConfig(
        h=h,
        T=T,
        outputs=outputs,
        out_path=out_path,
        scenario_name=data.get("scenario"),
        problem_spec=data.get("problem"),
        convergence_steps=steps,
    )


# execution -------------------------------------------------------------------

def solve_problem(problem: OscillatorProblem) -> SolutionTrace:
    """Dispatch to the right solver for the problem's structure."""
    if problem.alpha.kind is AlphaKind.TIME_ONLY and problem.f_nl is None:
        return explicit_solver.solve(problem)
    return implicit_solver.solve(problem)


def _scenario_error(scn: Scenario) -> float:
    """Worst node error against the scenario's reference solution.

    That is an oscillator's exact u, or a bare derivative benchmark's exact
    velocity and derivative; a scenario without it fails before solving.
    """
    needed = (scn.exact_u,) if scn.problem is not None else (scn.exact_udot, scn.exact_vofd)
    if None in needed:
        raise ConfigError(
            f"scenario {scn.name!r} has no reference solution; convergence study not possible"
        )
    if scn.problem is not None:
        trace = solve_problem(scn.problem)
        exact = np.array([scn.exact_u(float(t)) for t in trace.t])
        return float(np.max(np.abs(trace.u - exact)))
    grid = scn.grid
    samples = np.array([scn.exact_udot(float(t)) for t in grid.times()])
    approx = vo_derivative_series(samples, lambda t: scn.alpha.eval(t, math.nan, math.nan), grid)
    exact = np.array([scn.exact_vofd(n * grid.h) for n in range(1, grid.N + 1)])
    return float(np.max(np.abs(approx - exact)))


def convergence_study(
    name: str, steps, T: Optional[float] = None
) -> list[tuple[float, int, float, float]]:
    """Worst-node error per step size, with the error ratio between rows.

    Every step is checked against the horizon, T or the scenario's default,
    before any is run.
    """
    steps = tuple(float(s) for s in steps)
    if len(steps) < 2:
        raise ConfigError("a convergence study needs at least two step sizes")
    _check_steps_fit(_from_registry(default_horizon, name) if T is None else T, steps)
    rows = []
    prev = None
    for h in steps:
        scn = _from_registry(scenario, name, h, T)
        err = _scenario_error(scn)
        ratio = math.nan if prev is None else prev / err
        rows.append((h, scn.grid.N, err, ratio))
        prev = err
    return rows


def _from_registry(lookup, name: str, *args):
    """lookup(name, *args) on the scenario registry; an unknown name is a ConfigError."""
    try:
        return lookup(name, *args)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc


def _plan_paths(outputs: tuple[str, ...], out_path: str) -> dict[str, str]:
    if len(outputs) == 1:
        return {outputs[0]: out_path}
    suffix = {"trace": "", "stability": ".stability.json", "convergence": ".convergence.csv"}
    return {kind: out_path + suffix[kind] for kind in outputs}


# rows of a CSV formatted by one % operation: about 0.6 MB of text for a
# trace's six columns
_CSV_ROWS = 4096


def _write_csv(path: str, header: str, table) -> None:
    """A 2-d table as CSV under a header line: the bytes of np.savetxt with fmt="%.17g".

    savetxt formats row by row; here each chunk of _CSV_ROWS rows is one %
    over its values as Python floats, the same "%.17g" text for each.
    """
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for first in range(0, len(table), _CSV_ROWS):
            part = table[first : first + _CSV_ROWS]
            f.write(line * len(part) % tuple(part.ravel().tolist()))


def write_trace_csv(path: str, trace: SolutionTrace, rho=None) -> None:
    """Node-wise trace as CSV; rho, when given, holds per-step radii (node 0 nan)."""
    columns = [trace.t, trace.u, trace.udot, trace.uddot, trace.alpha_used]
    header = "t,u,udot,uddot,alpha"
    if rho is not None:
        columns.append(np.concatenate(([math.nan], rho)))
        header += ",rho"
    _write_csv(path, header, np.column_stack(columns))


def write_convergence_csv(path: str, rows) -> None:
    _write_csv(path, "h,N,max_abs_error,ratio", rows)


def write_stability_json(path: str, report: StabilityReport) -> None:
    payload = {
        "max_rho": report.max_rho,
        "satisfied": report.satisfied,
        "tol": report.tol,
        "trace_conditional": report.trace_conditional,
        "rho": [float(r) for r in report.rho],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def _execute(cfg: RunConfig) -> int:
    """Run a parsed request; every ConfigError is raised before the first solve."""
    if cfg.scenario_name is not None:
        problem = scenario(cfg.scenario_name, cfg.h, cfg.T).problem  # a name parse_config knows
    else:
        problem = _build_problem(cfg.problem_spec, cfg.h, cfg.T)

    exit_code = EXIT_OK
    trace: Optional[SolutionTrace] = None
    report: Optional[StabilityReport] = None

    needs_solve = "trace" in cfg.outputs or "stability" in cfg.outputs
    if needs_solve and problem is None:
        raise ConfigError(
            f"scenario {cfg.scenario_name!r} is a bare derivative benchmark; "
            "it supports only the convergence output"
        )
    # before the trace: the study checks its reference before its first
    # solve, so that every ConfigError comes before any solve
    rows = None
    if "convergence" in cfg.outputs:
        rows = convergence_study(cfg.scenario_name, cfg.convergence_steps, cfg.T)

    if needs_solve:
        trace = solve_problem(problem)
        if "stability" in cfg.outputs:
            if problem.alpha.kind is AlphaKind.TIME_ONLY:
                report = stability_report(problem)
            else:
                report = stability_report_along_trace(problem, trace)
                print(
                    "warning: order depends on the state, so the stability "
                    "check holds only along the solved trajectory",
                    file=sys.stderr,
                )
                exit_code = EXIT_CONDITIONAL_STABILITY

    plan = _plan_paths(cfg.outputs, cfg.out_path)
    for kind, path in plan.items():
        if kind == "trace":
            write_trace_csv(path, trace, rho=report.rho if report is not None else None)
        elif kind == "stability":
            write_stability_json(path, report)
        else:
            write_convergence_csv(path, rows)
    return exit_code


# argument parsing ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vofde",
        description="Time-stepping solvers for oscillators with a "
        "variable-order fractional damping term.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the registered benchmark scenarios")

    run = sub.add_parser("run", help="execute a JSON run configuration")
    run.add_argument("--config", required=True, help="path to the JSON file")

    scn = sub.add_parser("scenario", help="run one registered scenario")
    scn.add_argument("--name", required=True, help="scenario name (see 'vofde list')")
    scn.add_argument("--h", required=True, type=float, help="step size")
    scn.add_argument("--T", type=float, default=None, help="horizon override")
    scn.add_argument(
        "--stability",
        action="store_true",
        help="also emit the spectral-radius stability report",
    )
    scn.add_argument(
        "--convergence",
        default=None,
        metavar="H1,H2,...",
        help="run a convergence study over these step sizes instead of "
        "(or in addition to) the trace",
    )
    scn.add_argument("--out", required=True, help="output path (see docs for multi-output naming)")
    return parser


def _scenario_args_to_config(args) -> RunConfig:
    """The scenario flags as the run configuration they stand for."""
    if args.convergence is not None and args.stability:
        raise ConfigError("--stability cannot be combined with --convergence")
    data = {"scenario": args.name, "h": args.h, "out_path": args.out}
    if args.T is not None:
        data["T"] = args.T
    if args.convergence is None:
        data["outputs"] = ["trace", "stability"] if args.stability else ["trace"]
    else:
        try:
            steps = [float(p) for p in args.convergence.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --convergence list {args.convergence!r}") from exc
        data["outputs"] = ["convergence"]
        data["convergence_steps"] = steps
    return parse_config(data)


def _cmd_list() -> int:
    for name, desc in list_scenarios():
        print(f"{name:10s} {desc}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return _execute(parse_config(data))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        return _execute(_scenario_args_to_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StepFailureError, OrderDomainError, DegenerateProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OverflowError as exc:
        print(f"error: overflow in the problem data or the solution: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

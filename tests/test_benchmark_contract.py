"""The benchmark tracer's hold on the package.

perfbench/tracer.py times the solver layers by replacing module attributes
of vofde at run time and skips a name that no longer exists, so a renamed
or deleted function silently drops its metrics from the benchmark's result
line. These tests fail instead, without running the benchmark itself.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import vofde
import vofde.cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_labels(tracer_module) -> set[str]:
    """Span labels that the result line's metrics read."""
    labels = set()
    for name in tracer_module.RESULT_METRICS:
        if name != "trace.overhead":
            labels.update(tracer_module.METRICS[name][1])
    return labels


def resolvable_targets(tracer_module):
    out = []
    for module_name, attr, _label, _hook in tracer_module.TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            out.append((module, attr, getattr(module, attr)))
    return out


def test_every_result_metric_has_its_wrap_targets(tracer_module):
    originals = resolvable_targets(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        missing = result_labels(tracer_module) - tracer.installed
    finally:
        tracer.uninstall()
    assert not missing, f"no wrap target left for {sorted(missing)}"
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"


# grid of the small solves below: h = 1e-2 up to T = 0.5
H, T = 1e-2, 0.5


def explicit_job(tmp_path):
    # long_horizon: explicit solve, stability sweep and re-verification
    linear = vofde.scenario("ex2iii_d", H, T=T).problem
    trace = vofde.solve_explicit(linear)
    vofde.stability_report(linear)
    vofde.discrete_residuals(linear, trace)


def implicit_job(tmp_path):
    # state_feedback: implicit solves of a state-dependent order and of ex4
    for name in ("ex3iii", "ex4"):
        problem = vofde.scenario(name, H, T=T).problem
        trace = vofde.solve_implicit(problem)
        vofde.stability_report_along_trace(problem, trace)
        vofde.discrete_residuals(problem, trace)


def cli_job(tmp_path):
    # registry_sweep: CLI runs, then re-verification of the written trace
    for name, code in (("ex2iii_d", 0), ("ex3iii", 4)):
        out = tmp_path / f"{name}.csv"
        argv = ["scenario", "--name", name, "--h", repr(H), "--T", repr(T), "--stability",
                "--out", str(out)]
        assert vofde.cli.main(argv) == code
        t, u, udot, uddot, alpha = np.loadtxt(
            out, delimiter=",", skiprows=1, usecols=range(5), unpack=True)
        trace = vofde.SolutionTrace(t=t, u=u, udot=udot, uddot=uddot, alpha_used=alpha,
                                    udot_mean=0.5 * (udot[:-1] + udot[1:]))
        vofde.discrete_residuals(vofde.scenario(name, H, T=T).problem, trace)


def test_small_solves_call_every_result_layer(tracer_module, tmp_path):
    # the package must call the wrapped names through their modules, or the
    # wrappers never see a call and the metrics are dropped all the same;
    # each job mirrors one workload and runs under its own tracer, so a
    # layer that one workload stops reaching is not covered by another
    expected = set(tracer_module.RESULT_METRICS) - {"trace.overhead"}
    missing = {}
    for job in (explicit_job, implicit_job, cli_job):
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            job(tmp_path)
            metrics = tracer.metrics(1)
        finally:
            tracer.uninstall()
        if expected - set(metrics):
            missing[job.__name__] = sorted(expected - set(metrics))
    assert not missing, f"not measured: {missing}"

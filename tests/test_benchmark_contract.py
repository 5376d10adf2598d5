"""The benchmark tracer's hold on the package.

perfbench/tracer.py times the solver layers by replacing module attributes
of vofde at run time and skips a name that no longer exists, so a renamed
or deleted function silently drops its metrics from the benchmark's result
line. These tests fail instead, without running the benchmark itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import vofde

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


def test_small_solves_call_every_result_layer(tracer_module):
    # the package must call the wrapped names through their modules, or the
    # wrappers never see a call and the metrics are dropped all the same;
    # the calls below go through the package, as the benchmark's do
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        linear = vofde.scenario("ex2iii_d", 1e-2, T=0.5).problem
        trace = vofde.solve_explicit(linear)
        vofde.stability_report(linear)
        vofde.discrete_residuals(linear, trace)
        feedback = vofde.scenario("ex3iii", 1e-2, T=0.5).problem
        vofde.stability_report_along_trace(feedback, vofde.solve_implicit(feedback))
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    expected = set(tracer_module.RESULT_METRICS) - {"trace.overhead"}
    assert expected <= set(metrics), f"not measured: {sorted(expected - set(metrics))}"

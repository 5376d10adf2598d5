"""Tests of the benchmark itself, at tiny grid sizes.

Run with: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import vofde  # noqa: E402

TINY = 40
END_TO_END = {"setup_s": "s", "trace_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
COUNTS = (
    "vo_core.row.calls",
    "vo_core.row.entries",
    "implicit_solver.evals",
    "linsolve.solve3.calls",
    "linsolve.inv3.calls",
)
# prefixes of the per-layer metrics of layers a workload never calls
NOT_RUN = {
    "long_horizon": ("implicit_solver.", "cli.", "reference."),
    "state_feedback": ("explicit_solver.", "linsolve.solve3.", "cli."),
    "registry_sweep": (),
}


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    for name in workloads.NAMES:
        monkeypatch.setitem(workloads.SIZES, name, TINY)


def traced_metrics(workload, seed, out_dir):
    """Every per-layer metric of a traced run, also those the result line leaves out."""
    args = run._parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", "1"]
    )
    metrics, _, failed, _ = run.measure(args, out_dir)
    assert failed == 0
    return metrics


def run_main(capsys, workload, trace, seed=1):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]
    )
    assert code == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    out, result = run_main(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    lines = out.splitlines()
    for name, unit in {**END_TO_END, "fail_ratio": "1"}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[11:])
    assert provenance["seed"] == 1
    assert provenance["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def test_perturbed_trace_fails_the_residual_check(capsys, monkeypatch):
    solve = vofde.solve_explicit

    def perturbed(problem):
        trace = solve(problem)
        trace.u[TINY // 2] += 1e-3
        return trace

    monkeypatch.setattr(vofde, "solve_explicit", perturbed)
    out, result = run_main(capsys, "long_horizon", trace=0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    fail_ratio = next(l for l in out.splitlines() if l.split()[:1] == ["fail_ratio"])
    assert float(fail_ratio.split()[1]) > 0.0


def test_check_trace_flags_each_defect():
    job_problem = vofde.scenario("ex2iii_d", h=5.0 / TINY).problem
    trace = vofde.solve_explicit(job_problem)
    assert workloads.check_trace(trace, vofde.discrete_residuals(job_problem, trace)) == []
    trace.u[3] += 1e-3
    assert any("residual" in f for f in workloads.check_trace(
        trace, vofde.discrete_residuals(job_problem, trace)))
    trace.alpha_used[5] = 1.0
    trace.udot[7] = np.nan
    failures = workloads.check_trace(trace, np.zeros(trace.N + 1))
    assert "alpha_used[1:] leaves (0, 1)" in failures and "non-finite udot" in failures


def test_missing_wrap_target_leaves_the_traced_run_working(capsys, monkeypatch):
    # as if the 3x3 solver module were deleted: its names are gone everywhere
    targets = tuple(t for t in tracer.TARGETS if not t[2].startswith("linsolve."))
    targets += (
        ("vofde._deleted_module", "solve3", "linsolve.solve3", None),
        ("vofde.stability", "inv3_deleted", "linsolve.inv3", None),
    )
    monkeypatch.setattr(tracer, "TARGETS", targets)
    _, result = run_main(capsys, "long_horizon", trace=1)
    assert result["correct"]
    names = set(result["metrics"])
    assert not any(name.startswith("linsolve.") for name in names)
    assert {"vo_core.row.calls", "stability.sweep_s", "trace.overhead"} <= names


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_run_reports_the_layers_it_runs(capsys, tmp_path, workload):
    every = set(tracer.METRICS) | {"reference.scenario.s", "trace.overhead"}
    expected = {name for name in every if not name.startswith(NOT_RUN[workload])}
    metrics = traced_metrics(workload, 1, tmp_path)
    assert set(metrics) == expected
    assert all(value != 0 for name, (value, _) in metrics.items() if name != "trace.overhead")

    out, result = run_main(capsys, workload, trace=1)
    assert result["correct"]
    assert list(result["metrics"]) == list(tracer.RESULT_METRICS)
    summary = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert expected <= summary


def test_tracer_restores_the_originals():
    originals = [getattr(__import__(m, fromlist=["_"]), a) for m, a, _, _ in tracer.TARGETS]
    tr = tracer.Tracer()
    tr.install()
    tr.install()  # a second install must not wrap twice
    tr.uninstall()
    assert [getattr(__import__(m, fromlist=["_"]), a) for m, a, _, _ in tracer.TARGETS] == originals


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_counts_repeat_for_a_fixed_seed(tmp_path, workload):
    first = traced_metrics(workload, 7, tmp_path)
    second = traced_metrics(workload, 7, tmp_path)
    assert first.keys() == second.keys()
    for name in set(COUNTS) & first.keys():
        assert first[name][0] == second[name][0], name
    assert first["vo_core.row.calls"][0] > 0


def test_registry_sweep_seed_sets_the_job_order():
    orders = [
        [name for name, _ in workloads.build("registry_sweep", seed, Path("unused"))]
        for seed in (3, 4)
    ]
    assert orders[0] != orders[1]
    assert sorted(orders[0]) == sorted(orders[1]) and len(orders[0]) == 12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registry_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    units = {name: unit for name, (unit, _, _) in tracer.METRICS.items()}
    units["trace.overhead"] = "1"
    layers = [(name, units[name]) for name in tracer.RESULT_METRICS]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)

"""vofde benchmark: run one workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): long_horizon, state_feedback, registry_sweep.
Each run is a closed loop of one client: passes over the workload's jobs
run back to back, each starting when the previous one has ended, until S
seconds have passed (always at least one pass). Every job's output is
checked; a job that raises or fails a check counts as failed and the run
goes on.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
processes), trace_s and verify_s (medians over passes) and peak_rss_mb.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py, per traced pass, plus trace.overhead. The summary
lists every layer the workload calls; the result line holds the metrics of
the layers that every workload calls (tracer.RESULT_METRICS).

The output is a readable summary, one provenance line, and as its last line
one JSON object with the keys correct, attempted, failed and metrics. The
exit code is 0 for a completed run, also one with failed jobs, and 2 when
the arguments are bad or vofde cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS is pinned to one thread, in this process and its set-up probes only.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
WARMUP_STEPS = 40
END_TO_END_UNITS = {"setup_s": "s", "trace_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one workload of the vofde benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error(f"--seconds must be positive, got {args.seconds}")
    return args


def run_pass(jobs, log=None):
    """Run every job of one pass; returns (phases, jobs run, jobs failed).

    Failed checks are logged to ``log``, by default standard error.
    """
    from workloads import Phases

    phases = Phases()
    failed = 0
    for name, job in jobs:
        try:
            problems = job(phases)
        except Exception as exc:  # a job that raises is a failed job; the run goes on
            problems = [f"raised {exc!r}"]
        if problems:
            failed += 1
            print(f"job {name} failed: {'; '.join(problems)}", file=log or sys.stderr)
    return phases, len(jobs), failed


def _setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def _run_passes(jobs, deadline, tracer=None):
    """Passes until the deadline, at least one; with a tracer, each untraced
    pass is followed by a traced one. Returns (untraced, traced, attempted, failed)."""
    untraced, traced, attempted, failed = [], [], 0, 0
    while not untraced or time.perf_counter() < deadline:
        phases, ran, bad = run_pass(jobs)
        untraced.append(phases)
        attempted, failed = attempted + ran, failed + bad
        if tracer is not None:
            tracer.install()
            try:
                phases, ran, bad = run_pass(jobs)
            finally:
                tracer.uninstall()
            traced.append(phases)
            attempted, failed = attempted + ran, failed + bad
    return untraced, traced, attempted, failed


def measure(args, out_dir: Path):
    """One run: returns (metrics {name: (value, unit)}, attempted, failed, notes)."""
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace == 0:
        setups = _setup_seconds(args.workload, args.seed)
        jobs = workloads.build(args.workload, args.seed, out_dir)
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            jobs = workloads.build(args.workload, args.seed, out_dir)
        finally:
            tracer.uninstall()
        scenario = tracer.stats.get("reference.scenario")
        tracer.reset()
    # first calls (lazy imports, first file writes) stay out of the timed passes
    run_pass(workloads.build(args.workload, args.seed, out_dir, WARMUP_STEPS), log=io.StringIO())

    deadline = time.perf_counter() + args.seconds
    untraced, traced, attempted, failed = _run_passes(jobs, deadline, tracer)
    trace_s = statistics.median(p.trace_s for p in untraced)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "trace_s": trace_s,
            "verify_s": statistics.median(p.verify_s for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        return metrics, attempted, failed, f"{len(untraced)} passes, {SETUP_PROBES} set-up probes"

    metrics = tracer.metrics(len(traced))
    if scenario is not None and scenario[0] > 0:
        metrics["reference.scenario.s"] = (scenario[1], "s")
    traced_s = statistics.median(p.trace_s for p in traced)
    overhead = traced_s / trace_s - 1.0 if trace_s > 0.0 else 0.0
    metrics["trace.overhead"] = (overhead, "1")
    notes = f"{len(untraced)} untraced and {len(traced)} traced passes"
    return metrics, attempted, failed, notes


def report(args, metrics, attempted, failed, notes) -> None:
    """Print the summary, the provenance line and, last, the result line."""
    import tracer as tracing

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {notes}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    if args.trace == 1:
        metrics = {name: metrics[name] for name in tracing.RESULT_METRICS if name in metrics}
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g} 1 ({failed} of {attempted} jobs)")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import vofde from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        metrics, attempted, failed, notes = measure(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    report(args, metrics, attempted, failed, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer tracing for the vofde benchmark, from outside the package.

The tracer replaces module attributes of vofde with timing wrappers while a
traced pass runs and puts the originals back afterwards; nothing under
``src/`` is edited. Each name is wrapped in every module that imports it,
because a module-level ``from x import f`` binds its own reference. A name
that no longer exists is skipped, and every metric built on it is left out
of the result instead of failing the run. So is every metric of a layer
that the traced passes never called.

Spans are aggregated as they close: per span label the call count, the
inclusive time, the self time (inclusive minus the time of child spans)
and the time of spans not nested in another span of the same layer. A
traced long_horizon pass opens about half a million spans, so they are not
stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def _row_hook(madds: bool, site_rows: str | None = None):
    """Counts of a weight-row build: entries, and history multiply-adds when
    the caller's history sum runs over the whole row."""

    def hook(counters, args, kwargs, result):
        n = args[0] if args else kwargs["n"]
        counters["vo_core.row.entries"] += n
        if madds:
            counters["vo_core.history.madds"] += n
        if site_rows:
            counters[site_rows] += 1

    return hook


def _load_term_hook(counters, args, kwargs, result):
    # the known part of node n's history sum covers n - 2 step means plus
    # one half weight; the last two weights go into the step matrices
    n = args[1] if len(args) > 1 else kwargs["n"]
    counters["vo_core.history.madds"] += max(n - 1, 0)


def _steps_hook(key: str, evals: bool = False):
    def hook(counters, args, kwargs, result):
        counters[key] += result.N
        if evals:
            counters["implicit_solver.evals"] += int(result.iterations.sum())

    return hook


def _nodes_hook(counters, args, kwargs, result):
    counters["model.residuals.nodes"] += len(result)


def _bytes_hook(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["cli.write.bytes"] += os.path.getsize(path)


# (module, attribute, span label, counter hook)
TARGETS = (
    ("vofde", "solve_explicit", "explicit_solver.solve", _steps_hook("explicit_solver.steps")),
    ("vofde.explicit_solver", "solve", "explicit_solver.solve", _steps_hook("explicit_solver.steps")),
    ("vofde.explicit_solver", "coefficient_row", "vo_core.row", _row_hook(madds=False)),
    ("vofde.explicit_solver", "load_term", "explicit_solver.load_term", _load_term_hook),
    ("vofde.explicit_solver", "build_step", "explicit_solver.step", None),
    ("vofde.explicit_solver", "solve_step", "explicit_solver.step", None),
    ("vofde.explicit_solver", "solve3", "linsolve.solve3", None),
    ("vofde", "solve_implicit", "implicit_solver.solve",
     _steps_hook("implicit_solver.steps", evals=True)),
    ("vofde.implicit_solver", "solve", "implicit_solver.solve",
     _steps_hook("implicit_solver.steps", evals=True)),
    ("vofde.implicit_solver", "solve_step_nonlinear", "implicit_solver.root", None),
    ("vofde.implicit_solver", "coefficient_row", "vo_core.row",
     _row_hook(madds=True, site_rows="implicit_solver.rows")),
    ("vofde", "stability_report", "stability.report", None),
    ("vofde", "stability_report_along_trace", "stability.report", None),
    ("vofde.cli", "stability_report", "stability.report", None),
    ("vofde.cli", "stability_report_along_trace", "stability.report", None),
    ("vofde.stability", "amplification_from_matrices", "stability.amplification", None),
    ("vofde.stability", "spectral_radius", "stability.eigen", None),
    ("vofde.stability", "coefficient", "stability.coefficient", None),
    ("vofde.stability", "inv3", "linsolve.inv3", None),
    ("vofde", "discrete_residuals", "model.residuals", _nodes_hook),
    ("vofde.model", "coefficient_row", "vo_core.row", _row_hook(madds=True)),
    ("vofde.vo_core", "gamma", "special_functions.gamma", None),
    ("vofde.reference", "gamma", "special_functions.gamma", None),
    ("vofde", "scenario", "reference.scenario", None),
    ("vofde.cli", "scenario", "reference.scenario", None),
    ("vofde.cli", "main", "cli.main", None),
    ("vofde.cli", "write_trace_csv", "cli.write", _bytes_hook),
    ("vofde.cli", "write_stability_json", "cli.write", _bytes_hook),
)


def _per_pass(value):
    return lambda tr, passes: value(tr) / passes


def _ratio(num, den, scale=1.0):
    def value(tr, passes):
        d = den(tr)
        return scale * num(tr) / d if d else None

    return value


def _calls(label):
    return lambda tr: tr.stats[label][0]


def _incl(label):
    return lambda tr: tr.stats[label][1]


def _self(label):
    return lambda tr: tr.stats[label][2]


def _count(key):
    return lambda tr: tr.counters[key]


def _layer(layer):
    return lambda tr: tr.layer_time(layer)


# Per-layer metric: (unit, span labels it needs, value from a Tracer and
# the number of traced passes). Values are per pass.
METRICS = {
    "vo_core.row.calls": ("count", ("vo_core.row",), _per_pass(_calls("vo_core.row"))),
    "vo_core.row.entries": ("count", ("vo_core.row",), _per_pass(_count("vo_core.row.entries"))),
    "vo_core.row.self_s": ("s", ("vo_core.row",), _per_pass(_self("vo_core.row"))),
    "vo_core.row.ns_per_entry": (
        "ns", ("vo_core.row",), _ratio(_self("vo_core.row"), _count("vo_core.row.entries"), 1e9)),
    "vo_core.history.madds": (
        "count", ("vo_core.row", "explicit_solver.load_term"),
        _per_pass(_count("vo_core.history.madds"))),
    "explicit_solver.load_term.self_s": (
        "s", ("explicit_solver.load_term",), _per_pass(_self("explicit_solver.load_term"))),
    "explicit_solver.step.self_s": (
        "s", ("explicit_solver.step",), _per_pass(_self("explicit_solver.step"))),
    "explicit_solver.us_per_step": (
        "us", ("explicit_solver.solve",),
        _ratio(_incl("explicit_solver.solve"), _count("explicit_solver.steps"), 1e6)),
    "linsolve.solve3.calls": ("count", ("linsolve.solve3",), _per_pass(_calls("linsolve.solve3"))),
    "linsolve.solve3.self_s": ("s", ("linsolve.solve3",), _per_pass(_self("linsolve.solve3"))),
    "linsolve.inv3.calls": ("count", ("linsolve.inv3",), _per_pass(_calls("linsolve.inv3"))),
    "linsolve.inv3.self_s": ("s", ("linsolve.inv3",), _per_pass(_self("linsolve.inv3"))),
    "implicit_solver.root.self_s": (
        "s", ("implicit_solver.root",), _per_pass(_self("implicit_solver.root"))),
    "implicit_solver.evals": (
        "count", ("implicit_solver.solve",), _per_pass(_count("implicit_solver.evals"))),
    "implicit_solver.evals_per_step": (
        "count", ("implicit_solver.solve",),
        _ratio(_count("implicit_solver.evals"), _count("implicit_solver.steps"))),
    "implicit_solver.rows_per_eval": (
        "count", ("implicit_solver.solve", "vo_core.row"),
        _ratio(_count("implicit_solver.rows"), _count("implicit_solver.evals"))),
    "implicit_solver.us_per_step": (
        "us", ("implicit_solver.solve",),
        _ratio(_incl("implicit_solver.solve"), _count("implicit_solver.steps"), 1e6)),
    "stability.sweep_s": ("s", ("stability.report",), _per_pass(_layer("stability"))),
    "stability.us_per_step": (
        "us", ("stability.report", "stability.eigen"),
        _ratio(_layer("stability"), _calls("stability.eigen"), 1e6)),
    "stability.amplification.self_s": (
        "s", ("stability.amplification",), _per_pass(_self("stability.amplification"))),
    "stability.eigen.self_s": ("s", ("stability.eigen",), _per_pass(_self("stability.eigen"))),
    "stability.coefficient.calls": (
        "count", ("stability.coefficient",), _per_pass(_calls("stability.coefficient"))),
    "model.residuals.self_s": ("s", ("model.residuals",), _per_pass(_self("model.residuals"))),
    "model.residuals.us_per_node": (
        "us", ("model.residuals",),
        _ratio(_incl("model.residuals"), _count("model.residuals.nodes"), 1e6)),
    "special_functions.gamma.calls": (
        "count", ("special_functions.gamma",), _per_pass(_calls("special_functions.gamma"))),
    "special_functions.gamma.self_s": (
        "s", ("special_functions.gamma",), _per_pass(_self("special_functions.gamma"))),
    "cli.main.self_s": ("s", ("cli.main",), _per_pass(_self("cli.main"))),
    "cli.write.s": ("s", ("cli.write",), _per_pass(_incl("cli.write"))),
    "cli.write.bytes": ("B", ("cli.write",), _per_pass(_count("cli.write.bytes"))),
}

# The metrics of the layers that every workload runs, in the order of
# BENCHMARK.json. A traced run's result line holds these only: it must carry
# the same metrics on every workload, and a layer that a workload never calls
# has no figure to give there. The metrics of the layers that only some
# workloads call (explicit_solver, linsolve.solve3, implicit_solver,
# reference, cli) are printed in the run's summary.
RESULT_METRICS = (
    "vo_core.row.calls",
    "vo_core.row.entries",
    "vo_core.row.self_s",
    "vo_core.row.ns_per_entry",
    "vo_core.history.madds",
    "linsolve.inv3.calls",
    "linsolve.inv3.self_s",
    "stability.sweep_s",
    "stability.us_per_step",
    "stability.amplification.self_s",
    "stability.eigen.self_s",
    "stability.coefficient.calls",
    "model.residuals.self_s",
    "model.residuals.us_per_node",
    "special_functions.gamma.calls",
    "special_functions.gamma.self_s",
    "trace.overhead",
)


class Tracer:
    """Wraps the TARGETS while installed and aggregates their spans."""

    def __init__(self):
        self.targets = TARGETS
        self.installed: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        # child-span seconds of each open span, and open spans per layer
        self._children: list[float] = []
        self._depth: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Drop the aggregated spans and counts."""
        # per label: [calls, inclusive s, self s, s outside other spans of its layer]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.counters = Counter()
        self._children.clear()
        self._depth.clear()

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, label, hook in self.targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, hook))
            self.installed.add(label)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, label, hook):
        layer = label.split(".", 1)[0]
        children = self._children
        depth = self._depth
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self.stats[label]
            outermost = depth[layer] == 0
            depth[layer] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = children.pop()
                depth[layer] -= 1
                if children:
                    children[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child
                if outermost:
                    stats[3] += elapsed
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def layer_time(self, layer: str) -> float:
        """Seconds spent inside the layer, nested spans counted once."""
        prefix = layer + "."
        return sum(s[3] for label, s in self.stats.items() if label.startswith(prefix))

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics whose wrap targets all exist and whose
        layer the traced passes called."""
        out = {}
        for name, (unit, labels, value) in METRICS.items():
            if set(labels) <= self.installed and any(self.called(label) for label in labels):
                v = value(self, passes)
                if v is not None:
                    out[name] = (float(v), unit)
        return out

    def called(self, label: str) -> bool:
        return label in self.stats and self.stats[label][0] > 0

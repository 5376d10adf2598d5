"""Acceptance gate: twelve numbered criteria covering the whole toolkit.

Every criterion prints a single verdict line

    [acceptance] criterion N PASS|FAIL: <measurement>

through the ``criterion`` fixture; conftest replays the lines after the
run summary. All references here are independent of the code under test:
closed forms checked elsewhere against direct quadrature, a high-order ODE
integrator for the limit solutions, and scipy quadrature for the weights.
"""

import math
from math import gamma

import numpy as np
import pytest
from scipy import integrate

from conftest import record_acceptance
from oracles import caputo_quadrature_oracle, check_scenario_consistency, ode_limit_oracle
from vofde import (
    coefficient,
    coefficient_row,
    discrete_residuals,
    vo_derivative_series,
)
from vofde import explicit_solver, implicit_solver
from vofde.reference import (
    example1_exact_vofd,
    scenario,
)
from vofde.stability import stability_report
from vofde.vo_core import Grid

H = 1e-3

TIME_ONLY_NAMES = (
    "ex2i", "ex2ii",
    "ex2iii_a", "ex2iii_b", "ex2iii_c", "ex2iii_d", "ex2iii_e",
    "ex5",
)


@pytest.fixture
def criterion():
    def check(num: int, ok: bool, detail: str) -> None:
        line = f"[acceptance] criterion {num} {'PASS' if ok else 'FAIL'}: {detail}"
        print(line)
        record_acceptance(line)
        assert ok, line
    return check


@pytest.fixture(scope="module")
def explicit_traces():
    out = {}
    for name in TIME_ONLY_NAMES:
        out[name] = explicit_solver.solve(scenario(name, H).problem)
    return out


@pytest.fixture(scope="module")
def implicit_traces():
    out = {}
    for name in TIME_ONLY_NAMES:
        out[name] = implicit_solver.solve(scenario(name, H).problem)
    return out


@pytest.fixture(scope="module")
def feedback_traces():
    return {
        name: implicit_solver.solve(scenario(name, H).problem)
        for name in ("ex3i", "ex3ii")
    }


@pytest.fixture(scope="module")
def duffing_traces():
    return {
        h: implicit_solver.solve(scenario("ex4", h).problem)
        for h in (H, 2.0 * H)
    }


def derivative_benchmark(variant: str):
    """Worst node error of the discrete operator against the exact formula,
    plus the largest formula-vs-quadrature disagreement (the independent
    adjudication of the formula itself)."""
    scn = scenario(f"ex1{variant}", H)
    alpha_fn = lambda t: scn.alpha.value_at(t, math.nan, math.nan)
    ts = scn.grid.times()
    series = vo_derivative_series(2.0 * ts, alpha_fn, scn.grid)  # nodes 1..N
    exact = np.array([example1_exact_vofd(variant, t) for t in ts[1:]])
    worst = float(np.max(np.abs(series - exact)))

    gap = 0.0
    for t in (0.1, 0.25, 0.5, 0.75, 1.0):
        direct = caputo_quadrature_oracle(lambda x: 2.0 * x, alpha_fn(t), t, tol=1e-11)
        gap = max(gap, abs(example1_exact_vofd(variant, t) - direct))
    return worst, gap


def limit_reference(problem, variant: str, ts):
    """Second-order ODE limit of the oscillator, integrated independently."""
    a1 = problem.a1(0.0)
    a2 = problem.a2(0.0)
    a3 = problem.a3(0.0)
    u0 = problem.u0
    if variant == "i":
        rhs = lambda t, y: [y[1], (problem.p(t) - a2 * y[1] - a3 * y[0]) / a1]
    else:
        rhs = lambda t, y: [y[1], (problem.p(t) - a2 * (y[0] - u0) - a3 * y[0]) / a1]
    return ode_limit_oracle(rhs, [problem.u0, problem.v0], ts, tol=1e-12)


def relative_peak_error(trace, ref):
    return float(np.max(np.abs(trace.u - ref)) / np.max(np.abs(ref)))


def test_criterion_01_quadratic_derivative_rising_order(criterion):
    worst, gap = derivative_benchmark("i")
    published = 9.21514e-4
    ok = 0.5 * published <= worst <= 1.5 * published and gap <= 1e-8
    criterion(1, ok, f"max error {worst:.6e} vs {published:.5e} published, "
                     f"formula vs quadrature {gap:.2e}")


def test_criterion_02_quadratic_derivative_saturating_order(criterion):
    worst, gap = derivative_benchmark("ii")
    published = 4.62050e-5
    ok = 0.5 * published <= worst <= 1.5 * published and gap <= 1e-8
    criterion(2, ok, f"max error {worst:.6e} vs {published:.5e} published, "
                     f"formula vs quadrature {gap:.2e}")


def test_criterion_03_limit_laws(criterion):
    grid = Grid.make(1.0, H)
    ts = grid.times()
    udot = np.cos(ts)

    low = vo_derivative_series(udot, lambda t: 1e-12, grid)  # nodes 1..N
    trapezoid = np.cumsum(0.5 * grid.h * (udot[1:] + udot[:-1]))
    gap_low = float(np.max(np.abs(low - trapezoid) / (1.0 + np.abs(trapezoid))))

    high = vo_derivative_series(udot, lambda t: 1.0 - 1e-12, grid)
    means = 0.5 * (udot[1:] + udot[:-1])
    gap_high = float(np.max(np.abs(high - means)))

    ok = gap_low <= 1e-9 and gap_high <= 1e-6
    criterion(3, ok, f"order->0 vs running integral {gap_low:.2e}, "
                     f"order->1 vs mean velocity {gap_high:.2e}")


def test_criterion_04_damping_and_stiffness_limits_explicit(criterion, explicit_traces):
    details = []
    ok = True
    for name, variant in (("ex2i", "i"), ("ex2ii", "ii")):
        trace = explicit_traces[name]
        ref = limit_reference(scenario(name, H).problem, variant, trace.t)
        rel = relative_peak_error(trace, ref)
        ok = ok and rel <= 0.02
        details.append(f"{name} {100 * rel:.3f}% of peak")
    criterion(4, ok, ", ".join(details) + " (limit 2%)")


def test_criterion_05_variable_order_amplifies_displacement(criterion, explicit_traces):
    varying = float(np.max(np.abs(explicit_traces["ex2iii_d"].u)))
    constant = float(np.max(np.abs(explicit_traces["ex2iii_c"].u)))
    ok = varying > constant
    criterion(5, ok, f"peak |u| {varying:.6f} (order 0.8(1-exp(-t))) vs "
                     f"{constant:.6f} (constant 0.8)")


def test_criterion_06_spectral_radius_bound(criterion):
    worst = 0.0
    ok = True
    names = [n for n in TIME_ONLY_NAMES if n.startswith("ex2")]
    for name in names:
        for h in (1e-2, 1e-3):
            report = stability_report(scenario(name, h).problem)
            worst = max(worst, report.max_rho)
            ok = ok and report.satisfied
    criterion(6, ok, f"max spectral radius {worst:.15f} over "
                     f"{len(names)} scenarios x two step sizes (bound 1 + 1e-12)")


def test_criterion_07_damping_and_stiffness_limits_implicit(criterion, feedback_traces):
    details = []
    ok = True
    for name, variant in (("ex3i", "i"), ("ex3ii", "ii")):
        trace = feedback_traces[name]
        ref = limit_reference(scenario(name, H).problem, variant, trace.t)
        rel = relative_peak_error(trace, ref)
        ok = ok and rel <= 0.02
        details.append(f"{name} {100 * rel:.3f}% of peak")
    criterion(7, ok, ", ".join(details) + " (limit 2%)")


def test_criterion_08_cross_solver_agreement(criterion, explicit_traces, implicit_traces):
    worst = 0.0
    worst_name = ""
    for name in TIME_ONLY_NAMES:
        gap = float(np.max(np.abs(explicit_traces[name].u - implicit_traces[name].u)))
        if gap > worst:
            worst, worst_name = gap, name
    ok = worst <= 1e-8
    criterion(8, ok, f"max |u| disagreement {worst:.2e} ({worst_name}) "
                     f"over {len(TIME_ONLY_NAMES)} time-only scenarios (limit 1e-8)")


def test_criterion_09_cubic_oscillator_manufactured_solution(criterion, duffing_traces):
    errs = {}
    for h, trace in duffing_traces.items():
        errs[h] = float(np.max(np.abs(trace.u - trace.t ** 2)))
    ratio = errs[2.0 * H] / errs[H]
    ok = errs[H] <= 5e-3 and ratio >= 1.5
    criterion(9, ok, f"max |u - t^2| = {errs[H]:.3e} at h=1e-3 (limit 5e-3), "
                     f"coarse/fine error ratio {ratio:.2f} (needs >= 1.5)")


def test_criterion_10_varying_coefficients_manufactured_solution(criterion):
    scn = scenario("ex5", H)
    trace = implicit_solver.solve(scn.problem)
    rel = float(np.max(np.abs(trace.u - np.exp(trace.t)) / np.exp(trace.t)))
    residual = check_scenario_consistency(scenario("ex5", 1e-2), n_samples=10)
    ok = rel <= 0.01 and residual <= 1e-8
    criterion(10, ok, f"max relative error {rel:.2e} (limit 1e-2), "
                      f"manufactured-forcing residual {residual:.2e} (limit 1e-8)")


def test_criterion_11_weight_identities(criterion):
    rng = np.random.default_rng(20250819)
    worst_quad = 0.0
    worst_sum = 0.0
    positive = True
    for _ in range(200):
        n = int(rng.integers(1, 41))
        h = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.3))))
        alpha = float(rng.uniform(0.01, 0.99))
        row = coefficient_row(n, h, alpha)
        positive = positive and bool(np.all(row > 0.0))

        total = float(np.sum(row))
        expected = (n * h) ** (1.0 - alpha) / gamma(2.0 - alpha)
        worst_sum = max(worst_sum, abs(total - expected) / expected)

        r = int(rng.integers(1, n + 1))
        t_n = n * h
        if r == n:
            integral, _ = integrate.quad(
                lambda x: 1.0, t_n - h, t_n, weight="alg", wvar=(0.0, -alpha)
            )
        else:
            integral, _ = integrate.quad(
                lambda x: (t_n - x) ** (-alpha), (r - 1) * h, r * h,
                epsabs=1e-14, epsrel=1e-12,
            )
        oracle = integral / gamma(1.0 - alpha)
        worst_quad = max(worst_quad, abs(row[r - 1] - oracle) / abs(oracle))
    ok = positive and worst_sum <= 1e-10 and worst_quad <= 1e-9
    criterion(11, ok, f"200 random rows: all positive {positive}, "
                      f"telescoped sum off by {worst_sum:.2e} (limit 1e-10), "
                      f"quadrature gap {worst_quad:.2e} (limit 1e-9)")


def test_criterion_12_residual_reverification(criterion, explicit_traces,
                                              feedback_traces, duffing_traces):
    cases = {
        "ex2i/explicit": ("ex2i", explicit_traces["ex2i"]),
        "ex2iii_d/explicit": ("ex2iii_d", explicit_traces["ex2iii_d"]),
        "ex5/explicit": ("ex5", explicit_traces["ex5"]),
        "ex3i/implicit": ("ex3i", feedback_traces["ex3i"]),
        "ex4/implicit": ("ex4", duffing_traces[H]),
    }
    worst = 0.0
    worst_case = ""
    for label, (name, trace) in cases.items():
        res = discrete_residuals(scenario(name, H).problem, trace)
        gap = float(np.max(np.abs(res)))
        if gap > worst:
            worst, worst_case = gap, label
    ok = worst <= 1e-9
    criterion(12, ok, f"max scaled residual {worst:.2e} ({worst_case}) "
                      f"over {len(cases)} traces (limit 1e-9)")

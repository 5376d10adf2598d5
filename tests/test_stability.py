"""Closed-form 3x3 eigenvalues and the per-step stability sweep.

numpy's QR-based eigensolver is the independent reference for the cubic
branches; the amplification identity L A = R is checked without any
eigenvalue machinery at all.
"""

import math

import numpy as np
import pytest

from oracles import amplification_matrix, step_matrices
from vofde import (
    AlphaSpec,
    OscillatorProblem,
    StabilityReport,
    coefficient_row,
    solve_explicit,
    solve_implicit,
    spectral_radius,
    stability_report,
    stability_report_along_trace,
)
from vofde.errors import DegenerateProblemError, StepFailureError
from vofde.reference import scenario
from vofde.stability import _norm_inf, eigenvalues3


def rising_order(t):
    return 0.8 * (1.0 - math.exp(-t))


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-13)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.25, 0.1])) == pytest.approx(0.5, abs=1e-13)

    def test_complex_pair(self):
        # rotation block plus a contraction: radius is 1 from the pair
        a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.3]])
        assert spectral_radius(a) == pytest.approx(1.0, abs=1e-13)

    def test_against_numpy_eigvals(self):
        rng = np.random.default_rng(20240229)
        for _ in range(200):
            a = rng.uniform(-1.0, 1.0, size=(3, 3))
            ref = float(np.max(np.abs(np.linalg.eigvals(a))))
            assert spectral_radius(a) == pytest.approx(ref, abs=1e-8)

    def test_scaling_law(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        r = spectral_radius(a)
        assert spectral_radius(2.5 * a) == pytest.approx(2.5 * r, rel=1e-12)

    def test_roots_reproduce_trace_and_det(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            lams = eigenvalues3(a)
            assert sum(lams).real == pytest.approx(np.trace(a), abs=1e-9 * max(1, abs(np.trace(a))))
            prod = lams[0] * lams[1] * lams[2]
            det = float(np.linalg.det(a))
            assert prod.real == pytest.approx(det, abs=1e-8 * max(1.0, abs(det)))
            assert abs(prod.imag) < 1e-8

    def test_bounded_by_row_sum_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            assert spectral_radius(a) <= np.max(np.sum(np.abs(a), axis=1)) + 1e-12

    def test_norm_equals_the_reduction_form(self):
        # the row sums written out against np.sum and np.max over the size-3
        # axes, bit for bit, on stacks holding nan, inf and overflowing sums
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 2048, 3, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (4, 2048, 3, 3))
        for value in (math.nan, math.inf, -math.inf, -0.0, 1e308):
            a.flat[rng.integers(0, a.size, 300)] = value
        for stack in (a, a[0], a[0, 0], np.zeros((0, 3, 3))):
            with np.errstate(over="ignore"):  # sums of two 1e308 overflow, in both forms
                expected = np.max(np.sum(np.abs(stack), axis=-1), axis=-1)
                got = _norm_inf(stack)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.isnan(_norm_inf(a)).any() and np.isinf(_norm_inf(a)).any()

    def test_stack_matches_numpy_on_every_branch(self):
        rng = np.random.default_rng(20261018)
        rot = lambda th: np.array(
            [[math.cos(th), -math.sin(th), 0.0], [math.sin(th), math.cos(th), 0.0], [0, 0, 1]]
        )
        sym = rng.normal(size=(100, 3, 3))
        stacks = {
            # symmetric: three real roots, the trig branch
            "trig": sym + np.swapaxes(sym, -1, -2),
            # rotation block times a scale plus a real third root: Cardano
            "cardano": np.array(
                [s_ * rot(th) @ np.diag([1.0, 1.0, d]) for s_, th, d in
                 zip(rng.uniform(0.1, 2, 100), rng.uniform(0.1, 3, 100), rng.uniform(-2, 2, 100))]
            ),
            # dyadic multiples of the identity: p = q = 0 exactly, the triple root
            "triple": rng.integers(-8, 9, size=(100, 1, 1)) / 4.0 * np.eye(3),
            "random": rng.normal(size=(100, 3, 3)),
        }
        for branch, stack in stacks.items():
            ref = np.max(np.abs(np.linalg.eigvals(stack)), axis=-1)
            got = spectral_radius(stack)
            assert got.shape == (100,)
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-12), branch
            single = np.array([spectral_radius(a) for a in stack])
            assert np.allclose(got, single, rtol=1e-15, atol=0.0), branch
        # each stack really takes its branch
        assert np.all(eigenvalues3(stacks["trig"]).imag == 0.0)
        assert np.all(np.abs(eigenvalues3(stacks["cardano"]).imag[:, 1]) > 0.0)
        triple = eigenvalues3(stacks["triple"])
        assert np.array_equal(triple, np.repeat(triple[:, :1], 3, axis=1))

    @pytest.mark.parametrize("c", [0.596, 0.7, -0.3, 1.0 / 3.0])
    def test_non_dyadic_triple_root_keeps_full_precision(self, c):
        # rounding of the trace leaves the depressed cubic's p and q near 0
        # rather than at it, and their cube root must not cost digits
        lam = eigenvalues3(c * np.eye(3))
        assert np.max(np.abs(lam - c)) <= 1e-15 * abs(c)
        assert spectral_radius(c * np.eye(3)) == pytest.approx(abs(c), rel=2e-16, abs=0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            spectral_radius(np.eye(2))
        bad = np.eye(3)
        bad[1, 1] = math.nan
        with pytest.raises(ValueError):
            spectral_radius(bad)


def damped(alpha, h=0.01, T=5.0, a2=1.0):
    return OscillatorProblem.build(
        a1=1.0, a2=a2, a3=25.0, p=0.0, alpha=alpha, u0=1.0, v0=10.0, T=T, h=h
    )


class TestAmplificationMatrix:
    def test_satisfies_defining_identity(self):
        prob = damped(AlphaSpec.constant(0.8))
        n = 12
        row = coefficient_row(n, prob.grid.h, 0.8)
        a = amplification_matrix(n, prob, row)
        left, right = step_matrices(prob, n, row)
        assert np.max(np.abs(left @ a - right)) < 1e-12

    def test_free_particle_eigenvalues(self):
        # a1 u'' = 0: the update is a pure shift, eigenvalues {0, 1, 1}
        prob = OscillatorProblem.build(
            a1=1.0, a2=0.0, a3=0.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=1.0, T=1.0, h=0.1,
        )
        row = coefficient_row(1, 0.1, 0.5)
        lams = sorted(abs(l) for l in eigenvalues3(amplification_matrix(1, prob, row)))
        assert lams[0] == pytest.approx(0.0, abs=1e-12)
        assert lams[1] == pytest.approx(1.0, abs=1e-10)
        assert lams[2] == pytest.approx(1.0, abs=1e-10)

    def test_undamped_oscillator_radius_is_one(self):
        # a2 = 0 removes the history term; the trapezoidal update of an
        # undamped oscillator is exactly neutrally stable
        for h in (0.1, 0.01, 0.001):
            prob = damped(AlphaSpec.constant(0.5), h=h, a2=0.0)
            row = coefficient_row(1, h, 0.5)
            a = amplification_matrix(1, prob, row)
            assert spectral_radius(a) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_problem_raises(self):
        prob = OscillatorProblem.build(
            a1=0.0, a2=0.0, a3=0.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=0.0, v0=0.0, T=1.0, h=0.1,
        )
        row = coefficient_row(1, 0.1, 0.5)
        with pytest.raises(StepFailureError):
            amplification_matrix(1, prob, row)


class TestStabilityReport:
    @pytest.mark.parametrize(
        "name",
        ["ex2i", "ex2ii", "ex2iii_a", "ex2iii_b", "ex2iii_c", "ex2iii_d", "ex2iii_e"],
    )
    def test_linear_benchmarks_are_stable(self, name):
        scn = scenario(name, 1e-2)
        report = stability_report(scn.problem)
        assert report.satisfied
        assert report.max_rho <= 1.0 + 1e-12
        assert report.rho.shape == (scn.grid.N,)
        assert not report.trace_conditional

    def test_step_size_sweep(self):
        for h in (1e-2, 1e-3, 1e-4):
            scn = scenario("ex2iii_d", h)
            report = stability_report(scn.problem)
            assert report.satisfied, f"unstable at h={h}"

    def test_matches_per_step_amplification(self):
        scn = scenario("ex2iii_d", 1e-2, T=0.5)
        prob = scn.problem
        report = stability_report(prob)
        for n in (1, 17, 50):
            a = float(prob.alpha.eval(n * prob.grid.h, math.nan, math.nan))
            row = coefficient_row(n, prob.grid.h, a)
            rho_n = spectral_radius(amplification_matrix(n, prob, row))
            assert report.rho[n - 1] == pytest.approx(rho_n, abs=1e-10)

    def test_trace_conditional_report(self):
        scn = scenario("ex3iii", 1e-2)
        trace = solve_implicit(scn.problem)
        report = stability_report_along_trace(scn.problem, trace)
        assert report.trace_conditional
        assert report.rho.shape == (scn.grid.N,)
        assert np.all(np.isfinite(report.rho))
        assert report.satisfied

    def test_trace_grid_mismatch(self):
        scn = scenario("ex3iii", 1e-2)
        trace = solve_implicit(scn.problem)
        other = scenario("ex3iii", 2e-2)
        with pytest.raises(IndexError):
            stability_report_along_trace(other.problem, trace)

    @pytest.mark.parametrize(
        "N, order",
        [
            (2047, rising_order),
            (2048, rising_order),
            (2049, rising_order),
            (4100, rising_order),
            # an order next to 1, where c_1^2 is about 7e-13 of c_1^1
            (300, lambda t: 1.0 - 1e-12),
        ],
        ids=["2047", "2048", "2049", "4100", "near_one"],
    )
    def test_blocked_sweep_matches_per_step_loop(self, N, order):
        h = 1e-3
        prob = damped(AlphaSpec.of_time(order), h=h, T=N * h)
        assert prob.grid.N == N
        report = stability_report(prob)
        loop = np.empty(N)
        for n in range(1, N + 1):
            row = coefficient_row(n, h, float(prob.alpha.eval(n * h, math.nan, math.nan)))
            loop[n - 1] = spectral_radius(amplification_matrix(n, prob, row))
        assert float(np.max(np.abs(report.rho - loop))) <= 1e-14

    def test_singular_step_in_second_block_reports_its_step(self):
        h = 1e-3
        bad = 2500

        def at_bad(t):
            return abs(t - bad * h) < 0.5 * h

        def coeff(t):
            return 0.0 if at_bad(t) else 1.0

        # a1 = a2 = a3 = 0 at the bad step: the a1 check names it
        prob = OscillatorProblem.build(
            a1=coeff, a2=coeff, a3=coeff, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=0.0, T=3.0, h=h,
        )
        with pytest.raises(DegenerateProblemError) as err:
            stability_report(prob)
        assert err.value.step == bad
        # a1 = 1, a2 = 0, a3 = -4/h^2 there: a1 is fine, L is singular
        prob = OscillatorProblem.build(
            a1=1.0, a2=coeff, a3=lambda t: -4.0 / h ** 2 if at_bad(t) else 1.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=0.0, T=3.0, h=h,
        )
        with pytest.raises(StepFailureError) as err:
            stability_report(prob)
        assert err.value.step == bad
        with pytest.raises(StepFailureError) as err:
            solve_explicit(prob)
        assert err.value.step == bad

    def test_leading_coefficient_through_zero_stops_the_sweep(self):
        # the steppers stop at step 100 on this problem; so must the sweep
        prob = OscillatorProblem.build(
            a1=lambda t: 1.0 - t, a2=1.0, a3=25.0, p=0.0,
            alpha=AlphaSpec.constant(0.5), u0=1.0, v0=10.0, T=2.0, h=1e-2,
        )
        with pytest.raises(DegenerateProblemError) as err:
            stability_report(prob)
        assert err.value.step == 100

    def test_report_from_rho_verdict(self):
        ok = StabilityReport(np.array([0.5, 1.0, 1.0 + 5e-13]))
        assert ok.satisfied and ok.max_rho == pytest.approx(1.0 + 5e-13)
        bad = StabilityReport(np.array([0.5, 1.001]))
        assert not bad.satisfied

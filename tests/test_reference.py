"""Closed-form references adjudicated against independent numerics.

The exact derivative formulas are checked against the direct quadrature
oracle, the limit solutions against a high-order ODE integration, and the
manufactured forcings by plugging their exact solutions back into the
governing equations.
"""

import math

import numpy as np
import pytest
from scipy import special

from oracles import caputo_quadrature_oracle, check_scenario_consistency, ode_limit_oracle
from vofde.reference import (
    SCENARIO_NAMES,
    example1_exact_vofd,
    example2_exact_limits,
    example4_forcing,
    example5_forcing,
    list_scenarios,
    scenario,
)


class TestExample1ExactDerivative:
    def test_variant_ii_frozen_value(self):
        # 2 e^2 / ((e + 1) Gamma(1/e)) at t = 1
        assert example1_exact_vofd("ii", 1.0) == pytest.approx(
            1.6437697140691001, rel=1e-12
        )

    @pytest.mark.parametrize("variant", ["i", "ii"])
    def test_against_quadrature_oracle(self, variant):
        # adjudicates the exponent of variant i: the formula must agree with
        # the defining integral itself, not merely with a printed table
        if variant == "i":
            alpha_fn = lambda t: (50.0 * t + 49.0) / 100.0
        else:
            alpha_fn = lambda t: 1.0 - math.exp(-t)
        for t in (0.1, 0.3, 0.5, 0.8, 1.0):
            direct = caputo_quadrature_oracle(
                lambda x: 2.0 * x, alpha_fn(t), t, tol=1e-11
            )
            assert example1_exact_vofd(variant, t) == pytest.approx(direct, abs=1e-8)

    def test_vanishes_toward_zero(self):
        assert example1_exact_vofd("i", 1e-12) < 1e-10

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            example1_exact_vofd("i", t)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            example1_exact_vofd("iii", 0.5)


class TestExample2Limits:
    def test_initial_conditions_variant_i(self):
        assert example2_exact_limits("i", 0.0) == pytest.approx(1.0)
        eps = 1e-7
        deriv = (example2_exact_limits("i", eps) - example2_exact_limits("i", 0.0)) / eps
        assert deriv == pytest.approx(10.0, rel=1e-5)

    def test_initial_conditions_variant_ii(self):
        assert example2_exact_limits("ii", 0.0) == pytest.approx(1.0)
        eps = 1e-7
        deriv = (example2_exact_limits("ii", eps) - example2_exact_limits("ii", 0.0)) / eps
        assert deriv == pytest.approx(10.0, rel=1e-5)

    def test_variant_i_against_ode_oracle(self):
        # a1 u'' + a2 u' + a3 u = 0
        ts = np.linspace(0.0, 5.0, 51)
        ref = ode_limit_oracle(
            lambda t, y: [y[1], -(1.0 * y[1] + 25.0 * y[0])], [1.0, 10.0], ts, tol=1e-12
        )
        mine = example2_exact_limits("i", ts)
        assert float(np.max(np.abs(mine - ref))) < 1e-10

    def test_variant_ii_against_ode_oracle(self):
        # order -> 0 collapses the history term to a2 (u - u0)
        ts = np.linspace(0.0, 5.0, 51)
        ref = ode_limit_oracle(
            lambda t, y: [y[1], -(1.0 * (y[0] - 1.0) + 25.0 * y[0])], [1.0, 10.0], ts, tol=1e-12
        )
        mine = example2_exact_limits("ii", ts)
        assert float(np.max(np.abs(mine - ref))) < 1e-10

    def test_other_coefficients(self):
        # the softer oscillator used by the velocity-feedback benchmarks
        ts = np.linspace(0.0, 5.0, 41)
        ref = ode_limit_oracle(
            lambda t, y: [y[1], -(0.4 * y[1] + 4.0 * y[0])], [0.0, 1.0], ts, tol=1e-12
        )
        mine = example2_exact_limits("i", ts, a1=1.0, a2=0.4, a3=4.0, u0=0.0, v0=1.0)
        assert float(np.max(np.abs(mine - ref))) < 1e-10

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError):
            example2_exact_limits("i", 1.0, a2=20.0)


class TestManufacturedForcings:
    def test_duffing_forcing_values(self):
        assert example4_forcing(0.0) == 2.0
        expected = 2.0 + 0.2 * 1.6437697140691001 + 1.0 + 1.0
        assert example4_forcing(1.0) == pytest.approx(expected, rel=1e-12)

    def test_duffing_scenario_consistency(self):
        scn = scenario("ex4", 1e-2)
        assert check_scenario_consistency(scn) < 1e-8

    def test_varying_coefficient_forcing_values(self):
        assert example5_forcing(0.0) == pytest.approx(12.0)
        # independent incomplete-gamma route via scipy's regularized form;
        # t = 400 lies past where exp(t) Gamma(s) overflows a double
        for t in (1e-9, 0.3, 0.9, 1.0, 5.0, 30.0, 400.0):
            s = 0.5 * math.exp(-t)
            vofd = math.exp(t) * special.gammainc(s, t)  # already divided by Gamma(s)
            expected = (
                (1.0 + t * t) * math.exp(t)
                + 0.1 * math.sqrt(t) * vofd
                + (10.0 + math.exp(-t)) * math.exp(t)
            )
            assert example5_forcing(t) == pytest.approx(expected, rel=1e-13)

    def test_varying_coefficient_scenario_consistency(self):
        scn = scenario("ex5", 1e-2)
        assert check_scenario_consistency(scn) < 1e-8

    def test_negative_time_rejected(self):
        # a non-finite time is rejected as well: a nan would never end ex5's series
        for forcing in (example4_forcing, example5_forcing):
            for t in (-0.1, math.nan, math.inf):
                with pytest.raises(ValueError):
                    forcing(t)


class TestOdeLimitOracle:
    def test_free_motion(self):
        ts = np.linspace(0.0, 2.0, 21)
        out = ode_limit_oracle(lambda t, y: [y[1], 0.0], [0.0, 1.0], ts)
        assert float(np.max(np.abs(out - ts))) < 1e-10

    def test_harmonic_oscillator_at_pi(self):
        ts = np.array([0.0, math.pi])
        out = ode_limit_oracle(lambda t, y: [y[1], -y[0]], [1.0, 0.0], ts, tol=1e-12)
        assert out[-1] == pytest.approx(-1.0, abs=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ode_limit_oracle(lambda t, y: [y[1], 0.0], [0.0, 1.0], [])
        with pytest.raises(ValueError):
            ode_limit_oracle(lambda t, y: [y[1], 0.0], [0.0, 1.0], [1.0, 0.5])


class TestRegistry:
    def test_names(self):
        assert SCENARIO_NAMES == (
            "ex1i", "ex1ii",
            "ex2i", "ex2ii",
            "ex2iii_a", "ex2iii_b", "ex2iii_c", "ex2iii_d", "ex2iii_e",
            "ex3i", "ex3ii", "ex3iii",
            "ex4", "ex5",
        )

    def test_all_names_build(self):
        for name in SCENARIO_NAMES:
            scn = scenario(name, 1e-2)
            assert scn.name == name
            assert scn.grid.h == 1e-2

    def test_listing_matches_registry(self):
        listed = list_scenarios()
        assert [name for name, _ in listed] == list(SCENARIO_NAMES)
        assert all(desc for _, desc in listed)

    def test_default_horizons(self):
        assert scenario("ex1i", 1e-2).grid.T == 1.0
        assert scenario("ex2i", 1e-2).grid.T == 5.0
        assert scenario("ex3iii", 1e-2).grid.T == 5.0
        assert scenario("ex4", 1e-2).grid.T == 1.0

    def test_horizon_override(self):
        assert scenario("ex2i", 1e-2, T=2.5).grid.T == 2.5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario("nope", 1e-2)

    def test_derivative_benchmarks_have_no_problem(self):
        for name in ("ex1i", "ex1ii"):
            scn = scenario(name, 1e-2)
            assert scn.problem is None
            assert scn.exact_vofd is not None

    def test_consistency_needs_exact_solution(self):
        with pytest.raises(ValueError):
            check_scenario_consistency(scenario("ex2i", 1e-2))

    def test_limit_references_present_where_meaningful(self):
        for name in ("ex2i", "ex2ii", "ex3i", "ex3ii"):
            assert scenario(name, 1e-2).limit_u is not None
        for name in ("ex2iii_c", "ex3iii", "ex4", "ex5"):
            assert scenario(name, 1e-2).limit_u is None

"""Weight closed forms against direct quadrature, plus the limit laws.

The closed-form weights are cross-checked two independent ways: a scipy
adaptive quadrature of the kernel integral (with the algebraic-singularity
rule on the final subinterval) and the QUADPACK oracle of the full
derivative in tests/oracles.py. Neither route shares code with the weights.
"""

import math
import os
import re
from decimal import Decimal, localcontext
from math import gamma

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from conftest import step_means
from oracles import ConvergenceError, caputo_quadrature_oracle
from vofde import (
    Grid,
    coefficient,
    coefficient_row,
    vo_derivative_series,
)
from vofde import vo_core
from vofde.errors import OrderDomainError


def kernel_integral_quad(n, r, h, alpha):
    """Independent weight oracle: scipy quadrature of the kernel integral."""
    a, b = (r - 1) * h, r * h
    tn = n * h
    if r == n:
        # integrable endpoint singularity; use the weighted rule with
        # weight (b - x)^(-alpha) on [a, b], b = tn
        val, err = integrate.quad(lambda x: 1.0, a, b, weight="alg", wvar=(0.0, -alpha))
    else:
        val, err = integrate.quad(lambda x: (tn - x) ** (-alpha), a, b, limit=200)
    assert err < 1e-11 * max(1.0, abs(val))
    return val / math.gamma(1.0 - alpha)


def decimal_weight(k, h, alpha):
    """c_r^n with k = n - r + 1, its increment k^(1-a) - (k-1)^(1-a) at 40 digits.

    The Gamma prefactor h^(1-a) / Gamma(2-a) is the float the package forms;
    the increment, where the difference of two powers cancels, is not.
    """
    factor = h ** (1.0 - alpha) / (gamma(1.0 - alpha) * (1.0 - alpha))
    with localcontext() as ctx:
        ctx.prec = 40
        e = 1 - Decimal(alpha)
        return float(Decimal(factor) * (Decimal(k) ** e - Decimal(k - 1) ** e))


class TestGrid:
    def test_step_count_is_ceiling(self):
        assert Grid.make(1.0, 0.001).N == 1000
        assert Grid.make(1.0, 0.3).N == 4
        assert Grid.make(0.01, 0.001).N == 10

    def test_horizon_shorter_than_step(self):
        g = Grid.make(0.0005, 0.001)
        assert g.N == 1
        assert np.allclose(g.times(), [0.0, 0.001])

    def test_float_noise_does_not_add_a_step(self):
        # 5.0 / 0.001 is not exact in binary; the ceiling must still be 5000
        assert Grid.make(5.0, 0.001).N == 5000

    def test_times_spacing(self):
        g = Grid.make(1.0, 0.25)
        assert np.allclose(np.diff(g.times()), 0.25)

    @pytest.mark.parametrize("h,N", [(1e-13, "1e+13"), (1e-300, "1e+300"), (5e-324, "inf")])
    def test_grid_too_large_to_allocate_names_N(self, h, N):
        with pytest.raises(ValueError, match=rf"N = {re.escape(N)} steps"):
            Grid.make(1.0, h)

    @pytest.mark.parametrize("text,limit", [("1048576\n", 1048576), ("max\n", None), (None, None)])
    def test_memory_limit_reads_the_cgroup_file(self, tmp_path, text, limit):
        # a number caps physical memory; "max" or no file leaves it alone
        path = tmp_path / "memory.max"
        if text is not None:
            path.write_text(text)
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        expected = physical if limit is None else min(physical, limit)
        assert vo_core._memory_limit(str(path)) == expected

    def test_grid_beyond_the_memory_limit_refused(self, monkeypatch):
        monkeypatch.setattr(vo_core, "_memory_limit", lambda: vo_core._NODE_BYTES * 1001)
        assert Grid.make(1.0, 1e-3).N == 1000
        with pytest.raises(ValueError, match="N = 1001 steps"):
            Grid.make(1.001, 1e-3)

    @pytest.mark.parametrize("T,h", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1), (1.0, -0.1), (math.nan, 0.1)])
    def test_domain(self, T, h):
        with pytest.raises(ValueError):
            Grid.make(T, h)


class TestCoefficient:
    def test_order_to_zero_limit_gives_h(self):
        # kernel (nh - x)^0 = 1, so every subinterval integrates to h
        for n, r in [(1, 1), (4, 2), (9, 9)]:
            assert coefficient(n, r, 0.02, 1e-12) == pytest.approx(0.02, rel=1e-9)

    def test_final_weight_closed_form(self):
        # r = n bracket is (0 - 1), leaving h^(1-alpha)/Gamma(2-alpha)
        val = coefficient(5, 5, 0.01, 0.5)
        assert val == pytest.approx(0.01 ** 0.5 / gamma(1.5), rel=1e-13)
        assert val == pytest.approx(0.11283791670955126, rel=1e-10)

    def test_interior_weight_frozen_value(self):
        # (1/Gamma(0.5)) * int_0^0.1 (0.2 - x)^(-0.5) dx = 2(sqrt(0.2)-sqrt(0.1))/Gamma(0.5)
        val = coefficient(2, 1, 0.1, 0.5)
        assert val == pytest.approx(0.14780168117347779, rel=1e-12)
        assert val == pytest.approx(kernel_integral_quad(2, 1, 0.1, 0.5), rel=1e-10)

    def test_against_quadrature_oracle_sweep(self):
        rng = np.random.default_rng(20240517)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            r = int(rng.integers(1, n + 1))
            h = float(rng.uniform(1e-3, 0.5))
            alpha = float(rng.uniform(0.05, 0.95))
            closed = coefficient(n, r, h, alpha)
            assert closed == pytest.approx(
                kernel_integral_quad(n, r, h, alpha), rel=1e-9
            )

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_order_domain(self, alpha):
        with pytest.raises(OrderDomainError):
            coefficient(3, 1, 0.1, alpha)

    @pytest.mark.parametrize("n,r", [(3, 4), (3, 0), (0, 1), (-2, 1)])
    def test_index_domain(self, n, r):
        with pytest.raises(IndexError):
            coefficient(n, r, 0.1, 0.5)

    def test_step_domain(self):
        with pytest.raises(ValueError):
            coefficient(3, 1, 0.0, 0.5)

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (9, 4)])
    def test_array_orders_match_scalar_calls(self, n, r):
        alphas = np.random.default_rng(3).uniform(0.01, 0.99, size=257)
        batch = coefficient(n, r, 0.02, alphas)
        assert batch.shape == alphas.shape
        assert np.array_equal(batch, [coefficient(n, r, 0.02, float(a)) for a in alphas])

    def test_array_order_domain(self):
        with pytest.raises(OrderDomainError):
            coefficient(3, 1, 0.1, np.array([0.5, 1.0, 0.2]))

    def test_far_weight_leaves_the_log_table_alone(self):
        # one weight costs O(1), however far back its subinterval lies
        before = vo_core._LOG_TABLE.shape
        exact = decimal_weight(10**9, 0.1, 0.5)
        assert abs(coefficient(10**9, 1, 0.1, 0.5) - exact) <= 1e-14 * exact
        assert vo_core._LOG_TABLE.shape == before


class TestCoefficientRow:
    def test_matches_scalar_evaluation(self):
        row = coefficient_row(7, 0.05, 0.37)
        for r in range(1, 8):
            assert row[r - 1] == pytest.approx(
                coefficient(7, r, 0.05, 0.37), rel=1e-14
            )

    def test_bitwise_equal_to_direct_formula_across_table_growth(self, monkeypatch):
        # a log table of 8 entries grows at n = 9, 17 and 40
        monkeypatch.setattr(vo_core, "_LOG_TABLE", vo_core._log_table(np.arange(1.0, 9.0)))
        h, alpha = 0.013, 0.61
        factor = h ** (1.0 - alpha) / (gamma(1.0 - alpha) * (alpha - 1.0))
        for n in (7, 8, 9, 16, 17, 40, 5):
            # -d_k = k^(1-alpha) expm1((1-alpha) log1p(-1/k)); log1p(-1) = -inf
            k = np.arange(1, n + 1, dtype=float)
            with np.errstate(divide="ignore"):
                log1m = np.log1p(-1.0 / k)
            neg_d = np.exp((1.0 - alpha) * np.log(k)) * np.expm1((1.0 - alpha) * log1m)
            direct = factor * neg_d[::-1]
            assert np.array_equal(coefficient_row(n, h, alpha), direct), n
        assert vo_core._LOG_TABLE.shape == (2, 64)

    def test_single_entry_row(self):
        row = coefficient_row(1, 0.001, 0.8)
        assert row.shape == (1,)
        assert row[0] == pytest.approx(0.001 ** 0.2 / gamma(1.2), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95, 1.0 - 1e-10])
    def test_positive_and_increasing(self, alpha):
        row = coefficient_row(40, 0.01, alpha)
        assert np.all(row > 0.0)
        assert np.all(np.diff(row) > 0.0)  # kernel concentrates at t_n

    @pytest.mark.parametrize(
        "n,h,alpha",
        [(1, 0.001, 0.5), (10, 0.01, 0.3), (50, 0.02, 0.9), (25, 0.1, 1.0 - 1e-8), (25, 0.1, 1e-8)],
    )
    def test_row_sum_telescopes(self, n, h, alpha):
        # sum c_r^n = (nh)^(1-alpha)/Gamma(2-alpha): the series collapses
        row = coefficient_row(n, h, alpha)
        expected = (n * h) ** (1.0 - alpha) / gamma(2.0 - alpha)
        assert float(np.sum(row)) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 100_000), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(100_000, 1e-12)
    @example(100_000, 1.0 - 1e-12)
    @example(100_000, 5e-324)
    @example(1, 0.5)
    def test_increments_telescope(self, n, alpha):
        # sum_{k<=n} d_k = n^(1-alpha), with every -d_k from _increments;
        # both sides take 1 - alpha as rounded, so its rounding cancels
        logs, log1ms = vo_core._tables(n)
        total = math.fsum((-vo_core._increments(logs, log1ms, alpha)).tolist())
        exact = n ** (1.0 - alpha)
        assert abs(total - exact) <= 8 * 2.0**-53 * exact, (total - exact) / exact

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5000),
        st.floats(1e-12, 1.0 - 1e-12),
        st.floats(1e-3, 0.5),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    @example(2, 1.0 - 1e-12, 0.01, [0.0] * 4)
    @example(5000, 1.0 - 1e-12, 0.01, [0.0, 0.001, 0.5, 1.0])
    @example(5000, 1e-12, 0.01, [0.0, 0.001, 0.5, 1.0])
    @example(5000, 0.1, 0.01, [0.0, 0.001, 0.5, 1.0])
    def test_rows_are_positive_increasing_and_exact(self, n, alpha, h, places):
        row = coefficient_row(n, h, alpha)
        assert np.all(row > 0.0)
        # the exact row rises by at least 1 - (1 + 1/k)^(-alpha) relative
        # from entry n-k to n-k+1; where that exceeds twice the 1e-14
        # accuracy below, the computed row must rise strictly too
        k = np.arange(n - 1, 0, -1, dtype=float)
        resolved = -np.expm1(-alpha * np.log1p(1.0 / k)) > 2e-14
        rises = row[1:] > row[:-1]
        assert np.all(rises[resolved])
        assert np.all(row[1:] >= row[:-1] * (1.0 - 2e-14))
        for r in {1, n, *(1 + round(p * (n - 1)) for p in places)}:
            exact = decimal_weight(n - r + 1, h, alpha)
            assert abs(row[r - 1] - exact) <= 1e-14 * exact, (r, row[r - 1], exact)
            assert abs(coefficient(n, r, h, alpha) - exact) <= 1e-14 * exact, r

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-12, 1.0 - 1e-12), st.floats(1e-3, 0.5))
    @example(1e-12, 1e-3)
    @example(1.0 - 1e-12, 0.5)
    def test_near_weights_equal_the_two_entry_row(self, alpha, h):
        # the implicit stepper's c_{n-1} and c_n, taken in scalar math
        row = coefficient_row(2, h, alpha)
        near = vo_core.near_weights(h, alpha)
        assert np.all(np.abs(np.subtract(near, row)) <= 4.5e-16 * row), (near, row)

    def test_near_order_one_row_is_a_delta(self):
        # prefactor cancellation: the row tends to (0, ..., 0, 1)
        row = coefficient_row(30, 0.01, 1.0 - 1e-12)
        assert abs(row[-1] - 1.0) < 1e-9
        assert np.all(np.abs(row[:-1]) < 1e-9)

    def test_length_contract(self):
        assert coefficient_row(13, 0.01, 0.6).shape == (13,)

    def test_rows_of_an_order_array_equal_single_order_rows(self):
        alphas = np.concatenate(([1e-12, 0.5, 1.0 - 1e-12], np.linspace(0.01, 0.99, 61)))
        for n in (1, 2, 9):
            rows = coefficient_row(n, 0.013, alphas)
            assert rows.shape == (alphas.size, n)
            for row, alpha in zip(rows, alphas.tolist()):
                assert np.array_equal(row, coefficient_row(n, 0.013, alpha)), (n, alpha)

    def test_order_array_outside_domain_rejected(self):
        with pytest.raises(OrderDomainError):
            coefficient_row(2, 0.1, np.array([0.5, 1.0]))


class TestDerivativeAt:
    def test_zero_velocity_gives_zero(self):
        means = step_means(np.zeros(6))
        row = coefficient_row(5, 0.1, 0.4)
        assert row @ means[:5] == 0.0

    def test_order_to_zero_recovers_increment(self):
        # D^alpha u -> u(t) - u(0) as alpha -> 0; for u = t this is t_n
        h, N = 0.01, 100
        ts = np.arange(N + 1) * h
        means = step_means(np.ones(N + 1))
        for n in (1, 37, 100):
            row = coefficient_row(n, h, 1e-12)
            assert row @ means[:n] == pytest.approx(ts[n], rel=1e-6)


class TestDerivativeSeries:
    def test_zero_samples(self):
        grid = Grid.make(1.0, 0.1)
        out = vo_derivative_series(np.zeros(11), lambda t: 0.5, grid)
        assert np.all(out == 0.0)

    def test_constant_order_linear_u_is_exact(self):
        # u = t: the mean velocities are exact and the row sum telescopes,
        # so the only error is round-off
        grid = Grid.make(1.0, 0.01)
        out = vo_derivative_series(np.ones(grid.N + 1), lambda t: 0.5, grid)
        ts = grid.times()[1:]
        exact = ts ** 0.5 / gamma(1.5)
        assert np.max(np.abs(out - exact)) < 1e-10

    def test_quadratic_benchmark_order_one_minus_exp(self):
        # u = t^2 with order 1 - exp(-t) on [0, 1], h = 1e-3: the worst node
        # error of this discretization is 4.62050e-5
        grid = Grid.make(1.0, 1e-3)
        ts = grid.times()
        out = vo_derivative_series(2.0 * ts, lambda t: 1.0 - math.exp(-t), grid)
        a = 1.0 - np.exp(-ts[1:])
        exact = 2.0 * ts[1:] ** (2.0 - a) / np.array([gamma(3.0 - v) for v in a])
        worst = float(np.max(np.abs(out - exact)))
        assert 0.5 * 4.62050e-5 <= worst <= 1.5 * 4.62050e-5

    def test_order_to_one_limit_matches_velocity(self):
        grid = Grid.make(1.0, 1e-3)
        ts = grid.times()
        ud = np.cos(ts)
        out = vo_derivative_series(ud, lambda t: 1.0 - 1e-12, grid)
        means = 0.5 * (ud[:-1] + ud[1:])
        assert np.max(np.abs(out - means)) < 1e-6

    def test_order_to_zero_limit_matches_increment(self):
        grid = Grid.make(1.0, 1e-3)
        ts = grid.times()
        ud = np.cos(ts)  # u = sin t
        out = vo_derivative_series(ud, lambda t: 1e-12, grid)
        increment = np.sin(ts[1:])  # u(t) - u(0), here via the trapezoid sum
        trapz = np.cumsum(0.5 * (ud[:-1] + ud[1:])) * grid.h
        assert np.max(np.abs(out - trapz)) < 1e-9 * np.max(np.abs(trapz))
        assert np.max(np.abs(out - increment)) < 1e-4  # trapezoid truncation

    def test_out_of_range_order_names_the_node(self):
        grid = Grid.make(1.0, 0.25)
        with pytest.raises(OrderDomainError) as err:
            vo_derivative_series(np.ones(5), lambda t: 1.5 if t > 0.6 else 0.5, grid)
        assert err.value.node == 3

    def test_sample_length_contract(self):
        grid = Grid.make(1.0, 0.25)
        with pytest.raises(IndexError):
            vo_derivative_series(np.ones(6), lambda t: 0.5, grid)

    def test_halving_h_shrinks_error(self):
        def worst(h):
            grid = Grid.make(1.0, h)
            ts = grid.times()
            out = vo_derivative_series(2.0 * ts, lambda t: 1.0 - math.exp(-t), grid)
            a = 1.0 - np.exp(-ts[1:])
            exact = 2.0 * ts[1:] ** (2.0 - a) / np.array([gamma(3.0 - v) for v in a])
            return float(np.max(np.abs(out - exact)))

        assert worst(2e-3) / worst(1e-3) >= 1.5


class TestQuadratureOracle:
    def test_zero_velocity(self):
        assert caputo_quadrature_oracle(lambda x: 0.0, 0.5, 1.0) == 0.0

    def test_quadratic_constant_order(self):
        # D^0.5 t^2 = 2 t^1.5 / Gamma(2.5)
        val = caputo_quadrature_oracle(lambda x: 2.0 * x, 0.5, 1.0, tol=1e-11)
        assert val == pytest.approx(2.0 / gamma(2.5), abs=1e-10)
        assert val == pytest.approx(1.5045055561273501, rel=1e-9)

    def test_quadratic_at_frozen_order(self):
        # order value of 1 - exp(-t) at t = 1; closed form rewritten with
        # Gamma(3 - alpha) expanded
        a = 1.0 - math.exp(-1.0)
        val = caputo_quadrature_oracle(lambda x: 2.0 * x, a, 1.0, tol=1e-11)
        assert val == pytest.approx(1.6437697140691001, abs=1e-9)

    def test_exponential_closed_form(self):
        # D^a exp(t) = exp(t) P(1 - a, t), P the regularized lower incomplete gamma
        a, t = 0.7, 1.3
        val = caputo_quadrature_oracle(math.exp, a, t, tol=1e-11)
        exact = math.exp(t) * special.gammainc(1.0 - a, t)
        assert val == pytest.approx(exact, abs=1e-9)

    def test_tolerance_is_honored(self):
        exact = 2.0 / gamma(2.5)
        for tol in (1e-6, 1e-9, 1e-12):
            val = caputo_quadrature_oracle(lambda x: 2.0 * x, 0.5, 1.0, tol=tol)
            assert abs(val - exact) <= tol

    def test_subdivision_limit_raises(self):
        # an interior algebraic singularity decays slower than the local
        # tolerance under bisection, so subdivision can never settle and the
        # oracle must give up with an error instead of spinning
        sing = lambda x: abs(x - 0.4) ** -0.5 if x != 0.4 else 1e12
        with pytest.raises(ConvergenceError):
            caputo_quadrature_oracle(sing, 0.5, 1.0, tol=1e-12)

    @pytest.mark.parametrize("alpha,t,tol", [(1.2, 1.0, 1e-10), (0.5, 0.0, 1e-10), (0.5, 1.0, 1e-13)])
    def test_domain(self, alpha, t, tol):
        with pytest.raises(ValueError):
            caputo_quadrature_oracle(lambda x: x, alpha, t, tol=tol)

"""Lower incomplete gamma against independent references.

The function is checked against values frozen from a 30-digit computation,
against an in-test power series written independently of the package
implementation, and against math.gamma, its limit as x grows.
"""

import math
from math import gamma

import numpy as np
import pytest

from vofde.reference import lower_incomplete_gamma


def series_lower_gamma(s, x, terms=300):
    # independent oracle: term-by-term power series, summed with fsum
    parts = []
    term = 1.0 / s
    for k in range(terms):
        parts.append(term)
        term *= x / (s + k + 1.0)
        if abs(term) < 1e-22 * abs(parts[0]):
            break
    return math.exp(-x + s * math.log(x)) * math.fsum(parts)


class TestLowerIncompleteGamma:
    def test_at_zero(self):
        assert lower_incomplete_gamma(0.7, 0.0) == 0.0

    def test_s_equal_one_closed_form(self):
        # gamma_lower(1, x) = 1 - exp(-x)
        assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
            0.8646647167633873, rel=1e-13
        )

    @pytest.mark.parametrize(
        "s,x,expected",
        [
            (0.5, 1.0, 1.4936482656248541),   # series branch
            (1.5, 3.0, 0.78731493881798064),  # continued-fraction branch
            (0.3, 0.2, 1.9669767255213553),
            (2.5, 10.0, 1.3276790708673576),
        ],
    )
    def test_frozen_high_precision_values(self, s, x, expected):
        assert lower_incomplete_gamma(s, x) == pytest.approx(expected, rel=1e-12)

    def test_saturates_to_complete_gamma(self):
        # by x = 50 the missing upper tail of gamma(0.5) is below 1e-20
        assert abs(lower_incomplete_gamma(0.5, 50.0) - gamma(0.5)) < 1e-12

    def test_against_series_oracle_both_branches(self):
        rng = np.random.default_rng(915)
        for _ in range(120):
            s = float(rng.uniform(0.05, 3.0))
            x = float(rng.uniform(0.01, 2.0) * (s + 1.0))  # straddles the switch
            ref = series_lower_gamma(s, x)
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-10)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(77)
        for s in rng.uniform(0.05, 3.0, size=20):
            s = float(s)
            xs = np.linspace(0.0, 3.0 * (s + 1.0), 60)
            vals = [lower_incomplete_gamma(s, float(x)) for x in xs]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-14 * max(1.0, abs(hi))

    def test_bounded_by_complete_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            s = float(rng.uniform(0.05, 3.0))
            x = float(rng.uniform(0.0, 20.0))
            val = lower_incomplete_gamma(s, x)
            assert 0.0 <= val <= gamma(s) * (1.0 + 1e-14)

    @pytest.mark.parametrize("s,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.inf)])
    def test_domain(self, s, x):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(s, x)

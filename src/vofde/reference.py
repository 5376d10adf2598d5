"""Benchmark scenarios with their closed-form reference solutions.

Two kinds of reference travel with a scenario. exact_* fields hold a
manufactured or known true solution of the scenario's own equation; the
tests plug them into it as a consistency check. limit_u holds the closed-form
solution of the integer-order equation the scenario approaches when its
order is pushed against 0 or 1; it is a comparison target, not a solution
of the fractional equation itself.

The registry is one table, name -> (default horizon, description,
builder), and the four oscillator examples share one builder. A default
horizon or a description is read without building anything
(default_horizon, list_scenarios), so the CLI checks a step against the
horizon before it loads a scenario.

Gamma comes from math. The lower incomplete gamma, needed only by the ex5
forcing, is computed here by series and continued fraction, so the package
runs on numpy alone. The high-order ODE integration that checks limit_u
uses scipy and lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError
from .model import AlphaSpec, OscillatorProblem
from .vo_core import Grid

__all__ = [
    "Scenario",
    "SCENARIO_NAMES",
    "scenario",
    "list_scenarios",
    "default_horizon",
    "example1_exact_vofd",
    "example2_exact_limits",
    "example4_forcing",
    "example5_forcing",
    "lower_incomplete_gamma",
]


@dataclass(frozen=True)
class Scenario:
    """A named benchmark: a problem (or bare derivative data) plus references."""

    name: str
    description: str
    grid: Grid
    alpha: AlphaSpec
    problem: Optional[OscillatorProblem] = None
    exact_u: Optional[Callable[[float], float]] = None
    exact_udot: Optional[Callable[[float], float]] = None
    exact_uddot: Optional[Callable[[float], float]] = None
    exact_vofd: Optional[Callable[[float], float]] = None
    limit_u: Optional[Callable] = None


def example1_exact_vofd(variant: str, t: float) -> float:
    """Exact variable-order derivative of u(t) = t^2 for the two benchmarks.

    Freezing the order at its instantaneous value gives

        D^alpha(t) t^2 = 2 t^(2 - alpha(t)) / Gamma(3 - alpha(t)).

    Variant "i" uses alpha = (50 t + 49)/100, so the exponent is
    (151 - 50 t)/100; variant "ii" uses alpha = 1 - exp(-t), written in the
    equivalent product form below.
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0.0:
        raise ValueError(f"exact derivative defined for t > 0, got {t!r}")
    t = float(t)
    if variant == "i":
        a = (50.0 * t + 49.0) / 100.0
        return 2.0 * t ** (2.0 - a) / gamma(3.0 - a)
    if variant == "ii":
        e_neg = math.exp(-t)
        return (
            2.0
            * math.exp(2.0 * t)
            * t ** (e_neg + 1.0)
            / ((math.exp(t) + 1.0) * gamma(e_neg))
        )
    raise ValueError(f"unknown variant {variant!r}, expected 'i' or 'ii'")


def example2_exact_limits(variant, t, a1=1.0, a2=1.0, a3=25.0, u0=1.0, v0=10.0):
    """Closed-form solutions of the two integer-order limit equations.

    Variant "i": the order-one limit a1 u'' + a2 u' + a3 u = 0, the
    underdamped free oscillator. Variant "ii": the order-zero limit, where
    the history term collapses to a2 (u - u0), giving
    a1 u'' + (a2 + a3) u = a2 u0, an undamped oscillator about the shifted
    rest point a2 u0 / (a2 + a3). Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if variant == "i":
        w = math.sqrt(a3 / a1)
        xi = a2 / (2.0 * math.sqrt(a1 * a3))
        if xi >= 1.0:
            raise ValueError(f"underdamped limit requires damping ratio < 1, got {xi}")
        wd = w * math.sqrt(1.0 - xi * xi)
        out = np.exp(-xi * w * t) * (
            u0 * np.cos(wd * t) + (v0 + xi * w * u0) / wd * np.sin(wd * t)
        )
    elif variant == "ii":
        k = a2 + a3
        wbar = math.sqrt(k / a1)
        rest = a2 * u0 / k
        out = (u0 - rest) * np.cos(wbar * t) + v0 / wbar * np.sin(wbar * t) + rest
    else:
        raise ValueError(f"unknown variant {variant!r}, expected 'i' or 'ii'")
    return float(out) if out.ndim == 0 else out


def example4_forcing(t: float) -> float:
    """Forcing that makes u = t^2 solve the cubic oscillator benchmark.

    p = u'' + 0.2 D^alpha u + u + u^3 with u = t^2 and alpha = 1 - exp(-t):
    p = 2 + 0.2 * (exact derivative of t^2) + t^2 + t^6.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"forcing defined for t >= 0, got {t!r}")
    if t == 0.0:
        return 2.0
    return 2.0 + 0.2 * example1_exact_vofd("ii", t) + t * t + t ** 6


def example5_forcing(t: float) -> float:
    """Forcing that makes u = exp(t) solve the varying-coefficient benchmark.

    Uses the closed form D^alpha exp(t) = exp(t) gammainc(1-alpha, t) /
    Gamma(1-alpha) with alpha = 1 - 0.5 exp(-t), so the fractional term is
    evaluated through the incomplete gamma rather than any grid sum.
    """
    t = float(t)
    if t < 0.0:
        raise ValueError(f"forcing defined for t >= 0, got {t!r}")
    et = math.exp(t)
    s = 0.5 * math.exp(-t)  # 1 - alpha(t)
    vofd = et * lower_incomplete_gamma(s, t) / gamma(s) if t > 0.0 else 0.0
    return (1.0 + t * t) * et + 0.1 * math.sqrt(t) * vofd + (10.0 + math.exp(-t)) * et


# terms before the incomplete-gamma series or continued fraction gives up
_MAX_TERMS = 500


def lower_incomplete_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma integral int_0^x v^(s-1) exp(-v) dv.

    Requires finite s > 0 and finite x >= 0. A power series is used for
    x < s + 1 and a continued fraction for the complementary integral
    otherwise; both converge rapidly in their regions.
    """
    if not (isinstance(s, (int, float)) and math.isfinite(s)) or s <= 0.0:
        raise ValueError(f"lower_incomplete_gamma requires s > 0, got {s!r}")
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x < 0.0:
        raise ValueError(f"lower_incomplete_gamma requires x >= 0, got {x!r}")
    s = float(s)
    x = float(x)
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return gamma(s) - _upper_gamma_cf(s, x)


def _gamma_series(s: float, x: float) -> float:
    # gamma_lower(s, x) = x^s exp(-x) sum_k x^k / (s (s+1) ... (s+k))
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return total * math.exp(-x + s * math.log(x))
    raise ConvergenceError(
        f"incomplete gamma series stalled for s={s}, x={x}"
    )


def _upper_gamma_cf(s: float, x: float) -> float:
    # Modified Lentz evaluation of the continued fraction for the upper
    # integral; valid for x >= s + 1 where it converges geometrically.
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-x + s * math.log(x)) * h
    raise ConvergenceError(
        f"incomplete gamma continued fraction stalled for s={s}, x={x}"
    )


# registry ------------------------------------------------------------------

_EX2_COEFFS = dict(a1=1.0, a2=1.0, a3=25.0, u0=1.0, v0=10.0)
_EX3_COEFFS = dict(a1=1.0, a2=0.4, a3=4.0)

# closest admissible stand-in for a constant order of exactly one
_NEAR_ONE = 1.0 - 1e-12

# exact_u, exact_udot and exact_uddot of u = t^2
_SQUARE = (lambda t: t * t, lambda t: 2.0 * t, lambda t: 2.0)


def _derivative(variant: str, order: Callable[[float], float]):
    """Builder of a bare derivative benchmark: u = t^2 under a time-only order."""
    alpha = AlphaSpec.of_time(order)

    def build(name: str, description: str, h: float, T: float) -> Scenario:
        return Scenario(
            name, description, Grid.make(T, h), alpha, None, *_SQUARE,
            exact_vofd=lambda t: example1_exact_vofd(variant, t),
        )

    return build


def _oscillator(alpha, a1, a2, a3, u0, v0, p=0.0, f_nl=None, exact=(), limit=None):
    """Builder of a1 u'' + a2 D^alpha u + a3 u + f_nl = p with its references.

    exact holds exact_u, exact_udot and exact_uddot; limit names the variant
    of example2_exact_limits whose equation the scenario approaches.
    """
    coeffs = dict(a1=a1, a2=a2, a3=a3, u0=u0, v0=v0)
    ref = None if limit is None else lambda t: example2_exact_limits(limit, t, **coeffs)

    def build(name: str, description: str, h: float, T: float) -> Scenario:
        problem = OscillatorProblem.build(**coeffs, p=p, alpha=alpha, T=T, h=h, f_nl=f_nl)
        return Scenario(name, description, problem.grid, alpha, problem, *exact, limit_u=ref)

    return build


def _ex2(order: Callable[[float], float], limit: Optional[str] = None):
    # the linear oscillator of example 2 under a time-only order
    return _oscillator(AlphaSpec.of_time(order), **_EX2_COEFFS, limit=limit)


def _ex3(d: float, k: float, u0: float, v0: float, limit: Optional[str] = None):
    # example 3: the order d - k tanh|udot| follows the velocity
    alpha = AlphaSpec.of_state(lambda t, u, udot: d - k * math.tanh(abs(udot)))
    return _oscillator(alpha, **_EX3_COEFFS, u0=u0, v0=v0, limit=limit)


_SWEEP = "linear oscillator order sweep: "

# name -> (default horizon T, description, builder(name, description, h, T))
_REGISTRY = {
    "ex1i": (1.0, "derivative benchmark: u = t^2, order (50 t + 49)/100, no oscillator",
             _derivative("i", lambda t: (50.0 * t + 49.0) / 100.0)),
    "ex1ii": (1.0, "derivative benchmark: u = t^2, order 1 - exp(-t), no oscillator",
              _derivative("ii", lambda t: 1.0 - math.exp(-t))),
    "ex2i": (5.0, "linear oscillator, order 0.9999 - 1e-9 exp(-t): viscous-damping limit",
             _ex2(lambda t: 0.9999 - 1e-9 * math.exp(-t), limit="i")),
    "ex2ii": (5.0, "linear oscillator, order 1e-10 (1 - exp(-t)): added-stiffness limit",
              _ex2(lambda t: 1e-10 - 1e-10 * math.exp(-t), limit="ii")),
    "ex2iii_a": (5.0, _SWEEP + "constant order at the admissible ceiling (~1)",
                 _ex2(lambda t: _NEAR_ONE)),
    "ex2iii_b": (5.0, _SWEEP + "order 1 - exp(-t)",
                 _ex2(lambda t: 1.0 - math.exp(-t))),
    "ex2iii_c": (5.0, _SWEEP + "constant order 0.8",
                 _ex2(lambda t: 0.8)),
    "ex2iii_d": (5.0, _SWEEP + "order 0.8 (1 - exp(-t))",
                 _ex2(lambda t: 0.8 * (1.0 - math.exp(-t)))),
    "ex2iii_e": (5.0, _SWEEP + "order 0.5 (1 - exp(-t))",
                 _ex2(lambda t: 0.5 * (1.0 - math.exp(-t)))),
    "ex3i": (5.0, "velocity-dependent order 0.9999 - 1e-9 tanh|udot|: damping limit",
             _ex3(0.9999, 1e-9, 0.0, 1.0, limit="i")),
    "ex3ii": (5.0, "velocity-dependent order 1e-10 (1 - tanh|udot|): stiffness limit",
              _ex3(1e-10, 1e-10, 0.0, 1.0, limit="ii")),
    "ex3iii": (5.0, "velocity-dependent order 1 - 0.5 tanh|udot|, strong state feedback",
               _ex3(1.0, 0.5, 0.0, 10.0)),
    "ex4": (1.0, "cubic (Duffing) oscillator forced so that u = t^2 exactly",
            _oscillator(AlphaSpec.of_time(lambda t: 1.0 - math.exp(-t)),
                        a1=1.0, a2=0.2, a3=1.0, u0=0.0, v0=0.0, p=example4_forcing,
                        f_nl=lambda u, udot: u ** 3, exact=_SQUARE)),
    "ex5": (1.0, "time-varying coefficients forced so that u = exp(t) exactly",
            _oscillator(AlphaSpec.of_time(lambda t: 1.0 - 0.5 * math.exp(-t)),
                        a1=lambda t: 1.0 + t * t,
                        a2=lambda t: 0.1 * math.sqrt(t),
                        a3=lambda t: 10.0 + math.exp(-t),
                        u0=1.0, v0=1.0, p=example5_forcing, exact=(math.exp,) * 3)),
}

SCENARIO_NAMES = tuple(_REGISTRY)


def _entry(name: str):
    if name not in _REGISTRY:
        raise KeyError(f"unknown scenario {name!r}; known names: {', '.join(SCENARIO_NAMES)}")
    return _REGISTRY[name]


def default_horizon(name: str) -> float:
    """The horizon T a named scenario runs to unless told otherwise; builds nothing."""
    return _entry(name)[0]


def scenario(name: str, h: float, T: float | None = None) -> Scenario:
    """Instantiate a named benchmark scenario on a grid with step h."""
    horizon, description, build = _entry(name)
    return build(name, description, float(h), horizon if T is None else float(T))


def list_scenarios() -> list[tuple[str, str]]:
    """Names and one-line descriptions, in registry order."""
    return [(name, entry[1]) for name, entry in _REGISTRY.items()]

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

Gamma comes from math, and the ex5 forcing sums its fractional term as a
series of positive terms, so the package runs on numpy alone. The
high-order ODE integration that checks limit_u uses scipy and lives with
the tests (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gamma
from typing import Callable, Optional

import numpy as np

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


# the two orders of example 1; ex4 runs under variant "ii"
_EX1_ORDERS = {
    "i": lambda t: (50.0 * t + 49.0) / 100.0,
    "ii": lambda t: 1.0 - math.exp(-t),
}


def example1_exact_vofd(variant: str, t: float) -> float:
    """Exact variable-order derivative of u(t) = t^2 for the two benchmarks.

    Freezing the order at its instantaneous value gives

        D^alpha(t) t^2 = 2 t^(2 - alpha(t)) / Gamma(3 - alpha(t)),

    with alpha(t) = (50 t + 49)/100 for variant "i" and 1 - exp(-t) for "ii".
    """
    if not (isinstance(t, (int, float)) and math.isfinite(t)) or t <= 0.0:
        raise ValueError(f"exact derivative defined for t > 0, got {t!r}")
    if variant not in _EX1_ORDERS:
        raise ValueError(f"unknown variant {variant!r}, expected 'i' or 'ii'")
    t = float(t)
    a = _EX1_ORDERS[variant](t)
    return 2.0 * t ** (2.0 - a) / gamma(3.0 - a)


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

    The order is alpha = 1 - 0.5 exp(-t). With s = 1 - alpha and P the
    regularized lower incomplete gamma, the fractional term is

        D^alpha exp(t) = exp(t) P(s, t) = sum_k t^(k+s) / Gamma(k+s+1),

    a series of positive terms, summed here until a term no longer counts.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"forcing defined for finite t >= 0, got {t!r}")
    et = math.exp(t)
    s = 0.5 * math.exp(-t)  # 1 - alpha(t)
    term = vofd = t ** s / gamma(1.0 + s)
    k = 0
    while term > 1e-17 * vofd:
        k += 1
        term *= t / (k + s)
        vofd += term
    return (1.0 + t * t) * et + 0.1 * math.sqrt(t) * vofd + (10.0 + math.exp(-t)) * et


# registry ------------------------------------------------------------------

_EX2_COEFFS = dict(a1=1.0, a2=1.0, a3=25.0, u0=1.0, v0=10.0)
_EX3_COEFFS = dict(a1=1.0, a2=0.4, a3=4.0)

# closest admissible stand-in for a constant order of exactly one
_NEAR_ONE = 1.0 - 1e-12

# exact_u, exact_udot and exact_uddot of u = t^2
_SQUARE = (lambda t: t * t, lambda t: 2.0 * t, lambda t: 2.0)


def _derivative(variant: str):
    """Builder of a bare derivative benchmark: u = t^2 under an order of example 1."""
    alpha = AlphaSpec.of_time(_EX1_ORDERS[variant])

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
             _derivative("i")),
    "ex1ii": (1.0, "derivative benchmark: u = t^2, order 1 - exp(-t), no oscillator",
              _derivative("ii")),
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
            _oscillator(AlphaSpec.of_time(_EX1_ORDERS["ii"]),
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

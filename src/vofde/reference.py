"""Benchmark scenarios with their closed-form reference solutions.

Two kinds of reference travel with a scenario. exact_* fields hold a
manufactured or known true solution of the scenario's own equation; the
tests plug them into it as a consistency check. limit_u holds the closed-form
solution of the integer-order equation the scenario approaches when its
order is pushed against 0 or 1; it is a comparison target, not a solution
of the fractional equation itself.

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


def _ex1(variant: str, h: float, T: float) -> Scenario:
    grid = Grid.make(T, h)
    if variant == "i":
        alpha = AlphaSpec.of_time(lambda t: (50.0 * t + 49.0) / 100.0)
        desc = "derivative benchmark: u = t^2, order (50 t + 49)/100, no oscillator"
    else:
        alpha = AlphaSpec.of_time(lambda t: 1.0 - math.exp(-t))
        desc = "derivative benchmark: u = t^2, order 1 - exp(-t), no oscillator"
    return Scenario(
        name=f"ex1{variant}",
        description=desc,
        grid=grid,
        alpha=alpha,
        problem=None,
        exact_u=lambda t: t * t,
        exact_udot=lambda t: 2.0 * t,
        exact_uddot=lambda t: 2.0,
        exact_vofd=lambda t, v=variant: example1_exact_vofd(v, t),
    )


def _ex2(name: str, alpha: AlphaSpec, desc: str, h: float, T: float, limit=None) -> Scenario:
    c = _EX2_COEFFS
    prob = OscillatorProblem.build(
        a1=c["a1"], a2=c["a2"], a3=c["a3"], p=0.0,
        alpha=alpha, u0=c["u0"], v0=c["v0"], T=T, h=h,
    )
    return Scenario(
        name=name, description=desc, grid=prob.grid, alpha=alpha,
        problem=prob, limit_u=limit,
    )


def _ex2i(h: float, T: float) -> Scenario:
    alpha = AlphaSpec.of_time(lambda t: 0.9999 - 1e-9 * math.exp(-t))
    limit = lambda t: example2_exact_limits("i", t, **_EX2_COEFFS)
    return _ex2(
        "ex2i", alpha,
        "linear oscillator, order 0.9999 - 1e-9 exp(-t): viscous-damping limit",
        h, T, limit,
    )


def _ex2ii(h: float, T: float) -> Scenario:
    alpha = AlphaSpec.of_time(lambda t: 1e-10 - 1e-10 * math.exp(-t))
    limit = lambda t: example2_exact_limits("ii", t, **_EX2_COEFFS)
    return _ex2(
        "ex2ii", alpha,
        "linear oscillator, order 1e-10 (1 - exp(-t)): added-stiffness limit",
        h, T, limit,
    )


_EX2III_ORDERS = {
    "a": (lambda t: _NEAR_ONE, "constant order at the admissible ceiling (~1)"),
    "b": (lambda t: 1.0 - math.exp(-t), "order 1 - exp(-t)"),
    "c": (lambda t: 0.8, "constant order 0.8"),
    "d": (lambda t: 0.8 * (1.0 - math.exp(-t)), "order 0.8 (1 - exp(-t))"),
    "e": (lambda t: 0.5 * (1.0 - math.exp(-t)), "order 0.5 (1 - exp(-t))"),
}


def _ex2iii(case: str, h: float, T: float) -> Scenario:
    fn, label = _EX2III_ORDERS[case]
    return _ex2(
        f"ex2iii_{case}",
        AlphaSpec.of_time(fn),
        f"linear oscillator order sweep: {label}",
        h, T,
    )


def _ex3(name, d, k, u0, v0, desc, h, T, limit=None) -> Scenario:
    alpha = AlphaSpec.of_state(lambda t, u, udot: d - k * math.tanh(abs(udot)))
    c = _EX3_COEFFS
    prob = OscillatorProblem.build(
        a1=c["a1"], a2=c["a2"], a3=c["a3"], p=0.0,
        alpha=alpha, u0=u0, v0=v0, T=T, h=h,
    )
    return Scenario(
        name=name, description=desc, grid=prob.grid, alpha=alpha,
        problem=prob, limit_u=limit,
    )


def _ex3i(h: float, T: float) -> Scenario:
    limit = lambda t: example2_exact_limits("i", t, u0=0.0, v0=1.0, **_EX3_COEFFS)
    return _ex3(
        "ex3i", 0.9999, 1e-9, 0.0, 1.0,
        "velocity-dependent order 0.9999 - 1e-9 tanh|udot|: damping limit",
        h, T, limit,
    )


def _ex3ii(h: float, T: float) -> Scenario:
    limit = lambda t: example2_exact_limits("ii", t, u0=0.0, v0=1.0, **_EX3_COEFFS)
    return _ex3(
        "ex3ii", 1e-10, 1e-10, 0.0, 1.0,
        "velocity-dependent order 1e-10 (1 - tanh|udot|): stiffness limit",
        h, T, limit,
    )


def _ex3iii(h: float, T: float) -> Scenario:
    return _ex3(
        "ex3iii", 1.0, 0.5, 0.0, 10.0,
        "velocity-dependent order 1 - 0.5 tanh|udot|, strong state feedback",
        h, T,
    )


def _ex4(h: float, T: float) -> Scenario:
    alpha = AlphaSpec.of_time(lambda t: 1.0 - math.exp(-t))
    prob = OscillatorProblem.build(
        a1=1.0, a2=0.2, a3=1.0, p=example4_forcing,
        alpha=alpha, u0=0.0, v0=0.0, T=T, h=h,
        f_nl=lambda u, udot: u ** 3,
    )
    return Scenario(
        name="ex4",
        description="cubic (Duffing) oscillator forced so that u = t^2 exactly",
        grid=prob.grid, alpha=alpha, problem=prob,
        exact_u=lambda t: t * t,
        exact_udot=lambda t: 2.0 * t,
        exact_uddot=lambda t: 2.0,
    )


def _ex5(h: float, T: float) -> Scenario:
    alpha = AlphaSpec.of_time(lambda t: 1.0 - 0.5 * math.exp(-t))
    prob = OscillatorProblem.build(
        a1=lambda t: 1.0 + t * t,
        a2=lambda t: 0.1 * math.sqrt(t),
        a3=lambda t: 10.0 + math.exp(-t),
        p=example5_forcing,
        alpha=alpha, u0=1.0, v0=1.0, T=T, h=h,
    )
    return Scenario(
        name="ex5",
        description="time-varying coefficients forced so that u = exp(t) exactly",
        grid=prob.grid, alpha=alpha, problem=prob,
        exact_u=math.exp,
        exact_udot=math.exp,
        exact_uddot=math.exp,
    )


_DEFAULT_T = {
    "ex1i": 1.0, "ex1ii": 1.0,
    "ex2i": 5.0, "ex2ii": 5.0,
    "ex2iii_a": 5.0, "ex2iii_b": 5.0, "ex2iii_c": 5.0, "ex2iii_d": 5.0, "ex2iii_e": 5.0,
    "ex3i": 5.0, "ex3ii": 5.0, "ex3iii": 5.0,
    "ex4": 1.0, "ex5": 1.0,
}

_BUILDERS = {
    "ex1i": lambda h, T: _ex1("i", h, T),
    "ex1ii": lambda h, T: _ex1("ii", h, T),
    "ex2i": _ex2i,
    "ex2ii": _ex2ii,
    "ex2iii_a": lambda h, T: _ex2iii("a", h, T),
    "ex2iii_b": lambda h, T: _ex2iii("b", h, T),
    "ex2iii_c": lambda h, T: _ex2iii("c", h, T),
    "ex2iii_d": lambda h, T: _ex2iii("d", h, T),
    "ex2iii_e": lambda h, T: _ex2iii("e", h, T),
    "ex3i": _ex3i,
    "ex3ii": _ex3ii,
    "ex3iii": _ex3iii,
    "ex4": _ex4,
    "ex5": _ex5,
}

SCENARIO_NAMES = tuple(_BUILDERS)


def scenario(name: str, h: float, T: float | None = None) -> Scenario:
    """Instantiate a named benchmark scenario on a grid with step h."""
    if name not in _BUILDERS:
        known = ", ".join(SCENARIO_NAMES)
        raise KeyError(f"unknown scenario {name!r}; known names: {known}")
    horizon = _DEFAULT_T[name] if T is None else float(T)
    return _BUILDERS[name](float(h), horizon)


def list_scenarios() -> list[tuple[str, str]]:
    """Names and one-line descriptions, in registry order."""
    out = []
    for name in SCENARIO_NAMES:
        scn = _BUILDERS[name](1e-2, _DEFAULT_T[name])
        out.append((name, scn.description))
    return out

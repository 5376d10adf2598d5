"""Problem definitions and result containers shared by both solvers.

The governing equation is the single-degree-of-freedom oscillator

    a1(t) u'' + a2(t) D^alpha(t,u,u') u + a3(t) u + f_nl(u, u') = p(t)

with initial displacement u0 and velocity v0, where D^alpha is the
variable-order history derivative from vo_core. The problem evaluates its
data at the grid nodes once, into two read-only cached properties that the
steppers, the stability sweep and discrete_residuals share: node_table,
the rows (a1, a2, a3, p) and their one check, and time_only_orders. So
the user's functions must be pure, and one that raises does so before the
first step. discrete_residuals re-verifies a finished trace, with its
history sums from vo_core.history_sums rather than from weight rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateProblemError, OrderDomainError
from .vo_core import Grid, _check_order, history_sums

__all__ = [
    "AlphaKind",
    "AlphaSpec",
    "OscillatorProblem",
    "StepState",
    "SolutionTrace",
    "as_coefficient",
    "discrete_residuals",
]


class AlphaKind(Enum):
    TIME_ONLY = "time-only"
    STATE_DEPENDENT = "state-dependent"


@dataclass(frozen=True)
class AlphaSpec:
    """Order function alpha(t, u, udot) with a declared dependence kind.

    TIME_ONLY promises that eval ignores the state arguments; the explicit
    solver relies on this to build the weights of its steps up front,
    while STATE_DEPENDENT orders force the per-step root solve.
    """

    kind: AlphaKind
    eval: Callable[[float, float, float], float]

    @classmethod
    def of_time(cls, fn: Callable[[float], float]) -> "AlphaSpec":
        return cls(AlphaKind.TIME_ONLY, lambda t, u, udot: fn(t))

    @classmethod
    def of_state(cls, fn: Callable[[float, float, float], float]) -> "AlphaSpec":
        return cls(AlphaKind.STATE_DEPENDENT, fn)

    @classmethod
    def constant(cls, value: float) -> "AlphaSpec":
        v = float(value)
        return cls(AlphaKind.TIME_ONLY, lambda t, u, udot: v)

    def value_at(
        self,
        t: float,
        u: float,
        udot: float,
        node: int | None = None,
        trial_q: float | None = None,
    ) -> float:
        """Evaluate and range-check the order; (0, 1) is enforced strictly."""
        return _check_order(float(self.eval(t, u, udot)), node, trial_q)


def as_coefficient(c) -> Callable[[float], float]:
    """Promote a number to a constant function of time; pass callables through."""
    if callable(c):
        return c
    value = float(c)
    return lambda t: value


@dataclass(frozen=True)
class OscillatorProblem:
    """One fractional oscillator on its grid.

    Coefficient fields are functions of time; use as_coefficient (or the
    build classmethod) to wrap plain numbers. f_nl, when present, is a
    restoring term depending on displacement and velocity only. Each must
    be pure: the problem keeps its values at the nodes (node_table).
    """

    a1: Callable[[float], float]
    a2: Callable[[float], float]
    a3: Callable[[float], float]
    p: Callable[[float], float]
    alpha: AlphaSpec
    u0: float
    v0: float
    grid: Grid
    f_nl: Optional[Callable[[float, float], float]] = None

    @classmethod
    def build(cls, a1, a2, a3, p, alpha, u0, v0, T, h, f_nl=None) -> "OscillatorProblem":
        return cls(
            a1=as_coefficient(a1),
            a2=as_coefficient(a2),
            a3=as_coefficient(a3),
            p=as_coefficient(p),
            alpha=alpha,
            u0=float(u0),
            v0=float(v0),
            grid=Grid.make(T, h),
            f_nl=f_nl,
        )

    def nonlinear_term(self, u: float, udot: float) -> float:
        return 0.0 if self.f_nl is None else float(self.f_nl(u, udot))

    @cached_property
    def node_table(self) -> np.ndarray:
        """a1, a2, a3 and p at every node t_n = n h, as the rows of a read-only (N+1, 4) array.

        Fails at the first node, node 0 included, whose a1 is not finite,
        zero, or of the other sign to a1(0), or whose a2 or a3 is not finite:
        a stepper run through a zero of a1 goes on while its solution grows
        without bound, and an infinite a2 or a3 meets a zero in a step's
        sums, at node 0 in discrete_residuals'. The error's step is that
        node, or None at node 0.
        """
        table = _evaluate((self.a1, self.a2, self.a3, self.p), self.grid.times())
        a1 = table[:, 0]
        ok = np.isfinite(table[:, :3])
        ok[:, 0] &= (a1 != 0.0) & ((a1 > 0.0) == (a1[0] > 0.0))
        if not ok.all():
            n, j = np.argwhere(~ok)[0].tolist()  # the first bad node and column
            name = ("leading coefficient a1", "coefficient a2", "coefficient a3")[j]
            sign = "" if j else f", nonzero and of the sign of a1(0) = {float(a1[0])!r}"
            raise DegenerateProblemError(
                f"{name} = {float(table[n, j])!r} at step {n} (t = {n * self.grid.h!r}) "
                f"is not finite{sign}",
                step=n or None,
            )
        return table

    @cached_property
    def time_only_orders(self) -> np.ndarray:
        """Order values at every node, evaluated without state; read-only.

        The state arguments are passed as nan to hold the time-only promise to
        account: an order function that actually reads them produces nan or
        raises, and either is reported as an order-domain failure at its
        node. The node-0 value is recorded but not range-checked; no weight
        uses it.
        """
        def order(t):
            try:
                return float(self.alpha.eval(t, math.nan, math.nan))
            except Exception as exc:
                raise OrderDomainError(
                    f"order function raised at node {round(t / self.grid.h)} when evaluated "
                    f"without state; a time-only order must ignore u and udot ({exc!r})",
                    node=round(t / self.grid.h),
                ) from exc

        out = _evaluate((order,), self.grid.times())[:, 0]
        _check_order(out[1:], first_node=1)
        return out


def _evaluate(fns, t: np.ndarray) -> np.ndarray:
    """fns at the times t, each called once per time, as the columns of a read-only array."""
    out = np.empty((t.size, len(fns)))
    for j, fn in enumerate(fns):
        # Python floats, one at a time: a list of them all would cost 32 B a node
        out[:, j] = np.fromiter(map(fn, map(float, t)), float, t.size)
    out.flags.writeable = False
    return out


class StepState(NamedTuple):
    """Unknowns of one node: acceleration, velocity, displacement."""

    q: float
    udot: float
    u: float


@dataclass
class SolutionTrace:
    """Node-wise results of a solve.

    Arrays t, u, udot, uddot, alpha_used have length N+1; udot_mean has
    length N (entry r-1 is the mean velocity of step r); the steppers fill
    them as they run and fold each step mean into their history. alpha_used[0] is
    recorded for reference only: the history term vanishes at t = 0, so no
    weight is ever built from it and it is not range-checked.
    iterations holds the per-step root-solve evaluation counts of the
    implicit solver and is None for the explicit one.
    """

    t: np.ndarray
    u: np.ndarray
    udot: np.ndarray
    uddot: np.ndarray
    alpha_used: np.ndarray
    udot_mean: np.ndarray
    iterations: Optional[np.ndarray] = None

    @property
    def N(self) -> int:
        return self.t.size - 1


def discrete_residuals(problem: OscillatorProblem, trace: SolutionTrace) -> np.ndarray:
    """Re-verify the discrete equation at every node from the stored trace.

    The history sums come from vo_core.history_sums, applied to the trace's
    mean velocities and recorded order values, independently of whichever
    solver produced the trace and of the history it kept. An order outside
    (0, 1) raises OrderDomainError naming its node; a non-finite step mean
    makes the residuals nan from its node on. Each residual is scaled by
    max(1, |largest term|), so the result is a relative measure wherever
    the equation has size. a1, a2, a3 and p come from node_table, its check
    included. A trace of another step count raises IndexError, and one
    whose times are not the grid's raises ValueError naming the first node
    off it: the history sums are built on the grid's h.
    """
    grid = problem.grid
    if trace.N != grid.N:
        raise IndexError(f"trace has {trace.N} steps but the problem grid has {grid.N}")
    off = np.flatnonzero(trace.t != grid.times())
    if off.size:
        n = int(off[0])
        t_n = float(trace.t[n])
        raise ValueError(f"trace time {t_n!r} at node {n} is not the grid's {n * grid.h!r}")
    history = history_sums(trace.udot_mean, trace.alpha_used[1:], grid.h)
    a1, a2, a3, load = problem.node_table.T
    inertia = a1 * trace.uddot
    damping = a2 * np.append(0.0, history)  # no history at node 0; a non-finite a2 still shows
    restoring = a3 * trace.u
    extra = 0.0
    if problem.f_nl is not None:
        extra = np.fromiter(
            (problem.nonlinear_term(float(u), float(v)) for u, v in zip(trace.u, trace.udot)),
            float,
            grid.N + 1,
        )
    res = inertia + damping
    res += restoring
    res += extra
    res -= load
    # max(1, |each term|); fmax skips nan the way the builtin max does
    scale = np.abs(inertia, out=inertia)
    for term in (damping, restoring, extra, load):
        np.fmax(scale, np.abs(term), out=scale)
    np.fmax(scale, 1.0, out=scale)
    res /= scale
    return res

"""Spectral-radius stability check of the step recursion.

Each step maps the state (q, udot, u) forward through x_n = A_n x_{n-1} + b_n
with A_n = L_n^{-1} R_n, where L_n x_n = R_n x_{n-1} + (g_n, 0, 0) is the
governing equation at t_n coupled to the average-acceleration update
relations (the explicit solver eliminates the last two rows and solves the
first for q_n alone). The scheme is (conditionally) stable when no
amplification matrix magnifies the state, i.e. rho(A_n) <= 1 for every step.

The sweep runs over blocks of steps at a time: one stack of L and R
matrices per block, inverted by cofactors, and eigenvalues of every 3x3
amplification matrix from the closed-form cubic solution; nothing iterative
is involved. The block size bounds the sweep's memory on long grids. a1,
a2 and a3 come from the problem's read-only node_table and the orders of
a time-only problem from its time_only_orders, both evaluated once per
problem and shared with the steppers, so the sweep fails with
DegenerateProblemError at the same step where they do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import StepFailureError
from .explicit_solver import _COND_LIMIT
from .model import OscillatorProblem, SolutionTrace
from .vo_core import coefficient

__all__ = [
    "StabilityReport",
    "spectral_radius",
    "eigenvalues3",
    "inv3",
    "amplification_from_matrices",
    "stability_report",
    "stability_report_along_trace",
]

# steps per block of the sweep
_BLOCK = 2048


def eigenvalues3(a_mat) -> np.ndarray:
    """Eigenvalues of a real 3x3 matrix, or of each matrix of a stack.

    The characteristic cubic of the traceless part A - (tr A / 3) I,
    y^3 + p y + q with p the sum of its principal 2x2 minors and q minus
    its determinant, is solved in closed form: the trig branch for three
    real roots, the Cardano branch otherwise. The result has shape
    a_mat.shape[:-2] + (3,).
    """
    a = np.asarray(a_mat, dtype=float)
    if a.ndim < 2 or a.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")

    # depressed cubic y^3 + p y + q of the traceless part B = A - shift I,
    # lambda = y + shift; p and q are taken from B itself, since forming
    # them from the invariants of A cancels away most digits near a
    # triple root
    shift = (a[..., 0, 0] + a[..., 1, 1] + a[..., 2, 2]) / 3.0
    b = a - shift[..., None, None] * np.eye(3)
    b00, b01, b02 = b[..., 0, 0], b[..., 0, 1], b[..., 0, 2]
    b10, b11, b12 = b[..., 1, 0], b[..., 1, 1], b[..., 1, 2]
    b20, b21, b22 = b[..., 2, 0], b[..., 2, 1], b[..., 2, 2]
    minor0 = b11 * b22 - b12 * b21
    p = minor0 + b00 * b22 - b02 * b20 + b00 * b11 - b01 * b10
    q = -(
        b00 * minor0
        - b01 * (b10 * b22 - b12 * b20)
        + b02 * (b10 * b21 - b11 * b20)
    )
    disc = 0.25 * q * q + p ** 3 / 27.0
    cardano = disc > 0.0

    # Cardano branch: one real root and a complex pair
    root = np.sqrt(np.where(cardano, disc, 0.0))
    w = np.cbrt(-0.5 * q + root)
    v = np.cbrt(-0.5 * q - root)
    y_real = w + v
    im = 0.5 * math.sqrt(3.0) * (w - v)
    pair = -0.5 * y_real + shift

    # disc <= 0 implies p <= 0; three real roots via the trig form, all
    # equal to the shift when m2 vanishes
    m2 = 2.0 * np.sqrt(np.maximum(-p / 3.0, 0.0))
    triple = m2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.clip(3.0 * q / np.where(triple, 1.0, p * m2), -1.0, 1.0)
    phi = np.arccos(arg) / 3.0
    trig = m2[..., None] * np.cos(phi[..., None] - np.arange(3) * (2.0 * math.pi / 3.0))
    trig = np.where(triple[..., None], 0.0, trig) + shift[..., None]

    lam = np.empty(shift.shape + (3,), dtype=complex)
    lam.real = np.where(
        cardano[..., None], np.stack([y_real + shift, pair, pair], axis=-1), trig
    )
    lam.imag = np.where(
        cardano[..., None], np.stack([np.zeros_like(im), im, -im], axis=-1), 0.0
    )
    return lam


def spectral_radius(a_mat):
    """Largest eigenvalue modulus of a real 3x3 matrix, or of each matrix of a stack."""
    rho = np.max(np.abs(eigenvalues3(a_mat)), axis=-1)
    return float(rho) if rho.ndim == 0 else rho


def _norm_inf(a: np.ndarray) -> np.ndarray:
    """Infinity norm of a 3x3 matrix, or of each matrix of a stack: its largest row sum.

    Written out over the three columns and rows, which gives np.sum's and
    np.max's reductions over the size-3 axes bit for bit (nan and inf
    included) in a tenth of their time on a stack of 2048.
    """
    mag = np.abs(a)
    rows = mag[..., 0] + mag[..., 1] + mag[..., 2]
    return np.maximum(np.maximum(rows[..., 0], rows[..., 1]), rows[..., 2])


def inv3(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of a 3x3 matrix, or of each matrix of a stack, by cofactors.

    Returns the inverse and its infinity-norm condition estimate
    ||a|| ||a^-1||. A singular matrix yields non-finite inverse entries and
    an infinite estimate rather than raising, so callers can attach their
    own step context to the failure.
    """
    a = np.asarray(matrix, dtype=float)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = np.moveaxis(a, (-2, -1), (0, 1))
    # the columns of the inverse are the cross products 1 x 2, 2 x 0 and 0 x 1 of rows over det
    adj = np.stack([a11 * a22 - a12 * a21, a21 * a02 - a22 * a01, a01 * a12 - a02 * a11,
                    a12 * a20 - a10 * a22, a22 * a00 - a20 * a02, a02 * a10 - a00 * a12,
                    a10 * a21 - a11 * a20, a20 * a01 - a21 * a00, a00 * a11 - a01 * a10],
                   axis=-1).reshape(a.shape)
    det = np.sum(a[..., 0, :] * adj[..., 0], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = adj / det[..., None, None]
    finite = np.isfinite(inv).all(axis=(-2, -1))
    return inv, np.where(finite, _norm_inf(a) * _norm_inf(inv), math.inf)


def amplification_from_matrices(left, right, step: int | None = None) -> np.ndarray:
    """A = L^{-1} R, failing loudly on a singular or ill-conditioned L.

    Works on one pair of matrices or on stacks of them. step numbers the
    first pair; a failure reports the step of the first bad matrix.
    """
    left_inv, cond = inv3(left)
    bad = cond > _COND_LIMIT  # infinite for a non-finite inverse
    if bad.any():
        first = int(np.argmax(bad))
        raise StepFailureError(
            "left step matrix singular or ill-conditioned "
            f"(estimate {float(np.ravel(cond)[first]):.3e})",
            step=None if step is None else step + first,
        )
    return left_inv @ np.asarray(right, dtype=float)


def _step_stacks(a1, a2, a3, h: float, c_nn, c_nm1) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of step matrices L and R from per-step coefficient arrays.

    c_nn is the weight of the current step, c_nm1 the one before it (zero
    for the first step). Rows two and three encode the average-acceleration
    update relations and depend only on h.
    """
    k = len(a1)
    left = np.zeros((k, 3, 3))
    right = np.zeros((k, 3, 3))
    left[:, 0, 0] = a1
    left[:, 0, 1] = 0.5 * a2 * c_nn
    left[:, 0, 2] = a3
    left[:, 1] = (0.25 * h * h, -h, 1.0)
    left[:, 2] = (-0.5 * h, 1.0, 0.0)
    right[:, 0, 1] = -0.5 * a2 * (c_nm1 + c_nn)
    right[:, 1] = (-0.25 * h * h, 0.0, 1.0)
    right[:, 2] = (0.5 * h, 1.0, 0.0)
    return left, right


@dataclass(frozen=True)
class StabilityReport:
    """Per-step spectral radii and the verdict rho(A_n) <= 1 + tol at every step.

    tol is a fixed constant, not a setting. trace_conditional marks reports
    built along a solved trajectory, where the order values (and hence the
    verdict) hold for that trajectory only.
    """

    tol: ClassVar[float] = 1e-12

    rho: np.ndarray
    trace_conditional: bool = False

    @property
    def max_rho(self) -> float:
        return float(np.max(self.rho, initial=0.0))

    @property
    def satisfied(self) -> bool:
        return self.max_rho <= 1.0 + self.tol


def _rho_sweep(problem: OscillatorProblem, alphas: np.ndarray) -> np.ndarray:
    """Spectral radius of every step for the given per-node order values.

    Only the last two weights of each row enter the step matrices, and they
    depend on the order alone (c_n^n = c_1^1 and c_{n-1}^n = c_1^2 at the
    same order), so they come from one array evaluation per block instead
    of full O(n) rows; the sweep is O(N) overall.
    """
    h = problem.grid.h
    N = problem.grid.N
    table = problem.node_table
    rho = np.empty(N)
    for start in range(1, N + 1, _BLOCK):
        steps = np.arange(start, min(start + _BLOCK, N + 1))
        orders = np.asarray(alphas[steps], dtype=float)
        c_nn = coefficient(1, 1, h, orders)
        # c_1^2 = c_1^1 (2^(1-alpha) - 1): one Gamma per step, and no
        # cancellation as alpha -> 1
        c_nm1 = c_nn * np.expm1((1.0 - orders) * math.log(2.0))
        if start == 1:
            c_nm1[0] = 0.0
        left, right = _step_stacks(*table[steps, :3].T, h, c_nn, c_nm1)
        rho[steps - 1] = spectral_radius(amplification_from_matrices(left, right, step=start))
    return rho


def stability_report(problem: OscillatorProblem) -> StabilityReport:
    """Check rho(A_n) <= 1 + tol over the whole grid of a time-only problem."""
    return StabilityReport(_rho_sweep(problem, problem.time_only_orders))


def stability_report_along_trace(
    problem: OscillatorProblem, trace: SolutionTrace
) -> StabilityReport:
    """Stability along a solved trajectory's recorded order values.

    This is the only meaningful check for state-dependent orders; its
    verdict is conditional on the trajectory the trace came from.
    """
    if trace.N != problem.grid.N:
        raise IndexError(
            f"trace has {trace.N} steps but the problem grid has {problem.grid.N}"
        )
    alphas = np.asarray(trace.alpha_used, dtype=float)
    return StabilityReport(_rho_sweep(problem, alphas), trace_conditional=True)

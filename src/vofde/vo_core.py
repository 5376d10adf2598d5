"""Discrete variable-order derivative of Caputo type on a uniform grid.

The derivative of order alpha(t) in (0, 1) of u is the weighted history
integral of the velocity,

    D^alpha u (t) = 1/Gamma(1 - alpha(t)) * int_0^t (t - x)^(-alpha(t)) u'(x) dx.

On the grid t_n = n h the integral over each past step [(r-1)h, rh] is
approximated by the mean velocity on that step times the exact integral of
the kernel, which gives the closed-form weights below (coefficient,
coefficient_row), with Gamma taken from math. The steppers read the
history online from an ExpSumHistory, an order-free sum of exponentials
that one step mean at a time updates in O(L) work, with L about 200 modes;
they take only the two latest weights of a node in closed form, as
two-entry rows for a block of known orders or, one trial order at a time,
in scalar math (near_weights), with the far sum of that order from one
exp and one dot (ExpSumHistory.far_sum). history_sums gives every node's
history sum at once by FFT convolution, for re-verification and
vo_derivative_series, with the kernel interpolated in the order over the
range of the orders given. The module needs numpy and
math only; the quadrature oracle that cross-checks the weights lives with
the tests.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from math import gamma
from typing import Callable

import numpy as np

from .errors import OrderDomainError

__all__ = [
    "Grid",
    "coefficient",
    "coefficient_row",
    "near_weights",
    "ExpSumHistory",
    "history_sums",
    "vo_derivative_series",
]


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_n = n h for n = 0 .. N."""

    h: float
    N: int
    T: float

    @classmethod
    def make(cls, T: float, h: float) -> "Grid":
        """Grid covering [0, T] with step h and N = ceiling(T / h) steps.

        The ratio is nudged by one part in 1e12 before the ceiling so that
        horizons which are exact multiples of h up to float noise do not
        gain a spurious extra step. A grid whose N + 1 is not finite, or
        whose nodes at _NODE_BYTES each would exceed _memory_limit(),
        raises ValueError naming N before anything is allocated.
        """
        h, T = _check_positive(h), _check_positive(T, "horizon")
        ratio = (T / h) * (1.0 - 1e-12)
        N = max(1, math.ceil(ratio)) if math.isfinite(ratio) else math.inf
        if N == math.inf or _NODE_BYTES * (N + 1) > _memory_limit():
            raise ValueError(
                f"T / h = {T!r} / {h!r} gives N = {N:.4g} steps, too many for "
                f"a solve at {_NODE_BYTES} bytes a node to fit in memory (physical "
                f"memory or the cgroup limit, whichever is lower)"
            )
        return cls(h=h, N=N, T=T)

    def times(self) -> np.ndarray:
        return np.arange(self.N + 1, dtype=float) * self.h


# peak bytes per grid node of one CLI request: the peak-RSS slope between
# N = 2e5 and 8e5 was 152 B for a trace with stability check (explicit or
# implicit), with the problem's node_table and orders alive, 144 B for an
# ex4 and 162 B for an ex1 convergence study; rounded up
_NODE_BYTES = 192


@functools.cache
def _memory_limit(cgroup_max: str = "/sys/fs/cgroup/memory.max") -> float:
    """Bytes of physical memory, or the cgroup v2 limit where that is lower.

    The limit counts where the file exists and holds a number; its "max"
    means none. Unbounded where the system gives neither. Read on the first
    call, not on import.
    """
    limit = math.inf
    if hasattr(os, "sysconf"):
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(cgroup_max) as f:
            text = f.read().strip()
    except OSError:
        return limit
    return min(limit, int(text)) if text.isdigit() else limit


def _check_positive(x, what: str = "step size") -> float:
    """x as a float, once it is positive and finite; what names it in the error."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0.0:
        raise ValueError(f"{what} must be positive and finite, got {x!r}")
    return float(x)


def _check_order(alpha, first_node: int | None = None, trial_q: float | None = None):
    """alpha as a float, or the array itself, once every order lies in (0, 1).

    The one range check on orders. The first order outside raises
    OrderDomainError; given first_node, the error names the node of that
    order, entry i being node first_node + i, and carries trial_q, the
    trial acceleration of a root solve that produced the order.
    """
    if isinstance(alpha, np.ndarray):
        outside = np.flatnonzero(~((alpha > 0.0) & (alpha < 1.0)))  # also catches nan
        if not outside.size:
            return alpha
        i, bad = int(outside[0]), float(alpha.flat[outside[0]])
    else:
        i, bad = 0, float(alpha)
        if 0.0 < bad < 1.0:  # also rejects nan
            return bad
    node = None if first_node is None else first_node + i
    where = "" if node is None else f" at node {node}"
    message = f"fractional order must lie in (0, 1), got {bad!r}{where}"
    raise OrderDomainError(message, node=node, trial_q=trial_q)


def _row_factor(h: float, alpha):
    # As alpha -> 1 the 1/Gamma(1-alpha) prefactor vanishes at exactly the
    # rate 1/(alpha-1) blows up; keeping them in one product (it equals
    # -h^(1-alpha)/Gamma(2-alpha)) makes the factor O(1) right up to the
    # boundary, so no series fallback is needed. alpha may be an array.
    if isinstance(alpha, np.ndarray):
        gam = np.fromiter(map(gamma, 1.0 - alpha), float, alpha.size)
    else:
        gam = gamma(1.0 - alpha)
    return h ** (1.0 - alpha) / (gam * (alpha - 1.0))


def coefficient(n: int, r: int, h: float, alpha):
    """Quadrature weight c_r^n for history subinterval [(r-1)h, rh].

    Closed form of the kernel integral over the subinterval:

        c_r^n = h^(1-alpha) / (Gamma(1-alpha) (alpha-1))
                * ((n-r)^(1-alpha) - (n-r+1)^(1-alpha)),

    valid for 0 < alpha < 1, 1 <= r <= n. Weights are positive and grow
    toward the current time because the kernel concentrates there. alpha
    may be an array of orders; the result is then the array of weights,
    each equal to the scalar call at that order.
    """
    a = _check_order(np.asarray(alpha, dtype=float))
    if not isinstance(n, int) or n < 1:
        raise IndexError(f"row index n must be an integer >= 1, got {n!r}")
    if not isinstance(r, int) or not 1 <= r <= n:
        raise IndexError(f"subinterval index r must satisfy 1 <= r <= n={n}, got {r!r}")
    h = _check_positive(h)
    # a scalar order goes through the same 1-d array loops as an array one,
    # so both forms give identical weights
    orders = a.reshape(-1)
    # the logs of the one k = n - r + 1 alone, so the weight costs O(1)
    logs, log1ms = _log_table(np.array([n - r + 1.0]))
    c = _row_factor(h, orders) * _increments(logs, log1ms, orders)
    return float(c[0]) if a.ndim == 0 else c.reshape(a.shape)


def _log_table(k: np.ndarray) -> np.ndarray:
    """log(k) and log1p(-1/k) for the k given, one row each."""
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf is meant
        return np.array([np.log(k), np.log1p(-1.0 / k)])


# log(k) and log1p(-1/k) for k = 1, 2, ..., shared by every weight row and
# history sum; grown geometrically on demand
_LOG_TABLE = _log_table(np.arange(1.0, 1025.0))


def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of log(k) and log1p(-1/k) for k = 1 .. n."""
    global _LOG_TABLE
    if _LOG_TABLE.shape[1] < n:
        _LOG_TABLE = _log_table(np.arange(1.0, max(n, 2 * _LOG_TABLE.shape[1]) + 1.0))
    return _LOG_TABLE[0, :n], _LOG_TABLE[1, :n]


def _increments(logs, log1ms, a, out=None, work=None) -> np.ndarray:
    """-d_k(a), d_k = k^(1-a) - (k-1)^(1-a), at the k of the table entries given.

    From logs = log k and log1ms = log1p(-1/k), -d_k is taken as
    k^(1-a) expm1((1-a) log1p(-1/k)): exact to relative round-off where the
    difference of two powers of size ~k would cancel, and exactly -1 at
    k = 1. The sign is the weights' own, c_r^n = f(a) (-d_k) with f < 0
    from _row_factor. out and work, when given, take the result and scratch.
    """
    d = np.multiply(logs, 1.0 - a, out=out)
    np.exp(d, out=d)
    w = np.multiply(log1ms, 1.0 - a, out=work)
    d *= np.expm1(w, out=w)
    return d


def coefficient_row(n: int, h: float, alpha) -> np.ndarray:
    """All weights of the row for node n, entry r-1 holding c_r^n.

    alpha may be a 1-d array of orders; the result then holds one row per
    order, each equal to the row of its order alone, bit for bit.
    """
    a = _check_order(alpha)
    if not isinstance(n, int) or n < 1:
        raise IndexError(f"row index n must be an integer >= 1, got {n!r}")
    h = _check_positive(h)
    # entries on the first axis and orders on the second; each order's
    # factor by scalar math, as for that order alone
    logs, log1ms = _tables(n)
    if isinstance(a, np.ndarray):
        logs, log1ms = logs[:, None], log1ms[:, None]
        factor = np.array([_row_factor(h, x) for x in a.tolist()])
    else:
        factor = _row_factor(h, a)
    return (_increments(logs, log1ms, a)[::-1] * factor).T


_LOG_TWO = math.log(2.0)


def near_weights(h: float, alpha: float) -> tuple[float, float]:
    """(c_{n-1}, c_n) of any row n >= 2 at one order, in scalar math.

    c_n = -f(alpha) d_1 = -f(alpha) and c_{n-1} = -f(alpha) d_2 =
    -f(alpha) expm1((1-alpha) log 2), with f from _row_factor: the last
    two entries of coefficient_row(2, h, alpha) to relative round-off.
    alpha must already lie in (0, 1).
    """
    f = _row_factor(h, alpha)
    return -f * math.expm1((1.0 - alpha) * _LOG_TWO), -f

# Trapezoid step in y and target accuracy of the steppers' sum of exponentials
_SOE_STEP = 0.25
_SOE_EPS = 1e-16


class ExpSumHistory:
    """The known part of the history sums, kept online as a sum of exponentials.

    For x > 0, x^(-alpha) = Gamma(alpha)^(-1) int e^(alpha y) exp(-e^y x) dy;
    integrating over [k-1, k] and applying the trapezoid rule with step
    Delta = 0.25 at y_l = log(eps/N) + l Delta, up to log(log(1/eps)) + 1,
    gives for 3 <= k <= N

        d_k(alpha) = sum_l w_l(alpha) e^(-s_l (k-1)) + w_c(alpha),
        w_l = (1-alpha) Delta e^(alpha y_l) (1 - e^(-s_l)) / (s_l Gamma(alpha)),

    with s_l = e^(y_l) the same for every order (Beylkin & Monzon, Appl.
    Comput. Harmon. Anal. 28 (2010) 131-149; Jiang, Zhang, Zhang & Zhang,
    Commun. Comput. Phys. 21 (2017) 650-678). The nodes below y_0 have
    s (k-1) <= eps, so exp(-s (k-1)) = 1 there; their geometric sum is the
    constant mode w_c = (1-alpha) Delta e^(alpha (y_0 - Delta)) /
    (-expm1(-alpha Delta) Gamma(alpha)). L is about 190 to 210 modes for
    N <= 1e5, and d_k comes out to relative round-off for any order in
    (0, 1): the weights are positive, so nothing cancels.

    state holds G_l = sum_{r<=size} e^(-s_l (size-r)) m_r for every mode,
    the constant mode last (its decay is 1, so it is the plain sum of the
    means). push folds in one step mean in O(L). With size = n - 2 the
    known part of node n's history sum, sum_{r<=n-2} c_r^n m_r, is
    far_sum(h, alpha_n), or the row of weights(h, orders) at alpha_n dotted
    with state: the e^(-2 s_l) that takes G_l from node n-2 to node n is
    folded into the weights, and so is
    -f(alpha) (1-alpha) / Gamma(alpha) = h^(1-alpha) sin(pi alpha) / pi,
    so the weights need no Gamma.
    """

    def __init__(self, n_steps: int):
        y0 = math.log(_SOE_EPS / max(n_steps, 1))
        top = math.log(math.log(1.0 / _SOE_EPS)) + 1.0
        # the nodes y_0 .. top, then the constant mode at its first node
        y = y0 + _SOE_STEP * np.arange(math.floor((top - y0) / _SOE_STEP) + 2)
        y[-1] = y0 - _SOE_STEP
        s = np.exp(y[:-1])
        self.y = y
        self.decay = np.append(np.exp(-s), 1.0)
        self.factor = np.append(_SOE_STEP * -np.expm1(-s) / s * np.exp(-2.0 * s), _SOE_STEP)
        self.state = np.zeros(y.size)
        self.size = 0
        # state * factor for far_sum, and the size it was formed at
        self._scaled = np.zeros(y.size)
        self._scaled_size = 0

    def push(self, mean: float) -> None:
        """Fold the next step mean into the state."""
        state = self.state
        state *= self.decay
        state += mean
        self.size += 1

    def weights(self, h: float, orders: np.ndarray) -> np.ndarray:
        """Far weights, one row per order of a 1-d array.

        Dotted with the state, the row at alpha_n gives the known history
        sum of node n without its two near steps. The orders take one exp
        for all of them, so a stepper that knows its orders in advance
        builds their weights in blocks; each row equals the row of its order
        alone, bit for bit.
        """
        w = np.multiply.outer(orders, self.y)
        np.exp(w, out=w)
        w *= self.factor
        scale, geometric = np.array([_far_factors(h, a) for a in orders.tolist()]).T
        w[:, -1] /= geometric
        w *= scale[:, None]
        return w

    def far_sum(self, h: float, alpha: float) -> float:
        """The known history sum at one order: weights(h, [alpha])[0] @ state.

        Taken as scale (e^(alpha y) @ S) with the constant mode's entry of
        e^(alpha y) divided by its geometric factor, where S is the state
        times the order-free factors, formed once per pushed mean. So a new
        order costs one exp over the modes and one dot, and no weight row.
        """
        if self._scaled_size != self.size:
            self._scaled = self.state * self.factor
            self._scaled_size = self.size
        e = self.y * alpha
        np.exp(e, out=e)
        scale, geometric = _far_factors(h, alpha)
        e[-1] /= geometric
        return scale * float(e @ self._scaled)


def _far_factors(h: float, a: float) -> tuple[float, float]:
    # h^(1-a) sin(pi a) / pi, with sin(pi a) taken as sin(pi (1-a)) above
    # 1/2, where it would lose digits as a -> 1, and the denominator
    # 1 - e^(-a Delta) of the constant mode's geometric sum
    return (
        h ** (1.0 - a) * math.sin(math.pi * min(a, 1.0 - a)) / math.pi,
        -math.expm1(-_SOE_STEP * a),
    )


def _fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= n."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = p35
            while q < n:
                q *= 2
            best = min(best, q)
            p35 *= 3
        p5 *= 5
    return best


def _interpolation_points(lo: float, hi: float, N: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev points of the first kind on [lo, hi], with their barycentric weights.

    They interpolate the kernel t_k^(1-alpha) - t_{k-1}^(1-alpha), t_k = k h,
    for k = 1 .. N and orders in [lo, hi]. Its m-th derivative in alpha is
    at most (1 + m/L) L^m times int_{t_{k-1}}^{t_k} x^(-alpha) dx, with
    L = max(|log h|, |log N h|, 1), and m points interpolate to 2 (w/4)^m / m!
    times the largest m-th derivative on [lo, hi], w = hi - lo. So m is the
    least count with 2 (L w/4)^m / m! (1 + m/L) <= 2^-53, and gives the
    kernel to round-off; one point, lo itself, for w = 0.
    """
    L = max(abs(math.log(h)), abs(math.log(N * h)), 1.0)
    m, term = 1, L * (hi - lo) / 4.0
    while 2.0 * term * (1.0 + m / L) > 2.0 ** -53:
        m += 1
        term *= L * (hi - lo) / (4.0 * m)
    angles = (2.0 * np.arange(m) + 1.0) * np.pi / (2.0 * m)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles)
    return nodes, np.where(np.arange(m) % 2 == 0, 1.0, -1.0) * np.sin(angles)


def _interpolated_convolutions(
    means: np.ndarray, orders: np.ndarray, h: float, out: np.ndarray
) -> None:
    """Write -sum_{k=1..n} h^(1-alpha_n) d_k(alpha_n) m_{n-k+1} for n = 1 .. N into out.

    The kernel h^(1-alpha) d_k(alpha) = t_k^(1-alpha) - t_{k-1}^(1-alpha),
    t_k = k h, is interpolated in alpha at the _interpolation_points of
    [min alpha, max alpha]: per point alpha_j one causal convolution of the
    kernel with m by FFT, with the means' spectrum taken once; each node's
    sum is the barycentric combination of the convolutions at its own
    order. A single point (a constant order) gives its convolution as is.
    The transform buffers are reused from point to point, and out holds
    the running numerator.
    """
    from numpy import fft  # loaded here, so that solving alone does not import it

    N = means.size
    nodes, bary = _interpolation_points(float(orders.min()), float(orders.max()), N, h)
    nfft = _fft_length(2 * N - 1)
    buf = np.zeros(nfft)
    buf[:N] = means
    mspec = fft.rfft(buf)
    spec = np.empty_like(mspec)
    logs, log1ms = _tables(N)
    work = np.empty(N)

    def convolution(node: float) -> np.ndarray:
        # the kernel at one order into buf, then its product with the means'
        # spectrum back into buf; the first N entries are the sums
        _increments(logs, log1ms, node, buf[:N], work)  # -d, kept to round-off
        buf[:N] *= h ** (1.0 - node)
        buf[N:] = 0.0
        fft.rfft(buf, out=spec)
        np.multiply(spec, mspec, out=spec)
        fft.irfft(spec, nfft, out=buf)
        return buf[:N]

    if nodes.size == 1:
        out[:] = convolution(nodes[0])
        return
    out[:] = 0.0
    den = np.zeros(N)
    w = np.empty(N)
    exact = []
    for node, lam in zip(nodes.tolist(), bary.tolist()):
        conv = convolution(node)
        np.subtract(orders, node, out=w)
        hit = np.flatnonzero(w == 0.0)
        if hit.size:
            exact.append((hit, conv[hit]))
            w[hit] = np.inf
        np.divide(lam, w, out=w)
        den += w
        conv *= w
        out += conv
    for hit, value in exact:  # den holds the other points' terms there, which can cancel
        out[hit], den[hit] = value, 1.0
    out /= den


def history_sums(means, orders, h: float) -> np.ndarray:
    """The history sums S_n = sum_{r=1..n} c_r^n m_r for every n = 1 .. N.

    means holds the N step means m_1 .. m_N and orders the order at nodes
    1 .. N; S_n is entry n-1. With c_r^n = -f(alpha_n) d_k(alpha_n), where
    f(alpha) = h^(1-alpha) / (Gamma(1-alpha) (alpha-1)) and
    d_k(alpha) = k^(1-alpha) - (k-1)^(1-alpha) for k = n-r+1, the sum is a
    convolution whose kernel depends on the order at n. The h-scaled kernel
    h^(1-alpha) d_k(alpha) is entire in alpha, so it is interpolated at
    Chebyshev points of [min alpha_n, max alpha_n], as many as an a-priori
    bound asks for round-off (one for a constant order), and the sums are
    combined from one FFT convolution per point: O(K N log N) work for K
    points, against O(N^2) for the weight rows. Each node is then scaled
    by 1/(Gamma(1-alpha_n) (alpha_n - 1)). This is the offline case of Hairer,
    Lubich and Schlichte's fast convolution (SIAM J. Sci. Stat. Comput. 6
    (1985) 532-541). The result agrees with the direct row sums to
    round-off of the largest history sum, max_n sum_r |c_r^n m_r|.

    An order outside (0, 1) raises OrderDomainError naming its node. A
    non-finite step mean r makes S_n nan for n >= r only; the sums before
    it are built from the finite means alone.
    """
    m = np.asarray(means, dtype=float)
    a = np.asarray(orders, dtype=float)
    if m.ndim != 1 or a.shape != m.shape:
        raise IndexError(
            f"expected one order per step mean, got shapes {a.shape} and {m.shape}"
        )
    h = _check_positive(h)
    _check_order(a, first_node=1)
    finite = np.isfinite(m)
    known = m.size if finite.all() else int(np.argmin(finite))
    out = np.full(m.size, np.nan)
    if known:
        head = out[:known]
        _interpolated_convolutions(m[:known], a[:known], h, head)
        head *= _row_factor(1.0, a[:known])  # h^(1-alpha) is in the kernel
    return out


def vo_derivative_series(
    udot_samples, alpha_fn: Callable[[float], float], grid: Grid
) -> np.ndarray:
    """Derivative at every interior node from sampled endpoint velocities.

    Parameters
    ----------
    udot_samples : array of length N+1, velocity at each grid node.
    alpha_fn : order as a function of time, evaluated at t_n for each node.
    grid : the uniform grid.

    Returns the derivative at nodes 1 .. N (the node-0 value is identically
    zero for a continuous integrand and is not included), from the step
    means through history_sums.
    """
    u = np.asarray(udot_samples, dtype=float)
    if u.shape != (grid.N + 1,):
        raise IndexError(
            f"expected {grid.N + 1} velocity samples for this grid, got shape {u.shape}"
        )
    h = grid.h
    orders = np.fromiter((alpha_fn(n * h) for n in range(1, grid.N + 1)), float, grid.N)
    return history_sums(0.5 * (u[:-1] + u[1:]), orders, h)

"""Left-sided fractional integrals of sampled signals.

The evaluators here are discrete causal convolutions between weight
sequences and signal samples on a uniform grid anchored at t = 0, all
taken by one evaluator, ``_evaluate``:
``out[n] = sum_{j=0..n} w_j f_(n-j) + sum_k head[n, k] f_k``, the head
being the optional starting corrections on the first nodes.  The index
conventions are kept exactly as the underlying rules define them:

* convolution-quadrature rules (GL, FLMM) reference the sample at the
  output node itself;
* panel rules (NC0, and the fractional trapezoid, which is NC0 applied to
  the panel averages) sum over the ``n`` panels left of the output node:
  ``out[n] = sum_{k=0..n-1} f_k w_(n-1-k)`` with ``out[0] = 0``, which the
  evaluator takes as a one-sample shift of the input;
* the 2- and 3-point Newton-Cotes rules add starting columns on the first
  ``p`` nodes to a node-distance sequence:
  ``out[n] = sum_{j=0..n} v_j f_(n-j) + sum_{k<p} s_k(n) f_k``, ``out[0] = 0``.

The ``direct`` path (the default) sums only the causal triangle, as
products of signal blocks with Toeplitz blocks of the weight matrix
(one ``np.convolve`` call for short signals); each node is a plain binary64
sum of its own terms, bitwise causal and within ``N * eps * (|f| * |w|)_n``,
the same convolution taken of absolute values.  The ``fft`` path makes no
Fourier transform: it is a sum-of-exponentials engine, O(N (L + M)), that
takes samples two or more blocks back through M ~ 100 same-signed modes of
the weights' integral form, bitwise causal and within the same bound (GL,
NC0 and FLMM_TRAP weights, 0 < |alpha| < 1; otherwise ``direct``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import (
    AlignmentError,
    DomainError,
    GridMismatchError,
    LengthError,
)
from .special import gamma
from .weights import (
    WeightSequence,
    _causal_conv_direct,
    _causal_conv_modes,
    nc0_weights,
    starting_weight_table,
)

__all__ = [
    "UniformGrid",
    "SampledSignal",
    "frac_integral",
    "frac_trapezoid",
    "frac_newton_cotes",
    "short_memory_integral",
]

@dataclass(frozen=True)
class UniformGrid:
    """Uniform time mesh ``t_i = i * dt`` with the origin fixed at zero."""

    dt: float
    n: int

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise DomainError(f"grid step must be positive and finite, "
                              f"got {self.dt!r}")
        if self.n < 1:
            raise DomainError(f"grid needs >= 1 node, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def node(self, i: int) -> float:
        return i * self.dt

    @property
    def t_end(self) -> float:
        return (self.n - 1) * self.dt


@dataclass(frozen=True)
class SampledSignal:
    """Real samples of a function on a :class:`UniformGrid`."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) != self.grid.n:
            raise DomainError(
                f"signal needs {self.grid.n} samples, got shape "
                f"{values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("signal samples must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, f: Callable[[np.ndarray], np.ndarray],
               grid: UniformGrid) -> "SampledSignal":
        return cls(grid, np.asarray(f(grid.nodes), dtype=float))

    def replace_values(self, values: np.ndarray) -> "SampledSignal":
        return SampledSignal(self.grid, values)


def _check_compatibility(signal: SampledSignal,
                         weights: WeightSequence) -> None:
    dt = signal.grid.dt
    if not math.isclose(weights.dt, dt, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(
            f"weights were generated for dt={weights.dt!r}, signal grid "
            f"has dt={dt!r}"
        )
    if len(weights.values) < signal.grid.n:
        raise LengthError(
            f"{len(weights.values)} weights cannot integrate a signal of "
            f"{signal.grid.n} samples"
        )


def _evaluate(f: np.ndarray, weights: WeightSequence, method: str,
              head: np.ndarray | None = None) -> np.ndarray:
    """``out[n] = sum_j w_j f_(n-j) + sum_k head[n, k] f_k``.

    Panel rules take their convention here, once: the input moves one
    sample later (``f_(-1) = 0``), so ``out[n]`` sums panels 0..n-1 and
    ``out[0] = 0``.
    """
    g = f
    if weights.scheme.panel_based:
        g = np.concatenate(([0.0], f[:-1]))
    if method == "direct":
        out = _causal_conv_direct(g, weights.values)
    elif method == "fft":
        out = _causal_conv_modes(g, weights)
    else:
        raise DomainError(f"method must be 'direct' or 'fft', got {method!r}")
    if head is not None:
        out += head @ f[: head.shape[1]]
    return out


def frac_integral(
    signal: SampledSignal,
    weights: WeightSequence,
    method: str = "direct",
    starting_degree: int | None = None,
) -> SampledSignal:
    """Fractional integral of a sampled signal by discrete convolution.

    Parameters
    ----------
    signal : SampledSignal
        Samples of the integrand on a uniform grid.
    weights : WeightSequence
        Convolution weights generated for the same grid step.
    method : {"direct", "fft"}
        Summation backend.  ``direct`` (blocked Toeplitz products over an
        ``np.convolve`` leaf) is bitwise causal and within
        ``N * eps * (|f| * |w|)_n`` at node n.  ``fft`` is the
        sum-of-exponentials engine: O(N (L + M)), bitwise causal, within
        a quarter of that bound as measured, and the same as ``direct``
        for weights without an integral form or short signals.
    starting_degree : int, optional
        When given, add the polynomial-exactness corrections of this degree
        (weights attached to the first ``starting_degree + 1`` nodes).
        Off by default.
    """
    _check_compatibility(signal, weights)
    head = None
    if starting_degree is not None:
        if signal.grid.n <= starting_degree:
            raise DomainError(f"signal too short for degree-"
                              f"{starting_degree} starting corrections")
        head = starting_weight_table(weights, starting_degree)[: signal.grid.n]
    return signal.replace_values(_evaluate(signal.values, weights, method,
                                           head))


def frac_trapezoid(signal: SampledSignal, alpha: float,
                   method: str = "direct") -> SampledSignal:
    """Fractional composite trapezoid rule.

    The NC0 rule applied to the panel averages ``(f_k + f_(k+1)) / 2``
    (one panel fewer than nodes, padded with a 0 that no node reaches);
    reduces to the classical composite trapezoid rule at ``alpha = 1``.
    """
    if not alpha > 0.0:
        raise DomainError(f"trapezoid rule requires alpha > 0, got {alpha!r}")
    n = signal.grid.n
    if n < 2:
        raise DomainError("trapezoid rule needs at least 2 samples")
    f = signal.values
    averages = np.concatenate((0.5 * (f[:-1] + f[1:]), [0.0]))
    c = nc0_weights(alpha, signal.grid.dt, n)
    return signal.replace_values(_evaluate(averages, c, method))


def frac_newton_cotes(signal: SampledSignal, alpha: float,
                      p: int) -> SampledSignal:
    """Fractional Newton-Cotes rule of ``p`` points per panel, p in {2, 3}.

    Each panel replaces the integrand with its Lagrange polynomial through
    ``p`` consecutive grid nodes and integrates that polynomial against the
    kernel ``(t_n - t')^(alpha-1)`` exactly (product integration).  For
    p = 3 an odd output node starts with a one-step panel on [t_0, t_1]
    interpolated through nodes 0, 1, 2.  Grids must tile:
    ``n mod (p - 1) == 1``.

    The node weights depend on the output node only through the distance
    ``j = n - k`` to node ``k``, except on nodes 0..p-1, so the rule is one
    Toeplitz sequence ``v_j`` through the direct causal convolution plus
    starting columns on those nodes.  Every weight combines the kernel
    moments of one panel taken around its own centre
    (:func:`_panel_moments`), so the weights keep full relative accuracy at
    any distance, and polynomials of degree ``p - 1`` come out exact to
    within ``N * eps * I^alpha[|f|](t_n)``.
    """
    if p not in (2, 3):
        raise DomainError(f"panel order must be 2 or 3, got {p}")
    if not alpha > 0.0:
        raise DomainError(f"Newton-Cotes rule requires alpha > 0, got {alpha!r}")
    n = signal.grid.n
    if n < p:
        raise AlignmentError(f"{n} samples cannot hold a {p}-point panel")
    if (n - 1) % (p - 1) != 0:
        raise AlignmentError(
            f"{n - 1} steps do not tile into panels of {p - 1} steps"
        )
    m0, m1, m2 = moments = _panel_moments(alpha, n)
    if p == 2:
        # panel i spans distances i..i+1, centre 2i+1 in half-step units,
        # where its linear basis is (1 -+ s) / 2 and the kernel scales by
        # 2^-alpha
        near = 2.0**(-1.0 - alpha) * (m0 - m1)
        far = 2.0**(-1.0 - alpha) * (m0 + m1)
        v = near.copy()
        v[1:] += far[:-1]
        # node 0 closes the last panel and has no panel beyond it
        columns = -near[np.newaxis, :]
    else:
        # panel i spans distances 2i..2i+2 (centre 2i+1)
        near = 0.5 * (m2 - m1)
        mid = m0 - m2
        far = 0.5 * (m2 + m1)
        v = np.zeros(n)
        v[0::2] = near[: (n + 1) // 2]
        v[2::2] += far[: (n - 1) // 2]
        v[1::2] = mid[: n // 2]
        columns = np.zeros((3, n))
        columns[0, 2::2] = -near[1: (n + 1) // 2]
        # odd nodes: the two-step panels end on node 1 and the Toeplitz
        # weight reaching node 0 is replaced by the one-step leading panel
        # on distances m-1..m: centre 2m-1 in half-step units, where nodes
        # 0, 1, 2 sit at s = 1, -1, -3
        l0, l1, l2 = moments[:, : n - 1: 2]
        odd = columns[:, 1::2]
        odd[:] = 2.0**-alpha / 8.0 * np.stack([
            l2 + 4.0 * l1 + 3.0 * l0,
            -2.0 * (l2 + 2.0 * l1 - 3.0 * l0),
            l2 - l0,
        ])
        odd[0] -= mid[: n // 2]
        odd[1] -= near[: n // 2]
    f = signal.values
    out = _causal_conv_direct(f, v) + f[: len(columns)] @ columns
    out *= signal.grid.dt**alpha / gamma(alpha)
    out[0] = 0.0
    return signal.replace_values(out)


#: Powers of ``y = C^-2`` kept per range of centres: 20 for C < 33 (at C = 3
#: the tail shrinks like 3^-40), 7 from C = 33 on (y^7 <= 1089^-7 < 1e-21).
_MOMENT_TERMS = ((slice(0, 16), 20), (slice(16, None), 7))


def _panel_moments(alpha: float, n: int) -> np.ndarray:
    """Kernel moments ``M_q(C) = int_{-1}^{1} s^q (C + s)^(alpha-1) ds``.

    Returns shape (3, n): rows q = 0, 1, 2 at the odd centres
    ``C = 1, 3, ..., 2n - 1``.  C = 1, the panel touching the kernel
    singularity, uses the closed form.  Every other centre sums the series
    ``C^(alpha-1) sum_k C(alpha-1, k) C^-k int s^(q+k) ds``, whose leading
    term dominates: all rows as a (3 x powers) coefficient matrix times one
    power table of ``C^-2`` per range of ``_MOMENT_TERMS``.  The closed form
    in powers of ``C +- 1`` cancels: it loses a factor of up to ``C^2``,
    already ~1e-13 relative at C = 3.
    """
    centres = np.arange(1.0, 2.0 * n, 2.0)
    k = np.arange(1.0, 2 * _MOMENT_TERMS[0][1])
    binom = np.concatenate(([1.0], np.cumprod((alpha - k) / k)))
    odd = k[::2]  # y^i in row q: 2 C(alpha-1, k) / (q+k+1), k = 2i + q%2
    coeffs = 2.0 * np.stack([binom[0::2] / odd, binom[1::2] / (odd + 2.0),
                             binom[0::2] / (odd + 2.0)])
    x = 1.0 / centres
    y = x * x
    moments = np.empty((3, n))
    for centre_range, terms in _MOMENT_TERMS:
        powers = np.ones((terms, len(y[centre_range])))
        for i in range(1, terms):  # cumprod, without its slow axis-0 loop
            np.multiply(powers[i - 1], y[centre_range], out=powers[i])
        moments[:, centre_range] = coeffs[:, :terms] @ powers
    moments[1] *= x
    moments *= centres**(alpha - 1.0)
    # C = 1: int_0^2 (u - 1)^q u^(alpha-1) du, reduced to one fraction
    a = alpha
    moments[:, 0] = 2.0**a / a * np.array([
        1.0,
        (a - 1.0) / (a + 1.0),
        (a * a - a + 2.0) / ((a + 1.0) * (a + 2.0)),
    ])
    return moments


def short_memory_integral(
    signal: SampledSignal,
    weights: WeightSequence,
    memory_length: int,
    method: str = "direct",
) -> SampledSignal:
    """Fractional integral with the convolution tail cut at ``memory_length``.

    Keeps only the newest ``memory_length`` kernel terms of each output
    node; with ``memory_length == grid.n`` this is the same code path as
    :func:`frac_integral` and produces bitwise-equal results.  Truncation
    is only safe when the weights decay (derivative-type kernels).
    """
    n = signal.grid.n
    if not 1 <= memory_length <= n:
        raise DomainError(
            f"memory length must be in [1, {n}], got {memory_length}"
        )
    _check_compatibility(signal, weights)
    out = _evaluate(signal.values, weights.truncated(memory_length), method)
    return signal.replace_values(out)

"""Left-sided fractional integrals of sampled signals.

Every rule here is data, weight sequences plus an index convention, and
one evaluator, ``_evaluate``, takes them all:
``out[n] = sum_{j=0..n} w_j f_(n-j) + sum_k head[n, k] f_k``, the head
holding columns on the first nodes: starting corrections, or the
Newton-Cotes starting columns, whose row 0 cancels ``w_0 f_0`` so that
``out[0] = 0``.  Panel rules (NC0, and the fractional trapezoid, NC0 on
the panel averages) sum the ``n`` panels left of node n, which the
evaluator takes as a one-sample shift of the input.

The ``direct`` path (the default) sums only the causal triangle, as
products of signal blocks with Toeplitz blocks of the weights (one
``np.convolve`` call for short signals): bitwise causal, each node within
``N * eps * (|f| * |w|)_n``.  The ``fft`` path makes no Fourier transform:
a sum-of-exponentials engine, O(N (L + M)), takes samples two or more
blocks back through M ~ 100 one-signed modes per term of the weights'
integral form, bitwise causal and within the same bound.  Every rule has
that form for non-integer orders below 1 (GL down to -64; FLMM_TRAP above
-1); other orders, and signals below 3000 samples (4500 for the two terms
of NC3 and FLMM_TRAP), run ``direct``.
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
    _FarField,
    _causal_conv_direct,
    _causal_conv_modes,
    _far_field,
    _validate_common,
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


def _evaluate(f: np.ndarray, weights: np.ndarray, far_field: _FarField | None,
              method: str, head: np.ndarray | None = None,
              shift: bool = False) -> np.ndarray:
    """``out[n] = sum_j w_j f_(n-j) + sum_k head[n, k] f_k`` for the weights
    ``w`` and their integral form ``far_field`` (used by ``fft``).

    ``shift`` is the panel rules' convention, taken here once: the input
    moves one sample later (``f_(-1) = 0``), so ``out[n]`` sums panels
    0..n-1 and ``out[0] = 0``.
    """
    g = np.concatenate(([0.0], f[:-1])) if shift else f
    if method == "direct":
        out = _causal_conv_direct(g, weights)
    elif method == "fft":
        out = _causal_conv_modes(g, weights, far_field)
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
        for weights without an integral form (integer orders, orders of 1
        and above) or signals shorter than the engine's cutoff.
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
    return signal.replace_values(_evaluate(
        signal.values, weights.values, weights.far_field, method, head,
        weights.scheme.panel_based))


def frac_trapezoid(signal: SampledSignal, alpha: float,
                   method: str = "direct") -> SampledSignal:
    """Fractional composite trapezoid rule.

    The NC0 rule applied to the panel averages ``(f_k + f_(k+1)) / 2``
    (one panel fewer than nodes, padded with a 0 that no node reaches);
    reduces to the classical composite trapezoid rule at ``alpha = 1``.
    """
    n = signal.grid.n
    if n < 2:
        raise DomainError("trapezoid rule needs at least 2 samples")
    f = signal.values
    averages = np.concatenate((0.5 * (f[:-1] + f[1:]), [0.0]))
    c = nc0_weights(alpha, signal.grid.dt, n)
    return signal.replace_values(_evaluate(averages, c.values, c.far_field,
                                           method, shift=True))


def frac_newton_cotes(signal: SampledSignal, alpha: float, p: int,
                      method: str = "direct") -> SampledSignal:
    """Fractional Newton-Cotes rule of ``p`` points per panel, p in {2, 3}.

    Each panel replaces the integrand with its Lagrange polynomial through
    ``p`` consecutive grid nodes and integrates that polynomial against the
    kernel ``(t_n - t')^(alpha-1)`` exactly (product integration).  For
    p = 3 an odd output node starts with a one-step panel on [t_0, t_1]
    interpolated through nodes 0, 1, 2.  Grids must tile:
    ``n mod (p - 1) == 1``.

    The node weights depend on the output node only through the distance
    ``j = n - k`` to node ``k``, except on nodes 0..p-1, so the rule is one
    Toeplitz sequence ``v_j`` plus starting columns on those nodes
    (:func:`_newton_cotes_rule`).  Every weight combines the kernel moments
    of one panel taken around its own centre (:func:`_panel_moments`), so
    the weights keep full relative accuracy at any distance, and
    polynomials of degree ``p - 1`` come out exact to within
    ``N * eps * I^alpha[|f|](t_n)``.  ``method`` is that of
    :func:`frac_integral`, the engine's bound doubled for p = 3.
    """
    if p not in (2, 3):
        raise DomainError(f"panel order must be 2 or 3, got {p}")
    n = signal.grid.n
    _validate_common(alpha, signal.grid.dt, n, "Newton-Cotes rule")
    if n < p:
        raise AlignmentError(f"{n} samples cannot hold a {p}-point panel")
    if (n - 1) % (p - 1) != 0:
        raise AlignmentError(
            f"{n - 1} steps do not tile into panels of {p - 1} steps"
        )
    v, far_field, head = _newton_cotes_rule(alpha, signal.grid.dt, n, p)
    return signal.replace_values(_evaluate(signal.values, v, far_field,
                                           method, head))


def _newton_cotes_rule(alpha: float, dt: float, n: int, p: int
                       ) -> tuple[np.ndarray, _FarField | None, np.ndarray]:
    """Toeplitz weights ``v`` with their far field, and the starting columns
    of :func:`frac_newton_cotes`, scaled by ``dt^alpha / Gamma(alpha)``.

    For j > 0, ``v_j = sin(pi alpha) / pi dt^alpha int u^-alpha (g_A(u) +
    (-1)^j g_B(u)) e^(-uj) du``, g being the node basis functions of a
    panel against ``e^(-uy)``: for p = 2 the hat, g_B = 0; for p = 3
    :func:`_panel_g`, and ``|A_j| + |B_j| <= 2 |v_j|``.
    """
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
        # the hat on [-1, 1]: int (1 - |y|) e^(-uy) dy
        terms = [(lambda u, a: (2.0 * np.sinh(0.5 * u) / u)**2, False)]
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
        columns[0, 0::2] = -near[: (n + 1) // 2]
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
        terms = [(lambda u, a: _panel_g(u, 1.0), False),
                 (lambda u, a: _panel_g(u, -1.0), True)]
    scale = dt**alpha / gamma(alpha)
    v *= scale
    far = _far_field(*((g, alpha, dt**alpha, alt) for g, alt in terms))
    return v, far, columns.T * scale


def _panel_g(u: np.ndarray, sign: float) -> np.ndarray:
    """``g_A > 0`` (sign 1) or ``g_B < 0`` (sign -1) of the 3-point rule,
    ``(g_end + sign g_mid) / 2`` for the end and mid node basis functions
    against ``e^(-uy)``: the one-signed series of their moments in u^2 (the
    closed forms cancel as u -> 0), at rounding after ten terms for
    u <= 40 / (L + 1), the modes' range."""
    k = np.arange(10.0)
    coeffs = 2.0 * (4.0**k * (1.0 - 2.0 * k) / (2.0 * k + 2.0) + sign) / (
        (2.0 * k + 1.0) * (2.0 * k + 3.0))
    coeffs[1:] /= np.cumprod(2.0 * k[1:] * (2.0 * k[1:] - 1.0))  # (2k)!
    y, out = u * u, coeffs[-1]
    for c in coeffs[-2::-1]:
        out = out * y + c
    return out


#: Powers y^0 .. y^19 of ``y = C^-2`` for the 16 centres C < 33 (at C = 3
#: the tail shrinks like 3^-40), built once; from C = 33 on 7 powers are kept
#: (y^7 <= 1089^-7 < 1e-21).
_NEAR_POWERS = np.cumprod(
    [np.ones(16)] + [(1.0 / np.arange(1.0, 33.0, 2.0))**2] * 19, axis=0)


def _panel_moments(alpha: float, n: int) -> np.ndarray:
    """Kernel moments ``M_q(C) = int_{-1}^{1} s^q (C + s)^(alpha-1) ds``.

    Returns shape (3, n): rows q = 0, 1, 2 at the odd centres
    ``C = 1, 3, ..., 2n - 1``.  C = 1, the panel touching the kernel
    singularity, uses the closed form.  Every other centre sums the series
    ``C^(alpha-1) sum_k C(alpha-1, k) C^-k int s^(q+k) ds``, whose leading
    term dominates: all rows as a (3 x powers) coefficient matrix times a
    power table of ``C^-2`` (:data:`_NEAR_POWERS`, then 7 powers).  The
    closed form in powers of ``C +- 1`` cancels: it loses a factor of up to
    ``C^2``, already ~1e-13 relative at C = 3.
    """
    centres = np.arange(1.0, 2.0 * n, 2.0)
    k = np.arange(1.0, 2 * len(_NEAR_POWERS))
    binom = np.concatenate(([1.0], np.cumprod((alpha - k) / k)))
    odd = k[::2]  # y^i in row q: 2 C(alpha-1, k) / (q+k+1), k = 2i + q%2
    coeffs = 2.0 * np.stack([binom[0::2] / odd, binom[1::2] / (odd + 2.0),
                             binom[0::2] / (odd + 2.0)])
    x = 1.0 / centres
    y = x[16:] * x[16:]
    powers = np.empty((7, len(y)))
    powers[0] = 1.0
    for i in range(1, 7):  # cumprod, without its slow axis-0 loop
        np.multiply(powers[i - 1], y, out=powers[i])
    moments = np.empty((3, n))
    moments[:, :16] = coeffs @ _NEAR_POWERS[:, :n]
    moments[:, 16:] = coeffs[:, :7] @ powers
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
    node; with ``memory_length == grid.n`` it gives :func:`frac_integral`'s
    ``direct`` output bit for bit (cut weights have no integral form, so
    ``fft`` runs direct too).  Truncation is only safe when the weights
    decay (derivative-type kernels).
    """
    n = signal.grid.n
    if not 1 <= memory_length <= n:
        raise DomainError(
            f"memory length must be in [1, {n}], got {memory_length}"
        )
    _check_compatibility(signal, weights)
    out = _evaluate(signal.values, weights.values[:memory_length], None,
                    method, shift=weights.scheme.panel_based)
    return signal.replace_values(out)

"""Left-sided fractional integrals of sampled signals.

The grids, the signals and the four integrators: each checks its signal,
takes its rule from ``weights`` (Toeplitz weights, head columns on the
first nodes and, for the panel rules, an input shift of one sample) and
sums it with ``weights._evaluate`` in one bitwise causal pass, each node
within ``N * eps * (|f| * |w|)_n``.  ``direct`` (the default) takes every
128-sample block lag the weights reach; ``fft``, which makes no Fourier
transform, takes lags 0 and 1 and older rows through M ~ 100 one-signed
modes per term of the weights' integral form, O(N (L + M)) and within the
bound per term, for non-integer orders below 1 (GL down to -64; FLMM_TRAP
above -1); other orders, and signals below 3000 samples (4500 for the two
terms of NC3 and FLMM_TRAP), run ``direct``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError, GridMismatchError, LengthError
from .weights import (
    _MAX_COUNT,
    WeightSequence,
    _count,
    _evaluate,
    _newton_cotes_rule,
    _positive,
    _samples,
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
        _positive(**{"grid step": self.dt})
        _count(self.n, "grid node count", 1, _MAX_COUNT)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    @property
    def t_end(self) -> float:
        return (self.n - 1) * self.dt


@dataclass(frozen=True)
class SampledSignal:
    """Real samples of a function on a :class:`UniformGrid`; non-finite
    values named ``result`` are reported as a result past binary64."""

    grid: UniformGrid
    values: np.ndarray
    result: InitVar[str | None] = None

    def __post_init__(self, result: str | None) -> None:
        object.__setattr__(self, "values", _samples(
            self.values, "signal samples",
            lambda v: f"{result} leaves the binary64 range" if result
            else "signal samples must all be finite", self.grid.n))

    @classmethod
    def sample(cls, f: Callable[[np.ndarray], np.ndarray],
               grid: UniformGrid) -> "SampledSignal":
        """``f`` on the nodes; an infinite or NaN sample is reported once,
        by the finiteness check, not also by a numpy warning."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return cls(grid, f(grid.nodes))

    def replace_values(self, values: np.ndarray,
                       result: str = "result") -> "SampledSignal":
        """``values`` computed from these samples, named ``result``."""
        return SampledSignal(self.grid, values, result)


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
        The block lags the one causal pass sums exactly, either way
        bitwise causal and within ``N * eps * (|f| * |w|)_n`` at node n:
        ``direct`` every lag the weights reach (blocked Toeplitz products
        over an ``np.convolve`` leaf), ``fft`` lags 0 and 1 and older rows
        through the sum-of-exponentials engine, O(N (L + M)), within a
        quarter of that bound as measured; ``fft`` is ``direct`` for
        weights without an integral form (integer orders, orders of 1 and
        above) or signals shorter than the engine's cutoff.  Below
        2^-1022 rounding is absolute: both bounds gain ``N 2^-1074``, and
        ``fft``'s ``2^-1066 |f_k|`` per subnormal weight ``w_(n-k)``.
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
    out = _evaluate(signal.values, weights._rule._replace(head=head), method)
    return signal.replace_values(out,
                                 f"convolution of order {weights.alpha!r}")


def frac_trapezoid(signal: SampledSignal, alpha: float,
                   method: str = "direct") -> SampledSignal:
    """Fractional composite trapezoid rule.

    The whole NC0 rule of ``n`` weights applied to the panel averages
    ``(f_k + f_(k+1)) / 2`` (one panel fewer than nodes, padded with a 0
    that no node reaches); the classical composite trapezoid at alpha = 1.
    """
    if signal.grid.n < 2:
        raise DomainError("trapezoid rule needs at least 2 samples")
    rule = nc0_weights(alpha, signal.grid.dt, signal.grid.n)._rule
    f = signal.values
    averages = np.concatenate((0.5 * f[:-1] + 0.5 * f[1:], [0.0]))
    out = _evaluate(averages, rule, method)
    return signal.replace_values(out, f"trapezoid rule of order {alpha!r}")


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
    (:func:`weights._newton_cotes_rule`).  Every weight combines the kernel
    moments of one panel taken around its own centre
    (:func:`weights._panel_moments`), so the weights keep full relative
    accuracy at any distance, and polynomials of degree ``p - 1`` come out
    exact to within ``max(N, 64) * eps * I^alpha[|f|](t_n)``, the floor for
    the few eps of the first nodes.  ``method`` is that of
    :func:`frac_integral`, the engine's bound doubled for p = 3.  Orders run
    over 0 < alpha <= 6: past that a starting column cancels the Toeplitz
    weight reaching node 0 down to rounding, and node 1 misses the bound
    (from alpha = 7.11 at N = 65; 0.0 for 3.9e-227 at alpha = 60).
    """
    rule = _newton_cotes_rule(alpha, signal.grid.dt, signal.grid.n, p)
    out = _evaluate(signal.values, rule, method)
    return signal.replace_values(out, f"NC{p} rule of order {alpha!r}")


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
    _count(memory_length, "memory length", 1, signal.grid.n)
    _check_compatibility(signal, weights)
    out = _evaluate(signal.values, weights._rule._replace(
        values=weights.values[:memory_length], far=None), method)
    return signal.replace_values(out,
                                 f"convolution of order {weights.alpha!r}")

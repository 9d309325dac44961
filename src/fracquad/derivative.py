"""Fractional derivatives of sampled signals.

Two routes are provided.  The direct Grunwald-Letnikov evaluation reuses
the weight recurrence with the order negated:

    D^alpha[f](t_m)  ~=  dt^(-alpha) sum_{k=0..m} (-1)^k C(alpha, k) f_(m-k)

The composition route realizes the differintegral identity
``D^alpha = D^n I^(n - alpha)`` with ``n = floor(alpha) + 1``: a fractional
integral of order ``n - alpha`` by any quadrature scheme, followed by an
``n``-th order finite difference (central stencils inside, one-sided of
matching order at the boundary).  Both converge to the same
Riemann-Liouville derivative at first order in the grid step.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError
from .quadrature import SampledSignal, frac_integral
from .weights import Scheme, gl_weights, weights_for_scheme

__all__ = ["gl_derivative", "rl_derivative_via_integral"]


def gl_derivative(
    signal: SampledSignal,
    order: float,
    direction: str = "backward",
    method: str = "direct",
) -> SampledSignal:
    """Truncated Grunwald-Letnikov derivative of a sampled signal.

    ``order`` must be positive.  ``backward`` differences look into the
    past (``f_(m-k)``), the usual causal choice; ``forward`` uses
    ``f_(m+k)`` and is provided for completeness.
    """
    alpha = float(order)
    if not alpha > 0.0:
        raise DomainError(f"derivative order must be positive, got {alpha!r}")
    grid = signal.grid
    weights = gl_weights(-alpha, grid.dt, grid.n)
    if direction == "backward":
        return frac_integral(signal, weights, method=method)
    if direction == "forward":
        flipped = signal.replace_values(signal.values[::-1])
        out = frac_integral(flipped, weights, method=method)
        return signal.replace_values(out.values[::-1])
    raise DomainError(
        f"direction must be 'backward' or 'forward', got {direction!r}"
    )


def rl_derivative_via_integral(
    signal: SampledSignal,
    order: float,
    scheme: Scheme = Scheme.GL,
    method: str = "direct",
) -> SampledSignal:
    """Riemann-Liouville derivative by the composition ``D^n I^(n-alpha)``.

    Accepts ``0 <= alpha < 2``.  Order zero is the identity by definition
    (the neutral element); otherwise ``n = floor(alpha) + 1`` is 1 or 2 and
    the signal must hold at least ``n + 2`` samples for the boundary
    stencils.
    """
    alpha = float(order)
    if alpha == 0.0:
        return signal.replace_values(signal.values.copy())
    if not alpha > 0.0:
        raise DomainError(f"derivative order must be positive, got {alpha!r}")
    if not alpha < 2.0:
        raise DomainError(
            f"composition route covers orders below 2, got {alpha!r}")
    n = math.floor(alpha) + 1
    if signal.grid.n < n + 2:
        raise DomainError(
            f"need at least {n + 2} samples for an order-{n} "
            "difference with one-sided ends"
        )
    weights = weights_for_scheme(scheme, n - alpha, signal.grid.dt,
                                 signal.grid.n)
    smoothed = frac_integral(signal, weights, method=method).values
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        deriv = (np.gradient(smoothed, signal.grid.dt, edge_order=2) if n == 1
                 else _second_difference(smoothed, signal.grid.dt))
    return signal.replace_values(deriv, f"derivative of order {alpha!r}")


def _second_difference(g: np.ndarray, dt: float) -> np.ndarray:
    """Second differences, one-sided at the ends; ``len(g) >= 4``.  Divided
    by ``dt`` twice: ``dt**2`` underflows below dt ~ 1.5e-162."""
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / dt / dt
    out[0] = (2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]) / dt / dt
    out[-1] = (2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]) / dt / dt
    return out

"""Every quadrature rule: its weights, and the one causal pass that sums it.

All supported rules reduce to a discrete causal convolution

    I[f](t_n)  ~=  sum_k  f_k * w_(n-k)

on a uniform grid, and differ only in how the weight sequence ``w`` is
produced:

``Scheme.GL``
    Fractional implicit Euler / Grunwald-Letnikov weights, the power-series
    coefficients of ``(1 - z)^(-alpha)`` scaled by ``dt^alpha``.  Generated
    by a multiplicative recurrence, so the sequence stays finite for any
    length (no factorials are ever formed).
``Scheme.NC0``
    Zero-order Newton-Cotes (piecewise-constant product rule) panel weights
    ``dt^alpha / Gamma(alpha+1) * ((k+1)^alpha - k^alpha)``.
``Scheme.FLMM_TRAP``
    Fractional trapezoidal linear multistep weights, the series coefficients
    of ``((1 + z) / (2 (1 - z)))^alpha`` (:func:`weights_for_scheme`).

:func:`flmm_weights` (trapezoid) and :func:`euler_flmm_weights` (implicit
Euler) raise the multistep series ``(1/2, 1, 1, ...)`` and ``(1, 1, 1, ...)``
to a real power by the J.C.P. Miller recurrence, an independent check on the
closed forms.  The integrators' panel rules are built here too: the
trapezoid's NC0 rule on panel averages (:func:`_trapezoid_rule`) and the 2-
and 3-point Newton-Cotes rules, Toeplitz weights plus starting columns whose
row 0 cancels ``w_0 f_0`` (:func:`_newton_cotes_rule`).
Starting-weight corrections that restore polynomial exactness near the
origin are the read-only (N, s+1) array of :func:`starting_weight_table`.
Weights of non-integer orders carry their integral form for the ``fft``
engine, ``WeightSequence.far_field``, a tuple of terms: GL in (-64, 1), NC0
in (0, 1) and FLMM_TRAP in (-1, 1), a term per branch cut, z > 1 and z < -1.
Every rule is one :class:`_Rule`, which :func:`_evaluate` sums in one
causal pass, each node within ``N * eps * (|f| * |w|)_n``; ``fft`` takes
the older rows of long signals through the far field.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import AlignmentError, DomainError
from .special import gamma

__all__ = [
    "Scheme",
    "WeightSequence",
    "gl_weights",
    "nc0_weights",
    "flmm_weights",
    "euler_flmm_weights",
    "weights_for_scheme",
    "starting_weight_table",
]


class Scheme(enum.Enum):
    """Supported quadrature weight families."""

    GL = "gl"
    NC0 = "nc0"
    FLMM_TRAP = "flmm-trap"

    @property
    def panel_based(self) -> bool:
        """True when the rule convolves panel values ``f_0 .. f_(n-1)``
        instead of node values ``f_0 .. f_n``."""
        return self is Scheme.NC0


#: A far field: the ``fft`` engine takes the weights past lag L as
#: ``sum scale sin(pi order) / pi (+-1)^k int u^-order g(u, order) e^(-uk) du``
#: over its ``(g, order, scale, alternating)`` terms, g one-signed.
_Terms = tuple[tuple[Callable[..., np.ndarray], float, float, bool], ...]


class _Rule(NamedTuple):
    """``sum_j values_j g_(n-j) + sum_k head[n,k] f_k``, g = f or f shifted."""

    values: np.ndarray
    far: _Terms | None = None
    head: np.ndarray | None = None
    shift: bool = False


@dataclass(frozen=True)
class WeightSequence:
    """Weights of one (scheme, alpha, dt) convolution rule.

    ``alpha`` is the integral order; a negative value marks the
    derivative-role variant (order ``-alpha`` derivative), available for the
    GL family through the ``(1-z)^(-alpha)`` duality.  ``far_field`` holds
    the weights' integral form for the ``fft`` engine, or None.
    """

    scheme: Scheme
    alpha: float
    dt: float
    values: np.ndarray
    far_field: _Terms | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise DomainError("weights must be real")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise DomainError(f"weights must be 1-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise DomainError(f"weights of order {self.alpha!r} leave the "
                              f"binary64 range on {len(values)} nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def _rule(self) -> _Rule:
        return _Rule(self.values, self.far_field, None, self.scheme.panel_based)


#: The most nodes or weights numpy can index.
_MAX_COUNT = np.iinfo(np.intp).max
#: Block rows of the direct convolution; up to the cutoff one ``np.convolve``
#: call is faster (measured crossover 0.9-1.2e3 samples).
_BLOCK = 128
_LEAF_CUTOFF = 1024

#: The sum-of-exponentials engine runs from _MODES_CUTOFF samples for one
#: mode term and 1.5 times that for two (measured crossover 1.8-2.3e3 for
#: one term, 3.8-4.5e3 for two, on 1 and 2 BLAS threads).
_MODES_CUTOFF = 3000


def _engine_runs(n: int, far: _Terms | None) -> bool:
    """Whether ``fft`` takes ``n`` samples through the far field ``far``."""
    return far is not None and 2 * n >= _MODES_CUTOFF * (1 + len(far))


def _evaluate(f: np.ndarray, rule: _Rule, method: str) -> np.ndarray:
    """``rule`` on ``f``, ``out[n] = sum_(j <= n) w_j g_(n-j)`` plus the head
    columns, bitwise causal and each node within ``N * eps * (|f| * |w|)_n``:
    one ``np.convolve`` up to the leaf, past it g in rows of L = ``_BLOCK``
    samples, zero-padded, times the Toeplitz blocks ``T_d[r, s] = w[d L + r
    - s]`` of every block lag d the weights reach, or of lags 0 and 1 where
    the ``fft`` engine runs and the older rows through :func:`_far_rows`.
    Only the causal triangle is summed; its exact zeros keep it causal."""
    if method not in ("direct", "fft"):
        raise DomainError(f"method must be 'direct' or 'fft', got {method!r}")
    n = len(f)
    g = np.concatenate(([0.0], f[:-1])) if rule.shift else f
    c = rule.values[:n]
    with np.errstate(over="ignore", invalid="ignore"):
        if n <= _LEAF_CUTOFF:  # the engine runs from _MODES_CUTOFF on
            out = np.convolve(g, c)[:n]
        else:
            count = -(-n // _BLOCK)
            engine = method == "fft" and _engine_runs(n, rule.far)
            lags = 2 if engine else min(count,
                                        (len(c) + _BLOCK - 2) // _BLOCK + 1)
            rows = np.zeros((count, _BLOCK))
            rows.ravel()[:n] = g
            c = c[: lags * _BLOCK]
            kernel = np.zeros((lags + 1) * _BLOCK - 1)
            kernel[_BLOCK - 1: _BLOCK - 1 + len(c)] = c
            windows = np.lib.stride_tricks.sliding_window_view(kernel, _BLOCK)
            out = np.zeros((count, _BLOCK))
            for d in range(lags):  # block = T_d.T
                block = windows[d * _BLOCK: (d + 1) * _BLOCK][::-1].copy()
                out[d:] += rows[: count - d] @ block
            if engine:
                out += _far_rows(rows, rule.far, n)
            out = out.ravel()[:n]
        if rule.head is not None:
            out += rule.head @ f[: rule.head.shape[1]]
    return out


def _far_rows(rows: np.ndarray, far: _Terms, n: int) -> np.ndarray:
    """Block lags 2 and older of the block rows F of ``n`` samples in O(N M)
    through the far field, within ``N * eps * (|f| * |w|)_n`` per term: M
    same-signed modes per term, ``S_b = e^(-u L) (S_(b-1) + (F @
    into)_(b-2))`` by recursive doubling, then ``S_b @ (c_m e^(-u_m
    r))^T`` in row b.  Mode m keeps S in units of 2^min(e_m, 0), |c_m| in
    [2^(e_m-1), 2^e_m), not of the samples: below N max|f| and about 2 (|f|
    * |w|)_n, finite with it."""
    u, c, alternating = _modes(far, n)
    decay = np.exp(-np.outer(np.arange(_BLOCK + 1.0), u))  # e^(-u_m r)
    scale = np.ldexp(1.0, np.minimum(np.frexp(c)[1], 0))
    into, out_of = decay[:0:-1] * scale, c / scale * decay[:-1]
    into[1::2, alternating] *= -1.0  # (-1)^(L - s + r) on those modes, L even
    out_of[1::2, alternating] *= -1.0
    state = np.zeros((len(rows), len(u)))
    np.matmul(rows[:-2], into, out=state[2:])
    state[2:] *= decay[-1]
    for j in range((len(rows) - 1).bit_length()):
        state[1 << j:] += np.exp(-u * (_BLOCK << j)) * state[: -(1 << j)]
    return state @ out_of.T


def _modes(far: _Terms, n: int) -> tuple[np.ndarray, ...]:
    """``u_m``, same-signed ``c_m`` and alternating flags, term after term:
    ``w_k ~ sum c_m e^(-u_m k)`` for lags L+1..n by Gauss-Jacobi (weight
    ``u^b``, b = -order of the term) on [0, 1/n] and Legendre panels in
    log u up to X/(L+1), past which ``u^b e^(-uk)`` keeps less than e^-40 of
    its integral: X = 40 and panels of width <= 2 for b <= 1; above,
    X = 40 + 4 (b - 1) and width <= 2 / sqrt(b), its peak's width."""
    leg_x, leg_w = _gauss_jacobi(0.0)
    modes = []
    for g, order, scale, alternating in far:
        # sin(pi order) from the exact fraction of |order|, reflected
        frac = abs(order) % 1.0
        sin = (np.sign(order) * (-1.0)**math.floor(abs(order))
               * np.sin(np.pi * min(frac, 1.0 - frac)))
        b = -order
        x, wx = _gauss_jacobi(b)
        top = 40.0 + 4.0 * max(b - 1.0, 0.0)
        lo, hi = -np.log(n), np.log(top / (_BLOCK + 1))
        panels = int(np.ceil((hi - lo) / 2.0 * max(b, 1.0)**0.5))
        width = (hi - lo) / panels
        v = (lo + width * (np.arange(panels)[:, None] + leg_x)).ravel()
        u = np.concatenate((x / n, np.exp(v)))
        c = np.concatenate((wx * n**-(1.0 + b) / (1.0 + b), np.tile(
            width * leg_w, panels) * np.exp((1.0 + b) * v)))
        c = scale * sin / np.pi * c * g(u, order)
        modes.append((u, c, np.full(len(u), alternating)))
    return tuple(np.concatenate(column) for column in zip(*modes))


@functools.lru_cache(maxsize=4)  # Legendre and the orders of one call
def _gauss_jacobi(b: float) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss rule (Golub-Welsch) for the weight x^b on [0, 1]."""
    k = np.arange(1.0, 16.0)
    s = 2.0 * k + b
    # s - 1 = 2k - 1 + b, except where 2 + b rounds to 1 (b = -1 + 2^-53)
    s_1 = np.where(s > 1.0, s - 1.0, 1.0 + b)
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * s_1))
    jacobi = np.diag(np.r_[b / (b + 2.0), b * b / (s * (s + 2.0))])
    nodes, vectors = np.linalg.eigh(jacobi + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _far_field(*terms: tuple[Callable[..., np.ndarray], float, float, bool]
               ) -> _Terms | None:
    """The far field of the ``(g, order, scale, alternating)`` terms when
    every order is a non-integer in (-L/2, 1), None otherwise: from lag L+1
    on the integrands decay at least like ``e^(-u L/2)``."""
    if all(-_BLOCK / 2 < t[1] < 1.0 and t[1] != round(t[1]) for t in terms):
        return terms
    return None


def _gl_g(u: np.ndarray, order: float) -> np.ndarray:
    """g of the Beta integral of the GL weights ``(-1)^k C(-order, k)``."""
    return np.exp(-u * order) * (u / -np.expm1(-u))**order


def _flmm_g(c: float) -> Callable[..., np.ndarray]:
    """``g = (c u coth(u/2))^order`` of a cut of ``((1 + z) / (2 (1 -
    z)))^alpha``: c = 1/2, order alpha on z > 1, c = 2, order -alpha on
    z < -1, so ``u^-order g = ((e^u +- 1) / (2 (e^u -+ 1)))^alpha``."""
    return lambda u, order: (c * u / np.tanh(0.5 * u))**order


def _validate_common(alpha: float, dt: float, n: int,
                     panel_rule: str | None = None) -> None:
    """Typed errors before any numpy work.  A panel rule of ``n`` nodes
    forms ``Gamma(alpha + 1)``, ``1 / alpha`` and powers up to
    ``(2 n max(dt, 1))^alpha``, all kept below e^700 (e^9 short of the
    binary64 limit; ``lgamma(alpha + 1) < 700`` puts alpha below 168.72)."""
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha!r}")
    if not 0.0 < dt < math.inf:
        raise DomainError(f"grid step must be positive and finite, "
                          f"got {dt!r}")
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"weight count must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"weight count must be >= 1, got {n}")
    if n > _MAX_COUNT:
        raise DomainError(f"weight count must be <= {_MAX_COUNT}, got {n}")
    if panel_rule and not (alpha > 0.0 and max(
            -math.log(alpha), alpha * math.log(2.0 * n * max(dt, 1.0))) < 700
            and math.lgamma(alpha + 1.0) < 700):
        raise DomainError(f"{panel_rule} needs alpha > 0 and finite weights "
                          f"on {n} nodes, got alpha={alpha!r}")


def gl_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Grunwald-Letnikov weights ``dt^alpha (-1)^k C(-alpha, k)``.

    ``alpha > 0`` generates the order-``alpha`` integral rule; ``alpha < 0``
    generates the order-``|alpha|`` derivative rule (same recurrence, order
    negated).  The coefficient ratio ``w_k / w_(k-1) = (k - 1 + alpha) / k``
    makes the whole sequence a single cumulative product.
    """
    _validate_common(alpha, dt, n)
    alpha = float(alpha)
    if alpha == 0.0:
        raise DomainError("order 0 has no weight rule; it is the identity")
    k = np.arange(1.0, n)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.float64(dt)**alpha
        values = np.cumprod(np.r_[1.0, (k - 1.0 + alpha) / k]) * scale
    far = _far_field((_gl_g, alpha, scale, False))
    return WeightSequence(Scheme.GL, alpha, dt, values, far)


def nc0_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Zero-order Newton-Cotes panel weights
    ``dt^alpha / Gamma(alpha+1) * ((k+1)^alpha - k^alpha)``.

    The bracket is evaluated as ``k^alpha * expm1(alpha * log1p(1/k))`` so
    no digits are lost to cancellation at large ``k``.
    """
    _validate_common(alpha, dt, n, "NC0 rule")
    alpha = float(alpha)
    k = np.arange(1.0, n)
    values = np.r_[1.0, np.exp(alpha * np.log(k))
                   * np.expm1(alpha * np.log1p(1.0 / k))]
    values *= dt**alpha / gamma(alpha + 1.0)
    # t^(alpha-1) = int u^(-alpha) e^(-u t) du / Gamma(1-alpha), over [k, k+1]
    box = (lambda u, a: -np.expm1(-u) / u, alpha, dt**alpha, False)
    far = _far_field(box)
    return WeightSequence(Scheme.NC0, alpha, dt, values, far)


def _trapezoid_rule(alpha: float, dt: float, n: int, method: str) -> _Rule:
    """The NC0 rule that ``frac_trapezoid`` sums over the panel averages of
    ``n`` samples: 2 L weights where the ``fft`` engine runs (it reads no
    more), ``n`` elsewhere."""
    if n < 2:
        raise DomainError("trapezoid rule needs at least 2 samples")
    _validate_common(alpha, dt, n, "NC0 rule")
    c = nc0_weights(alpha, dt, min(n, 2 * _BLOCK) if method == "fft" else n)
    if len(c) < n and not _engine_runs(n, c.far_field):
        c = nc0_weights(alpha, dt, n)
    return c._rule


def _newton_cotes_rule(alpha: float, dt: float, n: int, p: int) -> _Rule:
    """The rule of :func:`quadrature.frac_newton_cotes`: weights ``v``, their
    far field and the starting columns (head), scaled by ``dt^alpha /
    Gamma(alpha)``, after its input checks.

    For j > 0, ``v_j = sin(pi alpha) / pi dt^alpha int u^-alpha (g_A(u) +
    (-1)^j g_B(u)) e^(-uj) du``, g being the node basis functions of a
    panel against ``e^(-uy)``: for p = 2 the hat, g_B = 0; for p = 3
    :func:`_panel_g`, and ``|A_j| + |B_j| <= 2 |v_j|``.
    """
    if p not in (2, 3):
        raise DomainError(f"panel order must be 2 or 3, got {p}")
    _validate_common(alpha, dt, n, "Newton-Cotes rule")
    if alpha > 6.0:
        raise DomainError(f"Newton-Cotes rule needs alpha <= 6, got {alpha!r}")
    if n < p:
        raise AlignmentError(f"{n} samples cannot hold a {p}-point panel")
    if (n - 1) % (p - 1) != 0:
        raise AlignmentError(f"{n - 1} steps do not tile into panels of "
                             f"{p - 1} steps")
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
    return _Rule(v, far, columns.T * scale)


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


def flmm_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Fractional trapezoidal multistep weights by the J.C.P. Miller
    recurrence, the independent reference of ``Scheme.FLMM_TRAP``: ``dt^alpha``
    times the series of ``u(z)^alpha``, ``u = (1 + z) / (2 (1 - z))``."""
    return _miller_weights(Scheme.FLMM_TRAP, 0.5, alpha, dt, n)


def euler_flmm_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Implicit-Euler multistep weights by the same recurrence, ``u = 1 / (1
    - z)``; they coincide with :func:`gl_weights`."""
    return _miller_weights(Scheme.GL, 1.0, alpha, dt, n)


def _miller_weights(scheme: Scheme, u0: float, alpha: float, dt: float,
                    n: int) -> WeightSequence:
    """``dt^alpha`` times the series of ``u(z)^alpha``, ``u = (u0, 1, 1,
    ...)``, tagged ``scheme``, by Miller's recurrence.

    The bracket pairs large terms of opposite sign, so the recurrence runs
    in extended precision and rounds to binary64 once at the end.
    """
    _validate_common(alpha, dt, n)
    alpha = float(alpha)
    a, u0 = np.longdouble(alpha), np.longdouble(u0)
    k, ones = np.arange(n, dtype=np.longdouble), np.ones(n, np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.full(n, u0**a)
        for m in range(1, n):
            vs = v[m - 1:: -1]
            v[m] = ((a + 1.0) * np.dot(k[1: m + 1], vs)
                    - m * np.dot(ones[:m], vs)) / (m * u0)
        values = v.astype(float) * np.float64(dt)**alpha
    return WeightSequence(scheme, alpha, dt, values)


def weights_for_scheme(scheme: Scheme, alpha: float, dt: float,
                       n: int) -> WeightSequence:
    """Generate weights for any supported scheme tag.

    ``Scheme.FLMM_TRAP``: ``w_k = (dt/2)^alpha sum_j C(alpha, j) b_(k-j)``,
    ``b`` the GL series at dt = 1, within ``(k+1) eps`` times the same sum
    of absolute terms, by the engine over ``b``'s far field from
    ``_MODES_CUTOFF`` weights (median 4.1 ms at N = 2^16, alpha = 0.5,
    one BLAS thread); a negative ``alpha`` gives derivative-role weights.
    """
    if scheme is Scheme.GL:
        return gl_weights(alpha, dt, n)
    if scheme is Scheme.NC0:
        return nc0_weights(alpha, dt, n)
    if scheme is Scheme.FLMM_TRAP:
        _validate_common(alpha, dt, n)
        b = gl_weights(alpha, 1.0, n)  # also rejects order 0
        alpha, k = b.alpha, np.arange(1.0, n)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = np.cumprod(np.r_[1.0, (alpha - (k - 1.0)) / k])
            values = _evaluate(a, b._rule, "fft") * np.float64(dt / 2)**alpha
            scale = np.float64(dt)**alpha
        # the branch cuts z > 1 and z < -1 (the alternating term)
        far = _far_field((_flmm_g(0.5), alpha, scale, False),
                         (_flmm_g(2.0), -alpha, scale, True))
        return WeightSequence(Scheme.FLMM_TRAP, alpha, dt, values, far)
    raise DomainError(f"unknown scheme {scheme!r}")


def _monomial_defects(weights: WeightSequence, s: int,
                      n_max: int) -> np.ndarray:
    """Defect of the bare rule on ``t^q`` (dt-scaled units) for q = 0..s.

    Returns an array ``d[q, n] = Gamma(q+1)/Gamma(q+1+alpha) n^(q+alpha)
    - P_q(n)`` for every node n up to ``n_max`` (inclusive), where
    ``P_q(n) = sum_(k <= n) w_k (n-k)^q``.  Since ``(n-k)^q`` is the sum over
    m = k..n-1 of ``sum_(p<q) C(q, p) (m-k)^p``, the sums are nested prefix
    sums: ``P_0 = cumsum(w)`` and ``P_q(n) = sum_(m<n) sum_(p<q) C(q, p)
    P_p(m)``, O((s+1)^2 N) in all.  Each ``P_q(n)`` is within
    ``(q+1) (n+1) eps (|w| * x^q)_n`` of the exact sum for weights of any
    sign; all terms are non-negative for GL and FLMM_TRAP with alpha > 0.
    """
    alpha = weights.alpha
    omega = weights.values[: n_max + 1] / weights.dt**alpha
    nodes = np.arange(n_max + 1, dtype=float)
    sums = np.zeros((s + 1, n_max + 1))
    sums[0] = np.cumsum(omega)
    for q in range(1, s + 1):
        np.cumsum(sum(math.comb(q, p) * sums[p, :-1] for p in range(q)),
                  out=sums[q, 1:])
    exact = [(gamma(q + 1.0) / gamma(q + 1.0 + alpha)) * nodes**(q + alpha)
             for q in range(s + 1)]
    return np.array(exact) - sums


def starting_weight_table(weights: WeightSequence, s: int) -> np.ndarray:
    """Correction weights ``mu[n, j]`` for every node n of the parent weights.

    Row n multiplies the samples ``f_0 .. f_s`` and carries the ``dt^alpha``
    scale of the parent weights; the (N, s+1) array is read-only.  Row n
    solves ``sum_j mu_nj j^q = defect(q, n)``, q = 0..s, so the corrected
    rule integrates every monomial up to degree s exactly.  Nodes ``n < s``
    get a reduced-degree correction (exactness on ``t^0 .. t^n`` only),
    since the rule at node n sees no later samples.
    O((s+1)^2 N) for N weights: the defects are nested prefix sums, each
    within ``(q+1) (n+1) eps (|w| * x^q)_n`` (:func:`_monomial_defects`),
    and the Vandermonde solves run elementwise over the nodes.  A table past
    binary64 raises DomainError: after the ``dt^alpha`` scale, or before any
    of that where ``Gamma(s+1+alpha)`` or ``dt^(+-alpha)`` pass e^700.
    """
    if weights.scheme.panel_based:
        raise DomainError(
            "starting corrections are defined for the convolution-"
            "quadrature schemes (GL / FLMM), not panel rules"
        )
    if not (isinstance(s, numbers.Integral) and 0 <= s <= 3):
        raise DomainError(f"correction degree must be in 0..3, got {s!r}")
    alpha, dt, n_max = weights.alpha, weights.dt, len(weights.values) - 1
    if not alpha > 0:
        raise DomainError("starting corrections apply to integral orders")
    message = (f"order {alpha!r} on {n_max + 1} nodes takes the degree-{s} "
               f"starting-weight table past binary64")
    if not max(math.lgamma(s + 1.0 + alpha), abs(alpha * math.log(dt))) < 700:
        raise DomainError(message)
    table = np.zeros((n_max + 1, s + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        defects = _monomial_defects(weights, s, n_max)
        table[s:] = _solve_rows(defects[:, s:], s)
        for n in range(min(s, n_max + 1)):
            table[n, : n + 1] = _solve_rows(defects[: n + 1, n: n + 1], n)[0]
        table *= dt**alpha
    if not np.isfinite(table).all():
        raise DomainError(message)
    table.setflags(write=False)
    return table


def _solve_rows(defect_cols: np.ndarray, s: int) -> np.ndarray:
    """Solve ``V mu = defect`` for each column; V[q, j] = j^q, 0^0 = 1.

    Bjorck-Pereyra for the dual Vandermonde system on the nodes j = 0..s
    (Golub & Van Loan, Alg. 4.6.2): integer products and quotients applied
    row by row, so each column is solved alone and gets the same bits
    however many columns are solved with it.
    """
    sol = np.array(defect_cols, dtype=float)
    for k in range(1, s):  # the step k = 0 multiplies by the node 0
        sol[k + 1:] -= k * sol[k:s]
    for k in range(s - 1, -1, -1):
        sol[k + 1:] /= k + 1
        sol[k:s] -= sol[k + 1:]
    return sol.T

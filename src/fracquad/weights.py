"""Convolution-quadrature weight generation.

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
    of ``((1 + z) / (2 (1 - z)))^alpha``: ``(dt/2)^alpha`` times the causal
    product of the cumprod series ``a_j = C(alpha, j)`` and ``b_j`` of
    ``(1 - z)^(-alpha)``, in binary64 (through the sum-of-exponentials
    engine from ``_MODES_CUTOFF`` weights); weight ``k`` is within
    ``(k+1) eps (dt/2)^alpha sum_j |a_j b_(k-j)|``.

The generic :func:`flmm_weights` raises an arbitrary implicit multistep
method ``(rho, sigma)`` to a real power via series division followed by the
J.C.P. Miller recurrence, an independent check on the closed forms.
Starting-weight corrections that restore polynomial exactness near the
origin are the read-only (N, s+1) array of :func:`starting_weight_table`:
the defects of the bare rule on ``t^0 .. t^s`` are nested prefix sums of
the weights, O((s+1)^2 N) with no convolution, each sum within
``(q+1) (n+1) eps`` times the same sum of absolute terms, and every node's
(s+1) x (s+1) Vandermonde system is solved on its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    DegenerateMethodError,
    DomainError,
    SingularSystemError,
)
from .special import gamma

__all__ = [
    "Scheme",
    "WeightSequence",
    "TRAPEZOID_RHO",
    "TRAPEZOID_SIGMA",
    "gl_weights",
    "nc0_weights",
    "flmm_weights",
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


#: Generating polynomials (ascending powers of zeta) of the implicit
#: trapezoidal method ``y_n = y_(n-1) + dt/2 (f_n + f_(n-1))``.
TRAPEZOID_RHO: tuple[float, ...] = (-1.0, 1.0)
TRAPEZOID_SIGMA: tuple[float, ...] = (0.5, 0.5)

_EULER_RHO: tuple[float, ...] = (-1.0, 1.0)
_EULER_SIGMA: tuple[float, ...] = (0.0, 1.0)


@dataclass(frozen=True)
class _FarField:
    """An ``fft`` engine pass: exact weights ``near`` of lags below 2 _BLOCK,
    far lags ``(+-1)^k scale int u^-order g(u) e^(-u k) du`` with g > 0."""

    near: np.ndarray
    order: float
    scale: float
    g: Callable[..., np.ndarray]
    alternating: bool = False


@dataclass(frozen=True)
class WeightSequence:
    """Weights of one (scheme, alpha, dt) convolution rule.

    ``alpha`` is the integral order; a negative value marks the
    derivative-role variant (order ``-alpha`` derivative), available for the
    GL family through the ``(1-z)^(-alpha)`` duality.  ``far_field`` holds
    the generators' integral form for the ``fft`` engine, pass by pass.
    """

    scheme: Scheme
    alpha: float
    dt: float
    values: np.ndarray
    far_field: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def truncated(self, length: int) -> "WeightSequence":
        """First ``length`` weights as a new sequence (short-memory use)."""
        if not 1 <= length <= len(self.values):
            raise DomainError(
                f"truncation length must be in [1, {len(self.values)}], "
                f"got {length}"
            )
        return WeightSequence(self.scheme, self.alpha, self.dt,
                              self.values[:length])


#: Block rows of the direct convolution; up to the cutoff one ``np.convolve``
#: call is faster (measured crossover 0.9-1.2e3 samples).
_BLOCK = 128
_LEAF_CUTOFF = 1024


def _causal_conv_direct(f: np.ndarray, c: np.ndarray,
                        block_lags: int | None = None) -> np.ndarray:
    """``out[n] = sum_(j <= n) c_j f_(n-j)`` for every node of ``f``.

    Rows of L = ``_BLOCK`` samples times the Toeplitz blocks
    ``T_d[r, s] = c[d L + r - s]`` of each block lag d: only the causal
    triangle is summed, each output within ``N * eps * (|f| * |c|)_n``, and
    the exact zeros above the diagonal keep the result bitwise causal.
    ``block_lags`` keeps only the block lags d below it.
    """
    n = len(f)
    c = c[:n]
    if n <= _LEAF_CUTOFF and block_lags is None:
        return np.convolve(f, c)[:n]
    rows = -(-n // _BLOCK)
    lags = min(rows, (len(c) + _BLOCK - 2) // _BLOCK + 1, block_lags or rows)
    c = c[: lags * _BLOCK]
    f_rows = np.zeros((rows, _BLOCK))
    f_rows.ravel()[:n] = f
    kernel = np.zeros((lags + 1) * _BLOCK - 1)
    kernel[_BLOCK - 1: _BLOCK - 1 + len(c)] = c
    windows = np.lib.stride_tricks.sliding_window_view(kernel, _BLOCK)
    out = np.zeros((rows, _BLOCK))
    for d in range(lags):
        block = windows[d * _BLOCK: (d + 1) * _BLOCK][::-1].copy()  # T_d.T
        out[d:] += f_rows[: rows - d] @ block
    return out.ravel()[:n]


#: Samples per pass from which the sum-of-exponentials engine beats the
#: direct path (measured crossover 2.8-3.1e3 for one pass, 5.1-5.6e3 for two).
_MODES_CUTOFF = 3000


def _causal_conv_modes(f: np.ndarray, weights: WeightSequence) -> np.ndarray:
    """:func:`_causal_conv_direct` in O(N (L + M)): per pass of the far
    field, block lags 0 and 1 exact and older rows through M same-signed
    modes, so bitwise causal and within ``N * eps * (|f| * |w|)_n``."""
    passes = weights.far_field
    if not passes or len(f) < _MODES_CUTOFF * len(passes):
        return _causal_conv_direct(f, weights.values)
    for far in passes:
        f = _causal_conv_direct(f, far.near, block_lags=2) + _far_lags(f, far)
    return f


def _far_lags(f: np.ndarray, far: _FarField) -> np.ndarray:
    """Rows two or more back: ``S_b = e^(-u L) (S_(b-1) + (F @ into)_(b-2))``
    by recursive doubling, then ``S_b @ (c_m e^(-u_m r))^T`` in row b."""
    u, c = _modes(far, len(f))
    rows = -(-len(f) // _BLOCK)
    f_rows = np.zeros((rows, _BLOCK))
    f_rows.ravel()[: len(f)] = f
    decay = np.exp(-np.outer(np.arange(_BLOCK + 1.0), u))  # e^(-u_m r)
    into, out_of = decay[:0:-1].copy(), c * decay[:-1]
    if far.alternating:  # (-1)^(L - s + r), L even
        into[1::2] *= -1.0
        out_of[1::2] *= -1.0
    state = np.zeros((rows, len(u)))
    state[2:] = (f_rows[:-2] @ into) * decay[-1]
    for j in range((rows - 1).bit_length()):
        state[1 << j:] += np.exp(-u * (_BLOCK << j)) * state[: -(1 << j)]
    return (state @ out_of.T).ravel()[: len(f)]


def _modes(far: _FarField, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``u_m``, same-signed ``c_m``: ``w_k ~ sum c_m e^(-u_m k)`` for lags
    L+1..n by Gauss-Jacobi (weight ``u^-order``) on [0, 1/n] and Legendre
    panels of width <= 2 in log u up to 40/(L+1), past which e^-uk < e^-40."""
    b = -far.order
    x, wx = _gauss_jacobi(b)
    leg_x, leg_w = _gauss_jacobi(0.0)
    lo, hi = -np.log(n), np.log(40.0 / (_BLOCK + 1))
    panels = int(np.ceil((hi - lo) / 2.0))
    width = (hi - lo) / panels
    v = (lo + width * (np.arange(panels)[:, None] + leg_x)).ravel()
    u = np.concatenate((x / n, np.exp(v)))
    c = np.concatenate((wx * n**-(1.0 + b) / (1.0 + b),
                        np.tile(width * leg_w, panels) * np.exp((1.0 + b) * v)))
    return u, far.scale * c * far.g(u, far.order)


def _gauss_jacobi(b: float) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss rule (Golub-Welsch) for the weight x^b on [0, 1]."""
    k = np.arange(1.0, 16.0)
    s = 2.0 * k + b
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    jacobi = np.diag(np.r_[b / (b + 2.0), b * b / (s * (s + 2.0))])
    nodes, vectors = np.linalg.eigh(jacobi + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vectors[0] ** 2


def _far_field(order: float, scale: float, near: np.ndarray,
               g: Callable[..., np.ndarray]) -> tuple[_FarField, ...]:
    """The pass ``scale sin(pi order) / pi int u^-order g e^(-u k) du`` over
    ``near`` (sin reflected for |order| near 1); none unless |order| < 1."""
    if not 0.0 < abs(order) < 1.0:
        return ()
    sin = np.sin(np.pi * min(abs(order), 1.0 - abs(order))) * np.sign(order)
    return (_FarField(near[: 2 * _BLOCK], order, scale * sin / np.pi, g),)


def _gl_g(u: np.ndarray, order: float) -> np.ndarray:
    """g of the Beta integral of the GL weights ``(-1)^k C(-order, k)``."""
    return np.exp(-u * order) * (u / -np.expm1(-u))**order


def _validate_common(alpha: float, dt: float, n: int) -> None:
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha!r}")
    if not 0.0 < dt < math.inf:
        raise DomainError(f"grid step must be positive and finite, "
                          f"got {dt!r}")
    if n < 1:
        raise DomainError(f"weight count must be >= 1, got {n}")


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
    values = np.cumprod(np.r_[1.0, (k - 1.0 + alpha) / k]) * dt**alpha
    return WeightSequence(Scheme.GL, alpha, dt, values,
                          _far_field(alpha, dt**alpha, values, _gl_g))


def nc0_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Zero-order Newton-Cotes panel weights
    ``dt^alpha / Gamma(alpha+1) * ((k+1)^alpha - k^alpha)``.

    The bracket is evaluated as ``k^alpha * expm1(alpha * log1p(1/k))`` so
    no digits are lost to cancellation at large ``k``.
    """
    _validate_common(alpha, dt, n)
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"NC0 weights require alpha > 0, got {alpha!r}")
    values = np.empty(n)
    values[0] = 1.0
    if n > 1:
        k = np.arange(1.0, n)
        values[1:] = np.exp(alpha * np.log(k)) * np.expm1(alpha * np.log1p(1.0 / k))
    values *= dt**alpha / gamma(alpha + 1.0)
    # t^(alpha-1) = int u^(-alpha) e^(-u t) du / Gamma(1-alpha), over [k, k+1]
    far = _far_field(alpha, dt**alpha, values, lambda u, a: -np.expm1(-u) / u)
    return WeightSequence(Scheme.NC0, alpha, dt, values, far)


def flmm_weights(
    numerator: Sequence[float],
    denominator: Sequence[float],
    alpha: float,
    dt: float,
    n: int,
    scheme: Scheme = Scheme.FLMM_TRAP,
) -> WeightSequence:
    """Fractional linear multistep weights for a method ``(rho, sigma)``.

    Parameters
    ----------
    numerator, denominator : sequence of float
        Coefficients of ``sigma`` and ``rho`` in ascending powers of zeta.
        The weight generating function is ``w(z) = sigma(1/z) / rho(1/z)``
        and the returned values are ``dt^alpha`` times the series
        coefficients of ``w(z)^alpha``.
    scheme : Scheme
        Tag recorded on the result; controls the convolution convention
        used downstream.

    The power series of the rational part comes from long division; the
    ``alpha``-th power from the J.C.P. Miller recurrence

        v_0 = u_0^alpha,
        v_m = (1 / (m u_0)) sum_{k=1..m} (k (alpha + 1) - m) u_k v_(m-k).

    Raises
    ------
    DegenerateMethodError
        If ``u_0 = 0``, i.e. the method is explicit and unusable here.
    """
    _validate_common(alpha, dt, n)
    alpha = float(alpha)
    num = _reversed_padded(numerator)
    den = _reversed_padded(denominator)
    if len(num) != len(den):
        longer = max(len(num), len(den))
        num = np.pad(num, (longer - len(num), 0))
        den = np.pad(den, (longer - len(den), 0))
    if den[0] == 0.0:
        raise DegenerateMethodError(
            "rho(1/z) normalization has no constant term; the method "
            "cannot define a weight series"
        )
    u = _series_divide(num, den, n)
    if u[0] == 0.0:
        raise DegenerateMethodError(
            "w(z) has no constant term (explicit method); fractional "
            "multistep rules must be implicit"
        )
    v = _series_power(u, alpha, n)
    v *= float(dt)**alpha
    return WeightSequence(scheme, alpha, dt, v)


def _reversed_padded(coeffs: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(coeffs), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("generating polynomial needs >= 1 coefficient")
    # zeta -> 1/z followed by clearing z powers == coefficient reversal
    return arr[::-1].copy()


def _series_divide(num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """First ``n`` coefficients of the power series ``num(z) / den(z)``."""
    out = np.zeros(n, dtype=np.longdouble)
    d0 = np.longdouble(den[0])
    for m in range(n):
        acc = np.longdouble(num[m]) if m < len(num) else np.longdouble(0.0)
        jmax = min(m, len(den) - 1)
        for j in range(1, jmax + 1):
            acc -= den[j] * out[m - j]
        out[m] = acc / d0
    return out


def _series_power(u: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """First ``n`` coefficients of ``u(z)^alpha`` via Miller's recurrence.

    The bracket pairs large terms of opposite sign, so the recurrence runs
    in extended precision and rounds to binary64 once at the end.
    """
    v = np.empty(n, dtype=np.longdouble)
    u = np.asarray(u, dtype=np.longdouble)
    alpha = np.longdouble(alpha)
    u0 = u[0]
    v[0] = u0**alpha
    ku = np.arange(len(u)) * u
    for m in range(1, n):
        us = u[1: m + 1]
        kus = ku[1: m + 1]
        vs = v[m - 1:: -1]
        v[m] = ((alpha + 1.0) * np.dot(kus, vs) - m * np.dot(us, vs)) / (m * u0)
    return v.astype(float)


def weights_for_scheme(scheme: Scheme, alpha: float, dt: float,
                       n: int) -> WeightSequence:
    """Generate weights for any supported scheme tag.

    ``Scheme.FLMM_TRAP``: ``w_k = (dt/2)^alpha sum_j C(alpha, j) b_(k-j)``,
    ``b`` the GL series at dt = 1, within ``(k+1) eps`` times the same sum
    of absolute terms, by the engine over ``b``'s far field from
    ``_MODES_CUTOFF`` weights (7-8 ms at N = 2^16 on one core); a negative
    ``alpha`` gives the derivative-role weights.
    """
    if scheme is Scheme.GL:
        return gl_weights(alpha, dt, n)
    if scheme is Scheme.NC0:
        return nc0_weights(alpha, dt, n)
    if scheme is Scheme.FLMM_TRAP:
        _validate_common(alpha, dt, n)
        b = gl_weights(alpha, 1.0, n)  # also rejects order 0
        alpha, k = b.alpha, np.arange(1.0, n)
        a = np.cumprod(np.r_[1.0, (alpha - (k - 1.0)) / k])
        scale = (dt / 2.0)**alpha
        values = _causal_conv_modes(a, b) * scale
        # (1+z)^alpha: GL(-alpha) modes at -z; then GL(alpha) at dt/2
        far = tuple(replace(p, alternating=True)
                    for p in _far_field(-alpha, 1.0, a, _gl_g))
        far += _far_field(alpha, scale, b.values[: 2 * _BLOCK] * scale, _gl_g)
        return WeightSequence(Scheme.FLMM_TRAP, alpha, dt, values, far)
    raise DomainError(f"unknown scheme {scheme!r}")


def euler_flmm_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Implicit-Euler multistep weights; coincide with :func:`gl_weights`."""
    return flmm_weights(_EULER_SIGMA, _EULER_RHO, alpha, dt, n,
                        scheme=Scheme.GL)


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
    and the Vandermonde solves run elementwise over the nodes.
    """
    if weights.scheme.panel_based:
        raise DomainError(
            "starting corrections are defined for the convolution-"
            "quadrature schemes (GL / FLMM), not panel rules"
        )
    if not 0 <= s <= 3:
        raise DomainError(f"correction degree must be in 0..3, got {s}")
    if not weights.alpha > 0:
        raise DomainError("starting corrections apply to integral orders")
    n_max = len(weights.values) - 1
    defects = _monomial_defects(weights, s, n_max)
    table = np.zeros((n_max + 1, s + 1))
    if n_max >= s:
        table[s:] = _solve_rows(defects[:, s:], s)
    for n in range(min(s, n_max + 1)):
        table[n, : n + 1] = _solve_rows(defects[: n + 1, n: n + 1], n)[0]
    table *= weights.dt**weights.alpha
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
    if not np.all(np.isfinite(sol)):
        raise SingularSystemError(
            f"starting-weight system of degree {s} produced non-finite "
            "corrections"
        )
    return sol.T

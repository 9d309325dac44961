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
    of ``((1 + z) / (2 (1 - z)))^alpha`` (:func:`weights_for_scheme`).

The generic :func:`flmm_weights` raises an arbitrary implicit multistep
method ``(rho, sigma)`` to a real power via series division followed by the
J.C.P. Miller recurrence, an independent check on the closed forms.
Starting-weight corrections that restore polynomial exactness near the
origin are the read-only (N, s+1) array of :func:`starting_weight_table`.
Weights of non-integer orders carry their integral form for the ``fft``
engine (``WeightSequence.far_field``): GL in (-64, 1), NC0 in (0, 1) and
FLMM_TRAP in (-1, 1), one term per branch cut, z > 1 and z < -1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .exceptions import (
    DegenerateMethodError,
    DomainError,
    SingularSystemError,
)
from .special import GAMMA_OVERFLOW_LIMIT, gamma

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
    """The ``fft`` engine's form of the weights of lags 2 _BLOCK and up:
    ``sum scale sin(pi order) / pi (+-1)^k int u^-order g(u, order) e^(-u k)
    du`` over the ``(g, order, scale, alternating)`` terms, g one-signed."""

    terms: tuple[tuple[Callable[..., np.ndarray], float, float, bool], ...]


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
    far_field: _FarField | None = field(default=None, compare=False,
                                        repr=False)

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


#: The sum-of-exponentials engine beats the direct path from _MODES_CUTOFF
#: samples for one mode term and 1.5 times that for two (measured crossover
#: 2.6-3.0e3 for one term, 4.3-5.0e3 for two, on 1 and 2 BLAS threads).
_MODES_CUTOFF = 3000


def _causal_conv_modes(f: np.ndarray, values: np.ndarray,
                       far: _FarField | None) -> np.ndarray:
    """:func:`_causal_conv_direct` in O(N (L + M)): block lags 0 and 1
    exact, older rows through M same-signed modes per term of ``far``, so
    bitwise causal and within ``N * eps * (|f| * |w|)_n`` per term."""
    if far is None or 2 * len(f) < _MODES_CUTOFF * (1 + len(far.terms)):
        return _causal_conv_direct(f, values)
    return _causal_conv_direct(f, values, block_lags=2) + _far_lags(f, far)


def _far_lags(f: np.ndarray, far: _FarField) -> np.ndarray:
    """Rows two or more back: ``S_b = e^(-u L) (S_(b-1) + (F @ into)_(b-2))``
    by recursive doubling, then ``S_b @ (c_m e^(-u_m r))^T`` in row b, the
    modes of every term side by side."""
    u, c, alternating = _modes(far, len(f))
    rows = -(-len(f) // _BLOCK)
    f_rows = np.zeros((rows, _BLOCK))
    f_rows.ravel()[: len(f)] = f
    decay = np.exp(-np.outer(np.arange(_BLOCK + 1.0), u))  # e^(-u_m r)
    into, out_of = decay[:0:-1].copy(), c * decay[:-1]
    into[1::2, alternating] *= -1.0  # (-1)^(L - s + r) on those modes, L even
    out_of[1::2, alternating] *= -1.0
    state = np.zeros((rows, len(u)))
    state[2:] = (f_rows[:-2] @ into) * decay[-1]
    for j in range((rows - 1).bit_length()):
        state[1 << j:] += np.exp(-u * (_BLOCK << j)) * state[: -(1 << j)]
    return (state @ out_of.T).ravel()[: len(f)]


def _modes(far: _FarField, n: int) -> tuple[np.ndarray, ...]:
    """``u_m``, same-signed ``c_m`` and alternating flags, term after term:
    ``w_k ~ sum c_m e^(-u_m k)`` for lags L+1..n by Gauss-Jacobi (weight
    ``u^b``, b = -order of the term) on [0, 1/n] and Legendre panels in
    log u up to X/(L+1), past which ``u^b e^(-uk)`` keeps less than e^-40 of
    its integral: X = 40 and panels of width <= 2 for b <= 1; above,
    X = 40 + 4 (b - 1) and width <= 2 / sqrt(b), its peak's width."""
    leg_x, leg_w = _gauss_jacobi(0.0)
    modes = []
    for g, order, scale, alternating in far.terms:
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
               ) -> _FarField | None:
    """The far field of the ``(g, order, scale, alternating)`` terms when
    every order is a non-integer in (-L/2, 1), None otherwise: from lag L+1
    on the integrands decay at least like ``e^(-u L/2)``."""
    if all(-_BLOCK / 2 < t[1] < 1.0 and t[1] != round(t[1]) for t in terms):
        return _FarField(terms)
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
    binary64 limit)."""
    if not math.isfinite(alpha):
        raise DomainError(f"order must be finite, got {alpha!r}")
    if not 0.0 < dt < math.inf:
        raise DomainError(f"grid step must be positive and finite, "
                          f"got {dt!r}")
    if n < 1:
        raise DomainError(f"weight count must be >= 1, got {n}")
    if panel_rule and not (0.0 < alpha <= GAMMA_OVERFLOW_LIMIT - 1.0 and max(
            -math.log(alpha), alpha * math.log(2.0 * n * max(dt, 1.0))) < 700):
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
    values = np.cumprod(np.r_[1.0, (k - 1.0 + alpha) / k]) * dt**alpha
    far = _far_field((_gl_g, alpha, dt**alpha, False))
    return WeightSequence(Scheme.GL, alpha, dt, values, far)


def nc0_weights(alpha: float, dt: float, n: int) -> WeightSequence:
    """Zero-order Newton-Cotes panel weights
    ``dt^alpha / Gamma(alpha+1) * ((k+1)^alpha - k^alpha)``.

    The bracket is evaluated as ``k^alpha * expm1(alpha * log1p(1/k))`` so
    no digits are lost to cancellation at large ``k``.
    """
    _validate_common(alpha, dt, n, "NC0 rule")
    alpha = float(alpha)
    values = np.empty(n)
    values[0] = 1.0
    if n > 1:
        k = np.arange(1.0, n)
        values[1:] = np.exp(alpha * np.log(k)) * np.expm1(alpha * np.log1p(1.0 / k))
    values *= dt**alpha / gamma(alpha + 1.0)
    # t^(alpha-1) = int u^(-alpha) e^(-u t) du / Gamma(1-alpha), over [k, k+1]
    box = (lambda u, a: -np.expm1(-u) / u, alpha, dt**alpha, False)
    far = _far_field(box)
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
    longer = max(len(numerator), len(denominator))
    num, den = (_reversed_padded(c, longer) for c in (numerator, denominator))
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


def _reversed_padded(coeffs: Sequence[float], length: int) -> np.ndarray:
    arr = np.asarray(list(coeffs), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("generating polynomial needs >= 1 coefficient")
    # zeta -> 1/z followed by clearing the same z powers from both
    # polynomials == coefficient reversal, the shorter one zero-led
    return np.pad(arr[::-1], (length - len(arr), 0))


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
        values = _causal_conv_modes(a, b.values, b.far_field) * (dt / 2)**alpha
        # the branch cuts z > 1 and z < -1 (the alternating term)
        far = _far_field((_flmm_g(0.5), alpha, dt**alpha, False),
                         (_flmm_g(2.0), -alpha, dt**alpha, True))
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

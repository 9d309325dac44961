"""References and tolerances that do not come from the code under test.

Every tolerance is one rounding bound,

    tol = EPS * max(m, M_FLOOR) * S,

where the checked quantity is written as a defining sum (or product) of
``m`` terms and ``S`` is the sum of the absolute values of those terms:

* a causal convolution ``out[n] = sum_k w_k f_(n-k)``: ``m = N`` (grid size)
  and ``S = (|f| * |w|)_n``; the reference is the same discrete convolution
  summed exactly (error-free products and ``math.fsum``);
* a weight ``w_k``: ``m = k + 1`` and ``S`` from the defining series in
  mpmath (for ``flmm-trap`` the product of the ``(1+z)^alpha`` and
  ``(1-z)^-alpha`` series);
* a closed form or special-function value: ``m`` is the number of terms of
  the positive defining series needed for binary64 accuracy and ``S`` its
  value, from mpmath;
* a Newton-Cotes rule on a polynomial it integrates exactly: ``m = N`` and
  ``S`` the exact integral of ``|f|`` (mpmath);
* a starting-corrected rule on a polynomial it integrates exactly:
  ``m = N + s + 1`` and ``S = (|f| * |w|)_n + sum_j |mu_nj f_j|``, with the
  starting weights ``mu`` recomputed here (:func:`starting_row`).

``EPS`` is the binary64 machine epsilon and ``M_FLOOR`` covers the few ulps
each of elementary functions, log-gamma and ``dt^alpha`` scaling.
``brute_force_rl`` additionally has its requested tolerance added, since
that is its contract.
None of these are fitted to measured output.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

EPS = 2.0 ** -52
M_FLOOR = 16

mp.mp.dps = 40

#: Accuracy failures the seed is known to have.  A failed check carries one
#: of these tags when it exercises that defect; any other failure makes the
#: run's ``correct`` false.
KNOWN_DEFECTS = {
    "fft-absolute-error":
        "the FFT path's rounding error is absolute, so growing signals "
        "(e^t on [0, 40]) lose all digits at early nodes",
    "incgamma-alternating-series":
        "lower_incomplete_gamma sums the alternating Taylor series up to "
        "t = 20 and sheds digits to cancellation (2.6e-7 at t=19.9, a=2.5)",
    "nc3-moment-drift":
        "frac_newton_cotes p=3 expands moments around t_n and loses "
        "exactness on quadratics as N grows",
}


def tol(m: int, s: float) -> float:
    return EPS * max(int(m), M_FLOOR) * float(s)


class Check:
    """One comparison of a program output with its reference."""

    __slots__ = ("what", "err", "bound", "layer", "defect", "rel")

    def __init__(self, what, err, bound, layer, defect=None, rel=None):
        self.what = what
        self.err = float(err)
        self.bound = float(bound)
        self.layer = layer
        self.defect = defect
        self.rel = rel

    @property
    def ok(self) -> bool:
        return self.err <= self.bound

    @property
    def ratio(self) -> float:
        if self.bound > 0.0:
            return self.err / self.bound
        return 0.0 if self.err == 0.0 else math.inf


# ------------------------------------------------------------ convolution
def _split(a: np.ndarray):
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def exact_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum a_i b_i`` rounded once: Dekker products summed by fsum."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return math.fsum(np.concatenate([p, e]))


def conv_at(f: np.ndarray, w: np.ndarray, n: int, panel: bool = False):
    """Exact causal convolution at node ``n`` and its absolute sum ``S``.

    Node rules: ``sum_{k<=n} w_k f_(n-k)``; panel rules:
    ``sum_{k<n} f_k w_(n-1-k)`` with node 0 equal to 0.
    """
    if panel:
        if n == 0:
            return 0.0, 0.0
        n -= 1
    a = f[: n + 1]
    b = w[n::-1]
    return exact_dot(a, b), float(np.dot(np.abs(a), np.abs(b)))


def check_conv(what, out, f, w, nodes, layer="quadrature", panel=False,
               defect=None, scale=1.0):
    """Checks of ``out`` against the exact convolution at probe ``nodes``."""
    n_grid = len(out)
    checks = []
    worst = None
    for n in nodes:
        ref, s = conv_at(f, w, n, panel)
        ref *= scale
        c = Check(f"{what}@{n}", abs(out[n] - ref),
                  tol(n_grid, abs(scale) * s), layer, defect)
        if worst is None or c.ratio > worst.ratio:
            worst = c
    if worst is not None:
        checks.append(worst)
    return checks


def probe_nodes(rng, n: int, count: int = 6) -> list[int]:
    """Fixed structural nodes plus seeded interior ones."""
    fixed = {0, 1, 2, n // 2, n - 1}
    fixed.update(int(x) for x in rng.integers(3, max(n - 1, 4), count))
    return sorted(x for x in fixed if 0 <= x < n)


# ---------------------------------------------------------------- weights
def gl_weight(alpha: float, dt: float, k: int):
    """``dt^alpha (-1)^k C(-alpha, k)`` and its absolute sum (a product)."""
    v = mp.rf(mp.mpf(alpha), k) / mp.factorial(k) * mp.mpf(dt) ** alpha
    return v, abs(v), k + 1


def nc0_weight(alpha: float, dt: float, k: int):
    a = mp.mpf(alpha)
    scale = mp.mpf(dt) ** a / mp.gamma(a + 1)
    hi, lo = mp.mpf(k + 1) ** a, mp.mpf(k) ** a
    return scale * (hi - lo), scale * (hi + lo), 2


class FlmmSeries:
    """``flmm-trap`` weights as the product of two binomial series."""

    def __init__(self, alpha: float, dt: float, kmax: int):
        a = mp.mpf(alpha)
        self.scale = mp.mpf(2) ** (-a) * mp.mpf(dt) ** a
        plus = [mp.mpf(1)]
        minus = [mp.mpf(1)]
        for j in range(1, kmax + 1):
            plus.append(plus[-1] * (a - j + 1) / j)
            minus.append(minus[-1] * (j - 1 + a) / j)
        self.plus, self.minus = plus, minus

    def weight(self, k: int):
        terms = [self.plus[j] * self.minus[k - j] for j in range(k + 1)]
        return (self.scale * mp.fsum(terms),
                self.scale * mp.fsum(abs(t) for t in terms), k + 1)


def starting_row(w: np.ndarray, alpha: float, dt: float, s: int,
                 n: int) -> np.ndarray:
    """Starting weights ``mu_(n,0..s)`` recomputed outside the program.

    Solves ``sum_j mu_j j^q = I^alpha[t^q](t_n) - sum_k w_k t_(n-k)^q``
    (q = 0..s) with the exact side from mpmath and the convolution summed
    exactly; only the size of the result is used, as the scale of the
    starting terms in the corrected rule's defining sum.
    """
    t = np.arange(n + 1, dtype=float) * dt
    defects = []
    for q in range(s + 1):
        powers = t ** q if q else np.ones(n + 1)
        exact = frac_integral_monomial(n * dt, alpha, q)[0]
        defects.append(float(exact - exact_dot(w[: n + 1], powers[::-1])))
    vander = np.array([[(i * dt) ** q if q else 1.0 for i in range(s + 1)]
                       for q in range(s + 1)])
    return np.linalg.solve(vander, np.array(defects))


def check_weights(what, values, ref_fn, ks, layer="weights"):
    """Worst relative error of ``values`` at indices ``ks`` as a Check.

    ``Check.rel`` keeps the relative error for the ``max_rel_err`` metric.
    """
    worst = None
    for k in ks:
        ref, s, m = ref_fn(k)
        err = abs(mp.mpf(float(values[k])) - ref)
        c = Check(f"{what}[{k}]", err, tol(m, s), layer,
                  rel=float(err / abs(ref)) if ref != 0 else float(err))
        if worst is None or c.ratio > worst.ratio:
            worst = c
    return [worst] if worst is not None else []


def weight_indices(rng, n: int) -> list[int]:
    fixed = {0, 1, 2, n - 1}
    fixed.update(int(x) for x in rng.integers(3, max(n - 1, 4), 3))
    return sorted(k for k in fixed if 0 <= k < n)


# ------------------------------------------------------ closed forms (mp)
def series_terms(t: float, a: float) -> int:
    """Terms of ``e^-t t^a sum t^n / (a (a+1) ... (a+n))`` to full accuracy."""
    if t <= 0.0:
        return 1
    term, total, n = 1.0 / a, 1.0 / a, 0
    while term > 2.0 ** -53 * total and n < 100_000:
        n += 1
        term *= t / (a + n)
        total += term
    return n + 1


def frac_integral_exp(t: float, a: float):
    """``I^a[e^u](t) = e^t gamma_lower(a, t) / Gamma(a)``, its size and m."""
    if t == 0.0:
        return mp.mpf(0), mp.mpf(0), 1
    v = mp.exp(t) * mp.gammainc(a, 0, t) / mp.gamma(a)
    return v, abs(v), series_terms(t, a)


def frac_derivative_exp(t: float, a: float):
    """``(e^t gamma_lower(1-a, t) + t^-a) / Gamma(1-a)`` for 0 < a < 1."""
    b = 1 - mp.mpf(a)
    lower = mp.exp(t) * mp.gammainc(b, 0, t)
    pole = mp.mpf(t) ** (-a)
    v = (lower + pole) / mp.gamma(b)
    return v, abs(v), series_terms(t, float(b))


def frac_integral_monomial(t: float, a: float, q: int):
    v = mp.gamma(q + 1) / mp.gamma(q + 1 + a) * mp.mpf(t) ** (q + a)
    return v, abs(v), M_FLOOR


def frac_integral_poly(t: float, a: float, coeffs) -> tuple:
    """Exact ``I^a`` of a polynomial and of its absolute value's terms."""
    v = mp.mpf(0)
    s = mp.mpf(0)
    for q, c in enumerate(coeffs):
        if c:
            term = c * frac_integral_monomial(t, a, q)[0]
            v += term
            s += abs(term)
    return v, s


def frac_integral_sin(t: float, a: float, omega: float):
    """``I^a[sin(omega u)](t)`` by its power series, summed in mpmath."""
    t, a, w = mp.mpf(t), mp.mpf(a), mp.mpf(omega)
    if t == 0:
        return mp.mpf(0)
    total = mp.mpf(0)
    k = 0
    while True:
        term = (-1) ** k * w ** (2 * k + 1) * t ** (2 * k + 1 + a) / \
            mp.gamma(2 * k + 2 + a)
        total += term
        if k > 4 and abs(term) < mp.mpf(10) ** (-mp.mp.dps) * (abs(total) + 1):
            return total
        k += 1


def check_value(what, got, ref, s, m, layer, defect=None, extra=0.0):
    err = abs(mp.mpf(float(got)) - ref)
    rel = float(err / abs(ref)) if ref != 0 else float(err)
    return Check(what, err, tol(m, s) + extra, layer, defect, rel)

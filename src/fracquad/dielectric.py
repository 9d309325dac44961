"""Linear dielectric response models and the fractional polarization law.

Frequency-domain susceptibilities follow the physics sign convention of a
``exp(-j omega t)`` time dependence, under which every dissipative response
carries a *positive* imaginary part:

* Debye:    ``chi(w) = (N / eps0) tau / (1 - j w tau)``
* Lorentz:  ``chi(w) = (N / eps0) sum_i f_i / ((w_i^2 - w^2) - j g_i w)``
* universal power law: ``chi(w) = scale * w^(n-1) exp(+j pi (1 - n) / 2)``,
  the high-frequency ``(j w)^(n-1)`` branch consistent with the two models
  above; its loss tangent ``chi''/chi' = cot(n pi / 2)`` is frequency-free.

In the time domain the same power law is realized causally as a fractional
integral of the driving field, ``P(t) = eps0 * I^alpha[E](t)`` with
``alpha = 1 - n``, and :func:`verify_universal_ratio` closes the loop by
re-extracting the loss tangent from a steady-state sinusoid fit of that
time-domain response.  All quantities are dimensionless model units: the
density N carries the coupling (the dipole coupling for Debye, e^2/m for
Lorentz), and the fractional constitutive law absorbs a time^alpha scale
that the frequency picture never sees.  N, eps0, tau and scale are positive
and finite; omega is finite and >= 0 (> 0 for the power law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, FitError
from .quadrature import SampledSignal, UniformGrid, frac_integral
from .weights import _MAX_COUNT, Scheme, _positive, weights_for_scheme

__all__ = [
    "UniversalResponse",
    "DebyeModel",
    "LorentzMode",
    "LorentzEnsemble",
    "RatioCheck",
    "universal_susceptibility",
    "debye_susceptibility",
    "lorentz_susceptibility",
    "fractional_polarization",
    "verify_universal_ratio",
]


@dataclass(frozen=True)
class UniversalResponse:
    """High-frequency power-law response with exponent ``n_exp`` in (0, 1)."""

    n_exp: float

    def __post_init__(self) -> None:
        if not 0.0 < self.n_exp < 1.0:
            raise DomainError(
                f"power-law exponent must lie in (0, 1), got {self.n_exp!r}"
            )

    @property
    def alpha(self) -> float:
        """Order of the equivalent fractional integral, ``1 - n_exp``."""
        return 1.0 - self.n_exp


@dataclass(frozen=True)
class DebyeModel:
    """Single-relaxation-time dipole model; ``n_density`` carries the
    dipole coupling."""

    n_density: float = 1.0
    tau: float = 1.0
    eps0: float = 1.0

    def __post_init__(self) -> None:
        _positive(n_density=self.n_density, tau=self.tau, eps0=self.eps0)


class LorentzMode(NamedTuple):
    weight: float
    omega: float
    damping: float


@dataclass(frozen=True)
class LorentzEnsemble:
    """Damped-oscillator electron ensemble.

    ``modes`` holds finite ``(weight, omega, damping)`` triples, weight >= 0
    and omega, damping > 0.
    """

    modes: tuple[LorentzMode, ...]
    n_density: float = 1.0
    eps0: float = 1.0

    def __post_init__(self) -> None:
        modes = tuple(LorentzMode(*m) for m in self.modes)
        if not modes:
            raise DomainError("ensemble needs at least one mode")
        _positive(n_density=self.n_density, eps0=self.eps0)
        for m in modes:
            if not (all(map(math.isfinite, m)) and m.weight >= 0.0
                    and m.omega > 0.0 and m.damping > 0.0):
                raise DomainError(f"invalid mode {m}")
        object.__setattr__(self, "modes", modes)


def _finite(omega) -> np.ndarray:
    """``omega`` as a float array, every entry finite and >= 0."""
    omega = np.asarray(omega, dtype=float)
    if not np.all((omega >= 0.0) & (omega < math.inf)):
        raise DomainError("omega must be finite and >= 0")
    return omega


def _result(chi: np.ndarray, model: str):
    """``chi``, a complex for a scalar omega; a cell past binary64 raises
    DomainError naming the susceptibility."""
    if not np.all(np.isfinite(chi)):
        raise DomainError(f"{model} susceptibility leaves the binary64 range")
    return chi if chi.ndim else complex(chi)


def universal_susceptibility(model: UniversalResponse, omega,
                             scale: float = 1.0):
    """Power-law susceptibility ``scale * (j omega)^(n-1)``.

    The fractional power is taken on the branch of the ``exp(-j omega t)``
    convention, ``omega^(n-1) * exp(+j pi (1-n)/2)``, which keeps the loss
    part positive and the ratio ``chi''/chi' = cot(n pi/2)``.
    """
    _positive(scale=scale)
    omega = _finite(omega)
    if np.any(omega <= 0.0):
        raise DomainError("the power law is defined for omega > 0 only")
    n = model.n_exp
    phase = complex(math.cos(0.5 * math.pi * (1.0 - n)),
                    math.sin(0.5 * math.pi * (1.0 - n)))
    with np.errstate(over="ignore", invalid="ignore"):
        chi = scale * omega**(n - 1.0) * phase
    return _result(chi, "universal")


def debye_susceptibility(model: DebyeModel, omega):
    """Debye susceptibility ``(N / eps0) tau / (1 - j omega tau)``, N
    carrying the dipole coupling."""
    omega = _finite(omega)
    static = model.n_density * model.tau / model.eps0
    with np.errstate(over="ignore", invalid="ignore"):
        chi = static / (1.0 - 1j * omega * model.tau)
    return _result(chi, "Debye")


def lorentz_susceptibility(model: LorentzEnsemble, omega):
    """Oscillator-ensemble susceptibility.

    ``(N / eps0) sum_i f_i / ((w_i^2 - w^2) - j g_i w)``, N carrying e^2/m;
    a cell past binary64, as at a near-lossless resonance, raises DomainError.
    """
    omega = _finite(omega)
    prefactor = model.n_density / model.eps0
    chi = np.zeros(omega.shape, dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for mode in model.modes:
            denom = ((mode.omega * mode.omega - omega * omega)
                     - 1j * mode.damping * omega)
            chi = chi + mode.weight / denom
        chi = prefactor * chi
    return _result(chi, "Lorentz")


def fractional_polarization(
    e_field: SampledSignal,
    alpha: float,
    eps0: float = 1.0,
    scheme: Scheme = Scheme.GL,
    method: str = "direct",
) -> SampledSignal:
    """Time-domain polarization ``P = eps0 * I^alpha[E]``.

    A causal convolution: with either method, ``P`` at a node is
    bit-identical no matter what later field samples hold.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    _positive(eps0=eps0)
    grid = e_field.grid
    weights = weights_for_scheme(scheme, alpha, grid.dt, grid.n)
    out = frac_integral(e_field, weights, method=method)
    with np.errstate(over="ignore", invalid="ignore"):
        p = eps0 * out.values
    return e_field.replace_values(p, f"polarization of order {alpha!r}")


def _time_grid(dt: float, t_end: float) -> UniformGrid:
    """The grid of step ``dt`` whose last node is nearest ``t_end``."""
    _positive(dt=dt, t_end=t_end)
    if not t_end / dt < _MAX_COUNT:
        raise DomainError(f"dt and t_end need a finite ratio t_end / dt < "
                          f"{_MAX_COUNT}, got dt={dt!r}, t_end={t_end!r}")
    return UniformGrid(dt, int(round(t_end / dt)) + 1)


class RatioCheck(NamedTuple):
    """Analytic vs. time-domain-extracted loss tangent."""

    analytic: float
    numeric: float
    amplitude_ratio: float
    phase_lag: float
    fit_residual: float


def verify_universal_ratio(
    n_exp: float,
    omega0: float = 2.0 * math.pi,
    dt: float = 5e-4,
    t_end: float = 20.0,
    scheme: Scheme = Scheme.GL,
) -> RatioCheck:
    """Re-derive ``chi''/chi' = cot(n pi/2)`` from a time-domain run.

    Drives the fractional polarization with ``sin(omega0 t)``, fits the
    window ``[0.75 t_end, t_end]`` with a sinusoid plus a slow algebraic
    drift term (the start-up transient decays like ``t^(alpha-1)``), and
    converts the fitted phase lag into a loss tangent ``tan(phase_lag)``.
    The polarization runs through the ``fft`` path (the
    sum-of-exponentials engine), since runs are long.  ``FitError`` if the
    fit has rank below 4, condition above 1e8 (half the digits gone; about
    108 on the default grid) or a residual above 5 % of the amplitude.

    ``numeric`` is the lag of the rule, not of the continuous model.  GL's
    symbol ``dt^alpha (1 - e^(-i omega0 dt))^(-alpha)`` lags by ``alpha
    (pi/2 - omega0 dt/2)``, alpha = 1 - n, so on a coarse grid ``numeric`` is the tan of
    that: 0.4142 = tan(pi/8) at (n, dt) = (0.5, 0.25), not 1.
    ``Scheme.FLMM_TRAP``'s symbol lags by exactly ``alpha pi/2``, so its
    ratio is the analytic one at any dt.
    """
    model = UniversalResponse(n_exp)
    alpha = model.alpha
    _positive(**{"probe frequency": omega0})
    grid = _time_grid(dt, t_end)
    t = grid.nodes
    field = SampledSignal.sample(lambda u: np.sin(omega0 * u), grid)
    pol = fractional_polarization(field, alpha, scheme=scheme, method="fft")

    window = t >= 0.75 * t_end
    tw = t[window]
    pw = pol.values[window]
    design = np.column_stack([
        np.sin(omega0 * tw),
        np.cos(omega0 * tw),
        np.ones_like(tw),
        tw**(alpha - 1.0),
    ])
    coef, _, rank, sv = np.linalg.lstsq(design, pw, rcond=None)
    if rank < design.shape[1] or sv[0] > 1e8 * sv[-1]:
        raise FitError(
            f"sinusoid fit over {len(tw)} samples is rank-deficient or "
            f"ill-conditioned (rank {rank}, singular values "
            f"{max(sv, default=0.0):.3g} down to {min(sv, default=0.0):.3g})"
        )
    a_sin, b_cos = coef[0], coef[1]
    amplitude = math.hypot(a_sin, b_cos)
    residual = pw - design @ coef
    rms = math.sqrt(float(np.mean(residual**2)))
    if rms > 0.05 * amplitude:
        raise FitError(
            f"sinusoid fit residual {rms:.3g} exceeds 5% of the fitted "
            f"amplitude {amplitude:.3g}"
        )
    phase_lag = -math.atan2(b_cos, a_sin)
    numeric = math.tan(phase_lag)
    analytic = 1.0 / math.tan(0.5 * math.pi * n_exp)
    return RatioCheck(
        analytic=analytic,
        numeric=numeric,
        amplitude_ratio=amplitude / omega0**(-alpha),
        phase_lag=phase_lag,
        fit_residual=rms,
    )

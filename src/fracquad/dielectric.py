"""Linear dielectric response models and the fractional polarization law.

Frequency-domain susceptibilities follow the physics sign convention of a
``exp(-j omega t)`` time dependence, under which every dissipative response
carries a *positive* imaginary part:

* Debye:    ``chi(w) = (1/eps0) N a tau / (1 - j w tau)``
* Lorentz:  ``chi(w) = (N / eps0) sum_i f_i / ((w_i^2 - w^2) - j g_i w)``
* universal power law: ``chi(w) = scale * w^(n-1) exp(+j pi (1 - n) / 2)``,
  the high-frequency ``(j w)^(n-1)`` branch consistent with the two models
  above; its loss tangent ``chi''/chi' = cot(n pi / 2)`` is frequency-free.

In the time domain the same power law is realized causally as a fractional
integral of the driving field, ``P(t) = eps0 * I^alpha[E](t)`` with
``alpha = 1 - n``, and :func:`verify_universal_ratio` closes the loop by
re-extracting the loss tangent from a steady-state sinusoid fit of that
time-domain response.  All quantities are dimensionless model units: the
Lorentz density N carries e^2/m, and the fractional constitutive law absorbs
a time^alpha scale that the frequency picture never sees.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, FitError, ResonanceWarning
from .quadrature import SampledSignal, UniformGrid, frac_integral
from .weights import Scheme, weights_for_scheme

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
    """Single-relaxation-time dipole model."""

    n_density: float = 1.0
    a_coupling: float = 1.0
    tau: float = 1.0
    eps0: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.n_density, self.a_coupling,
                                       self.tau, self.eps0))):
            raise DomainError(f"Debye parameters must be finite, got {self}")
        if not self.tau > 0.0:
            raise DomainError(f"relaxation time must be positive, got {self.tau!r}")
        if not min(self.n_density, self.a_coupling, self.eps0) > 0.0:
            raise DomainError("density, coupling and eps0 must be positive")


class LorentzMode(NamedTuple):
    weight: float
    omega: float
    damping: float


@dataclass(frozen=True)
class LorentzEnsemble:
    """Damped-oscillator electron ensemble.

    ``modes`` holds ``(weight, omega, damping)`` triples; the weights must
    add up to the electrons-per-molecule count declared at construction.
    """

    modes: tuple[LorentzMode, ...]
    n_density: float = 1.0
    eps0: float = 1.0
    electrons_per_molecule: float | None = None

    def __post_init__(self) -> None:
        modes = tuple(LorentzMode(*m) for m in self.modes)
        if not modes:
            raise DomainError("ensemble needs at least one mode")
        if not all(map(math.isfinite, (self.n_density, self.eps0))):
            raise DomainError("ensemble constants must be finite")
        if not min(self.n_density, self.eps0) > 0.0:
            raise DomainError("density and eps0 must be positive")
        for m in modes:
            if not (all(map(math.isfinite, m)) and m.weight >= 0.0
                    and m.omega > 0.0 and m.damping >= 0.0):
                raise DomainError(f"invalid mode {m}")
        object.__setattr__(self, "modes", modes)
        total = sum(m.weight for m in modes)
        declared = self.electrons_per_molecule
        if declared is None:
            object.__setattr__(self, "electrons_per_molecule", total)
        elif not math.isclose(total, declared, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError(
                f"mode weights sum to {total:g}, expected "
                f"{declared:g} electrons per molecule"
            )


def _finite(omega) -> np.ndarray:
    """``omega`` as a float array, every entry finite."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise DomainError("omega must be finite")
    return omega


def _result(chi: np.ndarray, model: str, pole=False):
    """``chi``, a complex for a scalar omega; a cell past binary64, other
    than a warned pole, raises DomainError naming the susceptibility."""
    if not np.all(np.isfinite(chi) | pole):
        raise DomainError(f"{model} susceptibility leaves the binary64 range")
    return chi if chi.ndim else complex(chi)


def universal_susceptibility(model: UniversalResponse, omega,
                             scale: float = 1.0):
    """Power-law susceptibility ``scale * (j omega)^(n-1)``.

    The fractional power is taken on the branch of the ``exp(-j omega t)``
    convention, ``omega^(n-1) * exp(+j pi (1-n)/2)``, which keeps the loss
    part positive and the ratio ``chi''/chi' = cot(n pi/2)``.
    """
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale!r}")
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
    """Debye susceptibility ``(1/eps0) N a tau / (1 - j omega tau)``."""
    omega = _finite(omega)
    static = model.n_density * model.a_coupling * model.tau / model.eps0
    with np.errstate(over="ignore", invalid="ignore"):
        chi = static / (1.0 - 1j * omega * model.tau)
    return _result(chi, "Debye")


def lorentz_susceptibility(model: LorentzEnsemble, omega):
    """Oscillator-ensemble susceptibility.

    ``(N / eps0) sum_i f_i / ((w_i^2 - w^2) - j g_i w)``, N carrying e^2/m.
    Emits a :class:`ResonanceWarning` (and yields an infinite value at the
    exact pole) when probed at or next to an undamped resonance.
    """
    omega = _finite(omega)
    if np.any(omega < 0.0):
        raise DomainError("omega must be >= 0")
    prefactor = model.n_density / model.eps0
    chi = np.zeros(omega.shape, dtype=complex)
    pole = np.zeros(omega.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for mode in model.modes:
            denom = ((mode.omega * mode.omega - omega * omega)
                     - 1j * mode.damping * omega)
            near = np.abs(omega - mode.omega) < mode.damping / 100.0
            at_pole = denom == 0.0
            pole |= at_pole
            if np.any(near) or np.any(at_pole):
                warnings.warn(
                    f"evaluation within gamma/100 of the resonance at "
                    f"omega={mode.omega:g}",
                    ResonanceWarning,
                    stacklevel=2,
                )
            term = np.where(at_pole,
                            np.inf + 0j,
                            mode.weight / np.where(at_pole, 1.0, denom))
            chi = chi + term
        chi = prefactor * chi
    return _result(chi, "Lorentz", pole)


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
    if not math.isfinite(eps0):
        raise DomainError(f"eps0 must be finite, got {eps0!r}")
    grid = e_field.grid
    weights = weights_for_scheme(scheme, alpha, grid.dt, grid.n)
    out = frac_integral(e_field, weights, method=method)
    with np.errstate(over="ignore", invalid="ignore"):
        p = eps0 * out.values
    return e_field.replace_values(p, f"polarization of order {alpha!r}")


def _time_grid(dt: float, t_end: float) -> UniformGrid:
    """The grid of step ``dt`` whose last node is nearest ``t_end``."""
    if not (0.0 < dt < math.inf and 0.0 < t_end < math.inf
            and t_end / dt < math.inf):
        raise DomainError(f"dt and t_end must be positive and finite, with a "
                          f"finite ratio, got dt={dt!r}, t_end={t_end!r}")
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
    if not 0.0 < omega0 < math.inf:
        raise DomainError(f"probe frequency must be positive and finite, "
                          f"got {omega0!r}")
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

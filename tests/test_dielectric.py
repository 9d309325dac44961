import math

import numpy as np
import pytest

from fracquad.dielectric import (
    DebyeModel,
    LorentzEnsemble,
    RatioCheck,
    UniversalResponse,
    debye_susceptibility,
    fractional_polarization,
    lorentz_susceptibility,
    universal_susceptibility,
    verify_universal_ratio,
)
from fracquad.exceptions import DomainError, FitError, ResonanceWarning
from fracquad.oracle import exact_integral_const
from fracquad.quadrature import SampledSignal, UniformGrid
from fracquad.weights import Scheme


def test_universal_response_validation():
    assert UniversalResponse(0.3).alpha == pytest.approx(0.7)
    with pytest.raises(DomainError):
        UniversalResponse(0.0)
    with pytest.raises(DomainError):
        UniversalResponse(1.0)


def test_universal_susceptibility_ratio_and_modulus():
    model = UniversalResponse(0.5)
    for omega in (0.1, 1.0, 7.3, 250.0):
        chi = universal_susceptibility(model, omega)
        assert chi.imag / chi.real == pytest.approx(1.0, rel=1e-12)
    model_q = UniversalResponse(0.25)
    chi = universal_susceptibility(model_q, 10.0)
    assert abs(chi) == pytest.approx(10.0**-0.75, rel=1e-13)
    assert abs(math.atan2(chi.imag, chi.real)) == pytest.approx(
        0.75 * math.pi / 2.0, rel=1e-13)
    # loss part stays positive, matching the damped models below
    assert chi.imag > 0.0


def test_universal_susceptibility_flat_limit():
    model = UniversalResponse(1.0 - 1e-9)
    for omega in (0.5, 5.0, 50.0):
        chi = universal_susceptibility(model, omega, scale=2.0)
        assert abs(chi) == pytest.approx(2.0, rel=1e-6)


def test_universal_susceptibility_domain():
    model = UniversalResponse(0.5)
    with pytest.raises(DomainError):
        universal_susceptibility(model, 0.0)
    with pytest.raises(DomainError):
        universal_susceptibility(model, -1.0)
    with pytest.raises(DomainError):
        universal_susceptibility(model, 1.0, scale=0.0)


def test_debye_static_and_knee():
    model = DebyeModel(n_density=2.0, a_coupling=3.0, tau=0.5, eps0=1.5)
    static = 2.0 * 3.0 * 0.5 / 1.5
    assert debye_susceptibility(model, 0.0) == pytest.approx(static)
    knee = debye_susceptibility(model, 1.0 / model.tau)
    assert abs(knee) == pytest.approx(static / math.sqrt(2.0), rel=1e-13)
    assert math.atan2(knee.imag, knee.real) == pytest.approx(
        math.pi / 4.0, rel=1e-13)


def test_debye_high_frequency_tail():
    model = DebyeModel(tau=1.0)
    omegas = np.geomspace(1e3, 1e5, 41)
    chi = debye_susceptibility(model, omegas)
    slope = np.polyfit(np.log(omegas), np.log(np.abs(chi)), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)
    assert abs(np.angle(chi[-1]) - math.pi / 2.0) < 0.01


def test_lorentz_static_and_tail():
    single = LorentzEnsemble(modes=((2.0, 3.0, 0.1),))
    assert lorentz_susceptibility(single, 0.0) == pytest.approx(2.0 / 9.0)

    double = LorentzEnsemble(modes=((1.0, 1.0, 0.05), (2.0, 3.0, 0.1)))
    omegas = np.geomspace(1e2, 1e4, 31)
    chi = lorentz_susceptibility(double, omegas)
    slope = np.polyfit(np.log(omegas), np.log(np.abs(chi)), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.01)
    # -(sum f_i)/omega^2 asymptote
    assert chi[-1].real == pytest.approx(-3.0 / omegas[-1] ** 2, rel=1e-3)


def test_lorentz_undamped_resonance_flagged():
    model = LorentzEnsemble(modes=((1.0, 2.0, 0.0),))
    with pytest.warns(ResonanceWarning):
        value = lorentz_susceptibility(model, 2.0)
    assert np.isinf(abs(value))


def test_lorentz_weight_budget():
    LorentzEnsemble(modes=((1.0, 1.0, 0.1), (2.0, 2.0, 0.1)),
                    electrons_per_molecule=3.0)
    with pytest.raises(DomainError):
        LorentzEnsemble(modes=((1.0, 1.0, 0.1),), electrons_per_molecule=2.0)


@pytest.mark.parametrize("constant", [
    {"n_density": -1.0}, {"n_density": 0.0}, {"eps0": 0.0}, {"eps0": -1.0},
], ids=repr)
def test_lorentz_nonpositive_constants_rejected(constant):
    # the prefactor N / eps0: a zero divides by zero or gives chi = 0, a
    # negative value flips the sign of chi
    with pytest.raises(DomainError, match="positive"):
        LorentzEnsemble(((1.0, 1.0, 0.1),), **constant)


@pytest.mark.parametrize("constant", [
    {"a_coupling": -1.0}, {"a_coupling": 0.0}, {"n_density": 0.0},
    {"eps0": -1.0},
], ids=repr)
def test_debye_nonpositive_constants_rejected(constant):
    # the static value N a tau / eps0: a zero coupling gives chi = 0, a
    # negative one flips the sign of chi (an active medium)
    with pytest.raises(DomainError, match="positive"):
        DebyeModel(**constant)


def test_fractional_polarization_constant_field():
    grid = UniformGrid(0.01, 501)
    field = SampledSignal(grid, np.full(grid.n, 2.0))
    pol = fractional_polarization(field, 0.5, eps0=3.0).values
    t = grid.nodes
    sel = t >= 1.0
    want = np.array([3.0 * exact_integral_const(x, 0.5, 2.0)
                     for x in t[sel]])
    rel = np.abs(pol[sel] - want) / want
    assert rel.max() < 5e-3


def test_fractional_polarization_sinusoid_steady_state():
    omega0 = 2.0 * math.pi
    alpha = 0.5
    grid = UniformGrid(1e-3, 20001)
    t = grid.nodes
    field = SampledSignal(grid, np.sin(omega0 * t))
    pol = fractional_polarization(field, alpha, method="fft").values
    sel = t >= 15.0
    # least-squares sinusoid + drift decomposition of the window
    design = np.column_stack([
        np.sin(omega0 * t[sel]), np.cos(omega0 * t[sel]),
        np.ones(sel.sum()), t[sel] ** (alpha - 1.0),
    ])
    coef, *_ = np.linalg.lstsq(design, pol[sel], rcond=None)
    amplitude = math.hypot(coef[0], coef[1])
    phase_lag = -math.atan2(coef[1], coef[0])
    assert amplitude == pytest.approx(omega0**-alpha, rel=0.01)
    assert phase_lag == pytest.approx(math.pi * alpha / 2.0, abs=0.02)


def test_fractional_polarization_classical_limit():
    grid = UniformGrid(2e-3, 5001)
    t = grid.nodes
    field = SampledSignal(grid, np.sin(2.0 * math.pi * t))
    pol = fractional_polarization(field, 1.0 - 1e-9, method="fft").values
    running = np.concatenate(
        ([0.0], np.cumsum(0.5 * (field.values[:-1] + field.values[1:]))))
    running *= grid.dt
    sel = t >= 1.0
    scale = np.max(np.abs(running))
    assert np.max(np.abs(pol[sel] - running[sel])) < 0.01 * scale


def test_fractional_polarization_causality_bitwise():
    rng = np.random.default_rng(19)
    grid = UniformGrid(0.05, 200)
    base = rng.standard_normal(200)
    altered = base.copy()
    altered[120:] += rng.standard_normal(80)
    p_base = fractional_polarization(SampledSignal(grid, base), 0.4).values
    p_alt = fractional_polarization(SampledSignal(grid, altered), 0.4).values
    assert np.array_equal(p_base[:120], p_alt[:120])
    assert not np.array_equal(p_base[120:], p_alt[120:])


def test_fractional_polarization_linearity():
    rng = np.random.default_rng(23)
    grid = UniformGrid(0.05, 128)
    e1 = rng.standard_normal(128)
    e2 = rng.standard_normal(128)
    a, b = 1.75, -0.4

    def pol(values):
        return fractional_polarization(SampledSignal(grid, values), 0.3).values

    combined = pol(a * e1 + b * e2)
    separate = a * pol(e1) + b * pol(e2)
    scale = np.max(np.abs(separate))
    assert np.max(np.abs(combined - separate)) < 1e-12 * scale


def test_fractional_polarization_domain():
    grid = UniformGrid(0.05, 16)
    field = SampledSignal(grid, np.ones(16))
    with pytest.raises(DomainError):
        fractional_polarization(field, 0.0)
    with pytest.raises(DomainError):
        fractional_polarization(field, 1.0)


_FIELD = SampledSignal(UniformGrid(0.05, 16), np.ones(16))


@pytest.mark.parametrize("call, match", [
    (lambda: universal_susceptibility(UniversalResponse(0.5),
                                      [1.0, math.nan]), "omega"),
    (lambda: universal_susceptibility(UniversalResponse(0.5), 1.0,
                                      scale=math.inf), "scale"),
    (lambda: debye_susceptibility(DebyeModel(), math.inf), "omega"),
    (lambda: lorentz_susceptibility(LorentzEnsemble(((1.0, 1.0, 0.1),)),
                                    [2.0, math.nan]), "omega"),
    (lambda: DebyeModel(tau=math.inf), "finite"),
    (lambda: DebyeModel(a_coupling=math.nan), "finite"),
    (lambda: LorentzEnsemble(((1.0, math.nan, 0.1),)), "mode"),
    (lambda: LorentzEnsemble(((1.0, 1.0, math.inf),)), "mode"),
    (lambda: LorentzEnsemble(((1.0, 1.0, 0.1),), n_density=math.inf),
     "finite"),
    (lambda: fractional_polarization(_FIELD, 0.5, eps0=math.nan), "eps0"),
    (lambda: verify_universal_ratio(0.5, omega0=math.inf), "probe"),
], ids=["universal-omega", "universal-scale", "debye-omega",
        "lorentz-omega", "debye-tau", "debye-coupling", "lorentz-omega0",
        "lorentz-damping", "lorentz-density", "polarization-eps0",
        "ratio-omega0"])
def test_non_finite_inputs_rejected(call, match):
    # a typed error before any numpy work, not NaN output or a warning
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("grid", [{"dt": 0.0}, {"dt": math.nan},
                                  {"dt": math.inf}, {"t_end": 0.0},
                                  {"t_end": math.nan}, {"t_end": -20.0}],
                         ids=repr)
def test_verify_universal_ratio_rejects_bad_time_grid(grid):
    with pytest.raises(DomainError):
        verify_universal_ratio(0.5, **grid)


@pytest.mark.parametrize("n_exp, dt", [(0.5, 10.0), (0.3, 0.5)])
def test_verify_universal_ratio_rejects_degenerate_fit(n_exp, dt):
    # one sample in the window [15, 20] (rank 1), or samples of sin(2 pi t)
    # on its zeros (condition 2.6e14): no ratio from a fit like that
    with pytest.raises(FitError, match="rank-deficient or ill-conditioned"):
        verify_universal_ratio(n_exp, dt=dt, t_end=20.0)


def test_verify_universal_ratio_bands():
    checks: dict[float, RatioCheck] = {}
    for n_exp in (0.25, 0.5, 0.75):
        check = verify_universal_ratio(n_exp)
        checks[n_exp] = check
        assert check.analytic == pytest.approx(
            1.0 / math.tan(math.pi * n_exp / 2.0), rel=1e-13)
        rel = abs(check.numeric - check.analytic) / abs(check.analytic)
        assert rel < 0.02
        assert check.amplitude_ratio == pytest.approx(1.0, rel=0.01)
    # the ratio does not depend on the probe frequency
    for n_exp, check in checks.items():
        quad = verify_universal_ratio(n_exp, omega0=8.0 * math.pi)
        assert abs(quad.numeric - check.numeric) / abs(check.numeric) < 0.02


def test_verify_universal_ratio_is_the_rules_phase_on_a_coarse_grid():
    # four samples per period: GL's symbol lags by alpha (pi/2 - omega0
    # dt/2), so its ratio is tan(pi/8), not 1; FLMM_TRAP's lags by exactly
    # alpha pi/2, so its ratio is the analytic one at any dt
    gl = verify_universal_ratio(0.5, dt=0.25)
    trap = verify_universal_ratio(0.5, dt=0.25, scheme=Scheme.FLMM_TRAP)
    assert gl.numeric == pytest.approx(math.tan(math.pi / 8.0), rel=1e-6)
    assert trap.numeric == pytest.approx(trap.analytic, rel=1e-4)

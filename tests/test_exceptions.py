"""Typed errors of public calls on inputs outside their domain."""

import inspect
import math
import warnings

import numpy as np
import pytest

import fracquad
from fracquad.derivative import rl_derivative_via_integral
from fracquad.dielectric import (DebyeModel, LorentzEnsemble,
                                 debye_susceptibility,
                                 fractional_polarization,
                                 lorentz_susceptibility)
from fracquad.exceptions import AlignmentError, DomainError
from fracquad.oracle import (brute_force_rl, exact_derivative_exp,
                             exact_derivative_monomial, exact_derivative_sin,
                             exact_integral_const, exact_integral_exp,
                             exact_integral_monomial)
from fracquad.quadrature import (SampledSignal, UniformGrid, frac_integral,
                                 frac_newton_cotes, frac_trapezoid,
                                 short_memory_integral)
from fracquad.special import gamma
from fracquad.weights import (Scheme, WeightSequence, gl_weights,
                              nc0_weights, starting_weight_table,
                              weights_for_scheme)


def _ones(n):
    return SampledSignal(UniformGrid(0.5, n), np.ones(n))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: DebyeModel(tau=0.0), DomainError, "tau must be positive"),
    (lambda: LorentzEnsemble(modes=()), DomainError, "at least one mode"),
    (lambda: lorentz_susceptibility(LorentzEnsemble(((1.0, 1.0, 0.1),)),
                                    [1.0, -1.0]), DomainError, "omega"),
    # the sign convention: omega < 0 or eps0 < 0 would flip the loss part
    (lambda: debye_susceptibility(DebyeModel(), -1.0), DomainError,
     "omega must be finite and >= 0"),
    (lambda: fractional_polarization(_ones(4), 0.5, eps0=0.0), DomainError,
     "eps0 must be positive"),
    (lambda: fractional_polarization(_ones(4), 0.5, eps0=-1.0), DomainError,
     "eps0 must be positive"),
    (lambda: exact_integral_exp(-1.0, 0.5), DomainError, "t >= 0"),
    (lambda: exact_integral_monomial(-1.0, 0.5, 1.0), DomainError, "t >= 0"),
    (lambda: exact_derivative_exp(1.0, 1.5), DomainError, "(0, 1)"),
    (lambda: exact_derivative_exp(-1.0, 0.5), DomainError, "t >= 0"),
    (lambda: exact_derivative_sin(math.inf, 1.0, 0.5), DomainError, "finite"),
    (lambda: exact_derivative_sin(1.0, math.nan, 0.5), DomainError, "finite"),
    (lambda: exact_integral_const(1.0, 0.5, math.nan), DomainError, "finite"),
    (lambda: brute_force_rl(math.sin, math.inf, 0.5), DomainError, "finite"),
    (lambda: frac_integral(_ones(3), gl_weights(0.5, 0.5, 3),
                           starting_degree=3), DomainError, "too short"),
    (lambda: frac_trapezoid(_ones(1), 0.5), DomainError, "2 samples"),
    (lambda: frac_newton_cotes(_ones(2), 0.5, 3), AlignmentError,
     "3-point panel"),
    (lambda: gamma(math.inf), DomainError, "finite"),
    (lambda: weights_for_scheme("gl", 0.5, 1.0, 4), DomainError,
     "unknown scheme"),
    (lambda: starting_weight_table(gl_weights(-0.5, 1.0, 8), 1), DomainError,
     "integral orders"),
    (lambda: exact_integral_monomial(math.inf, 0.5, 0.0), DomainError,
     "finite t"),
    (lambda: exact_integral_exp(2.0, math.inf), DomainError, "alpha > 0"),
    # past binary64: the reference called, named with its arguments as
    # floats, not a bare OverflowError or ZeroDivisionError, not inf or NaN,
    # not ToleranceNotMet after a refinement that cannot converge
    (lambda: exact_integral_exp(800.0, 0.5), DomainError,
     "exact_integral_exp(800.0, 0.5) leaves the binary64 range"),
    (lambda: exact_integral_exp(alpha=0.5, t=800.0), DomainError,
     "exact_integral_exp(800.0, 0.5) leaves the binary64 range"),
    (lambda: exact_integral_const(1e300, 0.5, 1e300), DomainError,
     "exact_integral_const(1e+300, 0.5, 1e+300) leaves"),
    (lambda: exact_integral_const(1e300, 2.0), DomainError,
     "exact_integral_const(1e+300, 2.0) leaves"),
    (lambda: exact_integral_monomial(1e300, 2.0, 0.0), DomainError,
     "exact_integral_monomial(1e+300, 2.0, 0.0) leaves"),
    (lambda: exact_derivative_monomial(np.float64(2.5e-311), 1.5, 0.0),
     DomainError, "exact_derivative_monomial(2.5e-311, 1.5, 0.0) leaves"),
    (lambda: exact_derivative_exp(800.0, 0.5), DomainError,
     "exact_derivative_exp(800.0, 0.5) leaves"),
    (lambda: exact_derivative_sin(1.0, 1e300, 2.0), DomainError,
     "exact_derivative_sin(1.0, 1e+300, 2.0) leaves"),
    (lambda: exact_derivative_sin(1e300, 1e200, 0.5), DomainError,
     "exact_derivative_sin(1e+300, 1e+200, 0.5) leaves"),
    (lambda: exact_derivative_sin(1.0, 0.0, -0.5), DomainError,
     "exact_derivative_sin(1.0, 0.0, -0.5) leaves"),
    (lambda: brute_force_rl(lambda u: math.nan, 1.0, 0.5), DomainError,
     "brute_force_rl(f, 1.0, 0.5) leaves"),
    (lambda: brute_force_rl(lambda u: 1e308 * (1.0 + u), 1.0, 0.5),
     DomainError, "brute_force_rl(f, 1.0, 0.5) leaves"),
    # counts past the longest array numpy can size at 16 bytes an entry: no
    # allocation, no "Maximum allowed size exceeded" or "array is too big",
    # and no 1-weight sequence for 2^63 weights
    (lambda: UniformGrid(1.0, 2**63), DomainError, "grid node count"),
    (lambda: UniformGrid(1e-300, 900_000_000_000_000_000_000), DomainError,
     "grid node count"),
    (lambda: gl_weights(0.5, 1.0, 2**63), DomainError, "weight count"),
    (lambda: weights_for_scheme(Scheme.NC0, 0.5, 1.0, 2**64), DomainError,
     "weight count"),
    (lambda: UniformGrid(1.0, 2 * 10**18), DomainError,
     "grid node count must be <="),
    (lambda: gl_weights(0.5, 1.0, 2 * 10**18), DomainError,
     "weight count must be <="),
    (lambda: nc0_weights(0.5, 1.0, 2 * 10**18), DomainError,
     "weight count must be <="),
    (lambda: weights_for_scheme(Scheme.FLMM_TRAP, 0.5, 1.0, 2 * 10**18),
     DomainError, "weight count must be <="),
    # counts and degrees that are not integers: no rounded-up count, no
    # bare TypeError from numpy
    (lambda: gl_weights(0.5, 1.0, 5.5), DomainError, "weight count"),
    (lambda: weights_for_scheme(Scheme.FLMM_TRAP, 0.5, 1.0, 5.5),
     DomainError, "weight count"),
    (lambda: nc0_weights(0.5, 1.0, 5.5), DomainError, "weight count"),
    (lambda: UniformGrid(0.1, 5.5), DomainError, "grid node count"),
    (lambda: frac_integral(_ones(8), gl_weights(0.5, 0.5, 8),
                           starting_degree=1.5), DomainError,
     "correction degree"),
    (lambda: short_memory_integral(_ones(8), gl_weights(-0.5, 0.5, 8), 2.5),
     DomainError, "memory length"),
    # complex values: no ComplexWarning and no dropped imaginary part
    (lambda: SampledSignal(UniformGrid(1.0, 3), np.array([1 + 1j, 2, 3 - 2j])),
     DomainError, "must be real"),
    (lambda: SampledSignal.sample(lambda t: np.exp(1j * t),
                                  UniformGrid(1.0, 3)),
     DomainError, "must be real"),
    (lambda: WeightSequence(Scheme.GL, 0.5, 1.0, np.array([1.0, 0.5j])),
     DomainError, "must be real"),
    # weights of another shape: no bare ValueError or TypeError later
    (lambda: frac_integral(_ones(4), WeightSequence(
        Scheme.GL, 0.5, 0.5, np.ones((4, 4)))), DomainError, "must be 1-D"),
    (lambda: WeightSequence(Scheme.GL, 0.5, 0.1, np.ones((4, 1))),
     DomainError, "must be 1-D"),
    (lambda: frac_integral(_ones(4), WeightSequence(Scheme.GL, 0.5, 0.5, 3.0)),
     DomainError, "must be 1-D"),
], ids=["debye-tau-zero", "lorentz-no-modes", "lorentz-negative-omega",
        "debye-negative-omega", "polarization-eps0-zero",
        "polarization-eps0-negative",
        "integral-exp-negative-t", "integral-monomial-negative-t",
        "derivative-exp-order", "derivative-exp-negative-t",
        "derivative-sin-inf-t", "derivative-sin-nan-omega",
        "integral-const-nan-c", "brute-force-inf-t",
        "starting-degree-3-on-3-samples", "trapezoid-one-sample",
        "newton-cotes-two-samples", "gamma-inf", "scheme-by-name",
        "starting-derivative-weights", "integral-monomial-inf-t",
        "integral-exp-inf-alpha",
        "range-exp", "range-exp-keywords", "range-const-c", "range-const-power", "range-monomial",
        "range-derivative-numpy-t", "range-derivative-exp", "range-sin-power",
        "range-sin-phase", "range-sin-zero-omega", "range-brute-force-nan",
        "range-brute-force-overflow", "grid-2^63", "grid-9e20", "gl-2^63",
        "nc0-2^64", "grid-2e18", "gl-2e18", "nc0-2e18", "flmm-2e18",
        "gl-count-5.5", "flmm-count-5.5", "nc0-count-5.5",
        "grid-count-5.5", "starting-degree-1.5", "memory-length-2.5",
        "complex-signal", "complex-sampled-signal", "complex-weights",
        "weights-2d", "weights-column", "weights-scalar"])
def test_typed_error(call, error, fragment):
    # the typed error with its reason, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert fragment in str(info.value)


def _const(value, n):
    return SampledSignal(UniformGrid(1.0, n), np.full(n, value))


_ALTERNATING = SampledSignal(UniformGrid(0.01, 2000),
                             1e306 * (-1.0)**np.arange(2000))
_GROWING = SampledSignal.sample(lambda t: np.exp(t / 4),
                                UniformGrid(0.01, 2000))


@pytest.mark.parametrize("call", [
    lambda: frac_integral(_const(1e307, 5000), gl_weights(0.5, 1.0, 5000)),
    lambda: frac_integral(_const(1e307, 5000), gl_weights(0.5, 1.0, 5000),
                          method="fft"),
    lambda: frac_trapezoid(_const(1e307, 5000), 0.5),
    lambda: frac_trapezoid(_const(1e307, 5000), 0.5, method="fft"),
    lambda: frac_newton_cotes(_const(1e307, 4001), 0.5, 2, method="fft"),
    # each pre-check exponent below 700, their sum above it
    lambda: starting_weight_table(gl_weights(1.896, 1.33e158, 481), 3),
    lambda: starting_weight_table(gl_weights(2.396, 2.82e126, 2206), 2),
    lambda: rl_derivative_via_integral(_ALTERNATING, 1.5),
    lambda: fractional_polarization(_GROWING, 0.5, eps0=1e307),
], ids=["integral-direct", "integral-fft", "trapezoid-direct",
        "trapezoid-fft", "newton-cotes-fft", "table-s3", "table-s2",
        "rl-derivative", "polarization-eps0"])
def test_result_past_binary64(call):
    # finite inputs, a result past binary64: one DomainError that names the
    # result, not the samples, and no numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="binary64") as info:
            call()
    assert "samples" not in str(info.value)


_SIGNAL = SampledSignal.sample(np.exp, UniformGrid(0.625, 9))  # t = 5
_WEIGHTS = {"alpha": 0.5, "dt": 0.625, "n": 9}

# a valid call of every public function, by keyword: each float among them
# is swept to inf, -inf and NaN in turn
_VALID_CALLS = {
    "gl_derivative": {"signal": _SIGNAL, "order": 0.5},
    "rl_derivative_via_integral": {"signal": _SIGNAL, "order": 0.5},
    "universal_susceptibility": {"model": fracquad.UniversalResponse(0.5),
                                 "omega": 2.0, "scale": 1.0},
    "debye_susceptibility": {"model": DebyeModel(), "omega": 2.0},
    "lorentz_susceptibility": {"model": LorentzEnsemble(((1.0, 1.0, 0.1),)),
                               "omega": 2.0},
    "fractional_polarization": {"e_field": _SIGNAL, "alpha": 0.5,
                                "eps0": 1.0},
    "verify_universal_ratio": {"n_exp": 0.5, "omega0": 2.0 * math.pi,
                               "dt": 0.01, "t_end": 5.0},
    "exact_integral_const": {"t": 5.0, "alpha": 0.5, "c": 1.0},
    "exact_integral_exp": {"t": 5.0, "alpha": 0.5},
    "exact_integral_monomial": {"t": 5.0, "alpha": 0.5, "q": 1.0},
    "exact_derivative_monomial": {"t": 5.0, "alpha": 0.5, "q": 1.0},
    "exact_derivative_exp": {"t": 5.0, "alpha": 0.5},
    "exact_derivative_sin": {"t": 5.0, "omega0": 1.0, "alpha": 0.5},
    "brute_force_rl": {"f": math.sin, "t": 5.0, "alpha": 0.5, "tol": 1e-8},
    "frac_integral": {"signal": _SIGNAL,
                      "weights": gl_weights(**_WEIGHTS)},
    "frac_trapezoid": {"signal": _SIGNAL, "alpha": 0.5},
    "frac_newton_cotes": {"signal": _SIGNAL, "alpha": 0.5, "p": 2},
    "short_memory_integral": {"signal": _SIGNAL,
                              "weights": gl_weights(**_WEIGHTS),
                              "memory_length": 4},
    "gamma": {"x": 5.0},
    "lower_incomplete_gamma": {"t": 5.0, "alpha": 0.5},
    "gl_weights": _WEIGHTS,
    "nc0_weights": _WEIGHTS,
    "flmm_weights": _WEIGHTS,
    "euler_flmm_weights": _WEIGHTS,
    "weights_for_scheme": {"scheme": Scheme.GL, **_WEIGHTS},
    "starting_weight_table": {"weights": gl_weights(**_WEIGHTS), "s": 2},
}
_PUBLIC_FUNCTIONS = sorted(
    name for name in fracquad.__all__
    if callable(getattr(fracquad, name))
    and not inspect.isclass(getattr(fracquad, name)))
_NON_FINITE_CALLS = [
    (name, param, value)
    for name in _PUBLIC_FUNCTIONS
    for param, valid in _VALID_CALLS.get(name, {}).items()
    if type(valid) is float
    for value in (math.inf, -math.inf, math.nan)
]


def test_valid_calls_cover_the_public_functions():
    # every public function has a valid call, every float parameter of its
    # signature is set in it, and the call succeeds
    assert sorted(_VALID_CALLS) == _PUBLIC_FUNCTIONS
    for name in _PUBLIC_FUNCTIONS:
        fn, kwargs = getattr(fracquad, name), _VALID_CALLS[name]
        floats = {param.name for param in
                  inspect.signature(fn).parameters.values()
                  if param.annotation == "float"}
        assert floats <= set(kwargs), name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(**kwargs)


@pytest.mark.parametrize("name, param, value", _NON_FINITE_CALLS,
                         ids=[f"{name}-{param}={value}"
                              for name, param, value in _NON_FINITE_CALLS])
def test_non_finite_float_raises_domain_error(name, param, value):
    # inf, -inf or NaN in one float parameter, valid values elsewhere: a
    # DomainError, not a bare OverflowError, a ToleranceNotMet or a value
    kwargs = {**_VALID_CALLS[name], param: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            getattr(fracquad, name)(**kwargs)

"""fracquad: fractional integrals and derivatives on uniform grids.

Evaluates left-sided Riemann-Liouville integrals and Grunwald-Letnikov
derivatives by convolution quadrature (GL, zero-order Newton-Cotes and
fractional multistep weight families, fractional trapezoid and Newton-Cotes
panel rules), validates them against closed-form and brute-force oracles,
and applies the machinery to linear dielectric response models.

Quick start::

    import numpy as np
    from fracquad import (UniformGrid, SampledSignal, gl_weights,
                          frac_integral)

    grid = UniformGrid(dt=0.01, n=1000)
    f = SampledSignal.sample(np.exp, grid)
    w = gl_weights(alpha=0.5, dt=grid.dt, n=grid.n)
    result = frac_integral(f, w)            # I^0.5[exp] on the grid

The ``fracquad`` console script exposes the same operations as CSV-emitting
subcommands; see ``fracquad --help``.
"""

from .derivative import (
    DerivativeOrder,
    gl_derivative,
    rl_derivative_via_integral,
)
from .dielectric import (
    DebyeModel,
    LorentzEnsemble,
    LorentzMode,
    RatioCheck,
    UniversalResponse,
    debye_susceptibility,
    fractional_polarization,
    lorentz_susceptibility,
    universal_susceptibility,
    verify_universal_ratio,
)
from .exceptions import (
    AlignmentError,
    DegenerateMethodError,
    DomainError,
    FitError,
    FracquadError,
    GridMismatchError,
    LengthError,
    PoleError,
    ResonanceWarning,
    SingularSystemError,
    ToleranceNotMet,
)
from .oracle import (
    brute_force_rl,
    exact_derivative_exp,
    exact_derivative_monomial,
    exact_derivative_sin,
    exact_integral_const,
    exact_integral_exp,
    exact_integral_monomial,
)
from .quadrature import (
    SampledSignal,
    UniformGrid,
    frac_integral,
    frac_newton_cotes,
    frac_trapezoid,
    short_memory_integral,
)
from .special import (
    gamma,
    log_gamma,
    lower_incomplete_gamma,
)
from .weights import (
    Scheme,
    WeightSequence,
    flmm_weights,
    gl_weights,
    nc0_weights,
    starting_weight_table,
    weights_for_scheme,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grids and signals
    "UniformGrid",
    "SampledSignal",
    # weights
    "Scheme",
    "WeightSequence",
    "gl_weights",
    "nc0_weights",
    "flmm_weights",
    "weights_for_scheme",
    "starting_weight_table",
    # quadrature
    "frac_integral",
    "frac_trapezoid",
    "frac_newton_cotes",
    "short_memory_integral",
    # derivatives
    "DerivativeOrder",
    "gl_derivative",
    "rl_derivative_via_integral",
    # special functions
    "gamma",
    "log_gamma",
    "lower_incomplete_gamma",
    # oracles
    "exact_integral_const",
    "exact_integral_exp",
    "exact_integral_monomial",
    "exact_derivative_monomial",
    "exact_derivative_exp",
    "exact_derivative_sin",
    "brute_force_rl",
    # dielectric response
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
    # errors
    "FracquadError",
    "DomainError",
    "PoleError",
    "DegenerateMethodError",
    "SingularSystemError",
    "GridMismatchError",
    "LengthError",
    "AlignmentError",
    "ToleranceNotMet",
    "FitError",
    "ResonanceWarning",
]

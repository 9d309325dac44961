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

from . import (derivative, dielectric, exceptions, oracle, quadrature,
               special, weights)
from .derivative import *  # noqa: F403
from .dielectric import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .oracle import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .special import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

#: Each module's ``__all__`` is the one list of its public names.
__all__ = ["__version__"] + [
    name for module in (derivative, dielectric, exceptions, oracle,
                        quadrature, special, weights)
    for name in module.__all__
]

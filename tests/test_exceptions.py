"""Typed errors of public calls on inputs outside their domain."""

import math
import warnings

import numpy as np
import pytest

from fracquad.dielectric import (DebyeModel, LorentzEnsemble,
                                 lorentz_susceptibility)
from fracquad.exceptions import AlignmentError, DomainError
from fracquad.oracle import (exact_derivative_exp, exact_integral_exp,
                             exact_integral_monomial)
from fracquad.quadrature import (SampledSignal, UniformGrid, frac_integral,
                                 frac_newton_cotes, frac_trapezoid)
from fracquad.special import gamma
from fracquad.weights import (gl_weights, starting_weight_table,
                              weights_for_scheme)


def _ones(n):
    return SampledSignal(UniformGrid(0.5, n), np.ones(n))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: DebyeModel(tau=0.0), DomainError, "relaxation time"),
    (lambda: LorentzEnsemble(modes=()), DomainError, "at least one mode"),
    (lambda: lorentz_susceptibility(LorentzEnsemble(((1.0, 1.0, 0.1),)),
                                    [1.0, -1.0]), DomainError, "omega"),
    (lambda: exact_integral_exp(-1.0, 0.5), DomainError, "t >= 0"),
    (lambda: exact_integral_monomial(-1.0, 0.5, 1.0), DomainError, "t >= 0"),
    (lambda: exact_derivative_exp(1.0, 1.5), DomainError, "(0, 1)"),
    (lambda: exact_derivative_exp(-1.0, 0.5), DomainError, "t >= 0"),
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
], ids=["debye-tau-zero", "lorentz-no-modes", "lorentz-negative-omega",
        "integral-exp-negative-t", "integral-monomial-negative-t",
        "derivative-exp-order", "derivative-exp-negative-t",
        "starting-degree-3-on-3-samples", "trapezoid-one-sample",
        "newton-cotes-two-samples", "gamma-inf", "scheme-by-name",
        "starting-derivative-weights"])
def test_typed_error(call, error, fragment):
    # the typed error with its reason, and no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert fragment in str(info.value)

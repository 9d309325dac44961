"""Exception and warning types shared across the package."""

__all__ = [
    "FracquadError",
    "DomainError",
    "PoleError",
    "GridMismatchError",
    "LengthError",
    "AlignmentError",
    "ToleranceNotMet",
    "FitError",
    "ResonanceWarning",
]


class FracquadError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracquadError, ValueError):
    """An argument lies outside the mathematical domain of the operation, or
    a result would leave the binary64 range."""


class PoleError(DomainError):
    """The gamma function was evaluated at one of its poles (0, -1, -2, ...)."""


class GridMismatchError(FracquadError, ValueError):
    """Signal and weights were built for different grid spacings."""


class LengthError(FracquadError, ValueError):
    """A weight sequence is too short for the signal it should integrate."""


class AlignmentError(FracquadError, ValueError):
    """The grid length does not tile into the panels required by the rule."""


class ToleranceNotMet(FracquadError, ArithmeticError):
    """Adaptive refinement exhausted its evaluation budget before reaching
    the requested tolerance."""


class FitError(FracquadError, ArithmeticError):
    """A steady-state sinusoid fit left a residual too large to trust."""


class ResonanceWarning(UserWarning):
    """An oscillator mode was evaluated at or next to an undamped resonance."""

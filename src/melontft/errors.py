"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MelonTFTError",
    "DivergentIntegralError",
    "ShapeMismatchError",
    "NotConvergedError",
    "CoincidentCoordinatesError",
]


class MelonTFTError(Exception):
    """Base class for package-specific failures."""


class DivergentIntegralError(MelonTFTError):
    """A transverse integral was requested for a term that diverges.

    Only the bare free propagator is integrated with Taylor subtraction;
    any other term with fewer than two powers of (1+|x|^2) in the
    denominator signals a logically impossible input.
    """


class ShapeMismatchError(MelonTFTError):
    """A generated series contains a term outside the closed-form shape.

    Raised by coefficient extraction; hitting this at some order would
    falsify the conjectured all-order structure rather than indicate a
    recoverable condition.
    """


class NotConvergedError(MelonTFTError):
    """An iteration or a quadrature did not converge within its budget.

    ``result`` holds the unconverged quadrature result when one raised it
    (a ``QuadResult``), else None.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class CoincidentCoordinatesError(MelonTFTError):
    """Two external momenta share a component of the same colour.

    The higher-point recursion divides by differences of squared
    first-colour components; coincident configurations are excluded from
    the domain and are not handled by taking limits.
    """

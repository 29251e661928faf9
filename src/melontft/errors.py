"""Exception types shared across the package, each raised by some path:
``ShapeMismatchError`` by coefficient extraction, ``NotConvergedError`` by
the iterations and the quadrature, ``CoincidentCoordinatesError`` by
``connected_2k``.
"""

from __future__ import annotations

__all__ = [
    "MelonTFTError",
    "ShapeMismatchError",
    "NotConvergedError",
    "CoincidentCoordinatesError",
]


class MelonTFTError(Exception):
    """Base class for package-specific failures."""


class ShapeMismatchError(MelonTFTError):
    """A generated series contains a term outside the closed-form shape.

    Raised by coefficient extraction.  The closed form is a theorem (the
    Lagrange-Buermann coefficient), so hitting this means a defect in the
    series that was read, not a recoverable condition.
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
    first-colour components, so equal squares count as coincident too;
    such configurations are excluded, not handled by taking limits.
    """

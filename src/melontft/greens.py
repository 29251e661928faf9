"""Higher-point functions on top of the exact 2-point function.

Connected 2k-point functions with a single melonic-chain boundary come
from a positional recursion in the tuple of external momenta; the
disconnected 4-point sector is identically zero at leading order in the
tensor size, and its vanishing is self-consistent in the corresponding
integral equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import CoincidentCoordinatesError
from .specialfn import Coupling, Point3, g2_exact

__all__ = ["PointTuple", "connected_2k", "disconnected_4pt", "disconnected_4pt_residual"]

Points = Tuple[Point3, ...]


@dataclass(frozen=True)
class PointTuple:
    """Ordered external momenta (x^1, ..., x^k), distinct per colour.

    The recursion divides by differences of squared first-colour
    components, and the underlying correlators are only defined for
    per-colour distinct configurations, so coincidences are rejected
    outright rather than handled by limits.
    """

    points: Points

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a point tuple needs at least one point")
        for c in range(3):
            comps = [(p.x1, p.x2, p.x3)[c] for p in self.points]
            if len(set(comps)) != len(comps):
                raise CoincidentCoordinatesError(
                    f"colour-{c + 1} components {comps} are not pairwise distinct"
                )

    @property
    def k(self) -> int:
        return len(self.points)


def _recurse(points: Points, coupling: Coupling, memo: Optional[Dict]) -> float:
    if len(points) == 1:
        return g2_exact(points[0], coupling)
    if memo is not None and points in memo:
        return memo[points]
    first = points[0]
    prefactor = g2_exact(Point3(first.x1, points[1].x2, points[1].x3), coupling)
    total = 0.0
    for rho in range(2, len(points) + 1):
        tail = points[rho - 1 :]
        head = points[: rho - 1]
        mixed = (Point3(points[rho - 1].x1, first.x2, first.x3),) + points[1 : rho - 1]
        num = _recurse(head, coupling, memo) - _recurse(mixed, coupling, memo)
        den = first.x1 * first.x1 - points[rho - 1].x1 * points[rho - 1].x1
        total += _recurse(tail, coupling, memo) * num / den
    value = 2.0 * coupling.lam * prefactor * total
    if memo is not None:
        memo[points] = value
    return value


def connected_2k(x: PointTuple, coupling: Coupling, memoize: bool = True) -> float:
    """Connected 2k-point function; k = 1 is the exact 2-point function.

    Memoization is per call and keyed by exact sub-tuple contents, so
    memoized and plain evaluations agree bit for bit.
    """
    memo: Optional[Dict] = {} if memoize else None
    return _recurse(x.points, coupling, memo)


def disconnected_4pt(x: Point3, y: Point3, coupling: Coupling) -> float:
    """Disconnected 4-point sector: identically zero at leading order."""
    return 0.0


def disconnected_4pt_residual(x: Point3, y: Point3, coupling: Coupling) -> float:
    """Self-check that zero satisfies the disconnected 4-point equation.

    Substitutes the zero function into the right-hand side
    -2*lambda*G2(x)^2 * integral(0) and returns the defect, which is
    exactly zero.
    """
    g2 = g2_exact(x, coupling)
    rhs = -2.0 * coupling.lam * g2 * g2 * 0.0  # 0.0 = integral of the zero function
    return disconnected_4pt(x, y, coupling) - rhs

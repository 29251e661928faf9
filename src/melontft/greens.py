"""Higher-point functions on top of the exact 2-point function.

Connected 2k-point functions with a single melonic-chain boundary come
from a positional recursion in the tuple of external momenta; the
disconnected 4-point sector is identically zero at leading order in the
tensor size, and its vanishing is self-consistent in the corresponding
integral equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Tuple

from .errors import CoincidentCoordinatesError
from .specialfn import Coupling, Point3, dressed_mass, g2_exact, g2_from_mass

__all__ = ["PointTuple", "connected_2k", "disconnected_4pt", "disconnected_4pt_residual"]


@dataclass(frozen=True)
class PointTuple:
    """Ordered external momenta (x^1, ..., x^k), distinct per colour.

    The correlators are defined only for per-colour distinct momenta, and
    the recursion divides by x1^2 - y1^2, so first components must also
    have distinct squares in binary64 (below about 1e-154 squares underflow
    alike).  Coincidences are rejected outright, not handled by limits.
    """

    points: Tuple[Point3, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a point tuple needs at least one point")
        for c, name in enumerate(("squared colour-1", "colour-2", "colour-3")):
            comps = [(p.x1 * p.x1, p.x2, p.x3)[c] for p in self.points]
            if len(set(comps)) != len(comps):
                raise CoincidentCoordinatesError(
                    f"{name} components {comps} are not pairwise distinct"
                )

    @property
    def k(self) -> int:
        return len(self.points)


def connected_2k(x: PointTuple, coupling: Coupling) -> float:
    """Connected 2k-point function; k = 1 is the exact 2-point function.

    The dressed mass is solved once per distinct first component; the
    recursion runs on plain (x1, x2, x3) tuples under a ``functools.cache``
    made per call, keyed by the exact sub-tuple contents.
    """
    mass = {p.x1: dressed_mass(p.x1, coupling) for p in x.points}
    lam2 = 2.0 * coupling.lam

    @cache
    def recurse(points: Tuple[Tuple[float, float, float], ...]) -> float:
        if len(points) == 1:
            x1, x2, x3 = points[0]
            return g2_from_mass(mass[x1], x2, x3)
        (f1, f2, f3), (_, s2, s3) = points[0], points[1]
        total = 0.0
        for rho in range(1, len(points)):
            y1 = points[rho][0]
            num = recurse(points[:rho]) - recurse(((y1, f2, f3),) + points[1:rho])
            total += recurse(points[rho:]) * num / (f1 * f1 - y1 * y1)
        return lam2 * g2_from_mass(mass[f1], s2, s3) * total

    return recurse(tuple((p.x1, p.x2, p.x3) for p in x.points))


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

"""Non-perturbative evaluation of the 2-point function.

The resummed solution is G2(x) = 1/(M + x2^2 + x3^2) with the dressed
mass M = 1 + x1^2 + g, the root of

    M + z*log(M) = 1 + x1^2,   z = (pi/2)*lambda,

so that M = z*W((1/z) * exp((1+x1^2)/z)) and the shift is g = -z*log(M).
``dressed_mass`` is the one place that solves for M; every float result
of the solution derives from it.

All W evaluations go through the Wright omega function in log space,
omega(t) + log(omega(t)) = t with t = (1+x1^2)/z - log(z): for small
couplings the direct W argument overflows binary64 while t stays modest.
Real positive couplings keep the argument positive, so only the principal
branch enters the solution; W_{-1} is provided for completeness/testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from .errors import NotConvergedError

__all__ = [
    "Point3",
    "Coupling",
    "lambert_w0",
    "lambert_wm1",
    "wright_omega",
    "dressed_mass",
    "g_shift",
    "g2_from_mass",
    "g2_exact",
    "sde_residual_algebraic",
    "exact_record",
]

# nearest-double branch point -1/e of the real Lambert branches
_BRANCH_POINT = -math.exp(-1.0)

# iteration cap of the Newton and Halley solvers; the step tests stop
# them within a few steps, so reaching it means a bug, not a hard input
_MAX_ITER = 100


@dataclass(frozen=True)
class Point3:
    """External momentum (x1, x2, x3), componentwise nonnegative and finite."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x1", "x2", "x3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"momentum component {name}={v!r} must be finite and >= 0")

    @property
    def norm2(self) -> float:
        return self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3


@dataclass(frozen=True)
class Coupling:
    """Positive coupling lambda; z = (pi/2)*lambda drives the W argument."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam <= 0:
            raise ValueError(f"coupling must be finite and > 0, got {self.lam!r}")

    @cached_property  # once per coupling; not a field, so eq, hash and repr ignore it
    def z(self) -> float:
        return 0.5 * math.pi * self.lam

    @classmethod
    def from_z(cls, z: float) -> "Coupling":
        return cls(2.0 * z / math.pi)


def wright_omega(t: float) -> float:
    """Solve w + log(w) = t for the unique positive w.

    Newton iteration; for t > 2 directly in w from the asymptotic seed
    t - log(t) (monotone from below, no exponentials formed, so large t
    such as 1e6 are fine), otherwise in u = log(w) where the equation
    u + e^u = t is convex and Newton converges globally.  Either stops
    at a relative step of 1e-16 or once the step no longer shrinks,
    which in binary64 can come first.
    """
    if not math.isfinite(t):
        raise ValueError(f"wright_omega needs finite t, got {t!r}")
    if t > 2.0:
        w = t - math.log(t)
        last = math.inf
        for _ in range(_MAX_ITER):
            step = (w + math.log(w) - t) * w / (w + 1.0)
            w -= step
            if abs(step) <= 1e-16 * w or abs(step) >= last:
                return w
            last = abs(step)
    else:
        u = t - 1.0 if t > -1.0 else t
        last = math.inf
        for _ in range(_MAX_ITER):
            eu = math.exp(u)
            step = (u + eu - t) / (1.0 + eu)
            u -= step
            if abs(step) <= 1e-16 * (1.0 + abs(u)) or abs(step) >= last:
                return math.exp(u)
            last = abs(step)
    raise NotConvergedError(f"wright_omega did not converge in {_MAX_ITER} steps at t={t!r}")


def _halley_we_w(w: float, y: float) -> float:
    # Halley refinement for w*e^w = y; valid on either real branch given a
    # seed on that branch and away from the branch point.  Stops like
    # wright_omega.
    last = math.inf
    for _ in range(_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - y
        w1 = w + 1.0
        step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)) or abs(step) >= last:
            return w
        last = abs(step)
    raise NotConvergedError(f"Halley iteration did not converge in {_MAX_ITER} steps at y={y!r}")


def lambert_w0(y: float) -> float:
    """Principal Lambert branch: w >= -1 with w*e^w = y, for finite y >= -1/e."""
    if not (_BRANCH_POINT <= y < math.inf):  # also rejects NaN
        raise ValueError(f"lambert_w0 needs finite y >= -1/e, got {y!r}")
    if y == 0.0:
        return 0.0
    if y > 0.0:
        return wright_omega(math.log(y))
    p = math.sqrt(max(0.0, 2.0 * (math.e * y + 1.0)))
    if p < 1e-4:
        # branch-point series; truncation error O(p^4) ~ 1e-16 here
        return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    if y < -0.3:
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    else:
        w = y * (1.0 - y)  # two-term Taylor seed around 0
    return _halley_we_w(w, y)


def lambert_wm1(y: float) -> float:
    """Secondary real branch: w <= -1 with w*e^w = y, for -1/e <= y < 0."""
    if not (_BRANCH_POINT <= y < 0.0):
        raise ValueError(f"lambert_wm1 needs -1/e <= y < 0, got {y!r}")
    p = math.sqrt(max(0.0, 2.0 * (math.e * y + 1.0)))
    if p < 1e-4:
        # branch-point series with p -> -p relative to the principal branch
        return -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0)))
    if y < -0.25:
        w = -1.0 - p * (1.0 + p * (1.0 / 3.0 + p * (11.0 / 72.0)))
    else:
        l1 = math.log(-y)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    w = _halley_we_w(w, y)
    # w*e^w is decreasing on (-inf, -1]; a root off that branch or a loose
    # residual means the seed was not on it
    if w > -1.0 or abs(w * math.exp(w) - y) > 1e-10 * abs(y):
        raise NotConvergedError(f"lambert_wm1 did not reach the secondary branch at y={y!r}")
    return w


def dressed_mass(x1: float, coupling: Coupling) -> float:
    """Dressed mass M = 1 + x1^2 + g, the root of M + z*log(M) = 1 + x1^2.

    M = z*omega(t) with t = (1+x1^2)/z - log(z).  M >= 1, and M = 1
    exactly at x1 = 0, where the shift vanishes.  The domain ends where
    (1+x1^2)/z overflows binary64 (x1 above about 1.3e154, or tiny lambda).
    """
    if not math.isfinite(x1) or x1 < 0:
        raise ValueError(f"x1 must be finite and >= 0, got {x1!r}")
    if x1 == 0.0:
        return 1.0
    z = coupling.z
    ratio = (1.0 + x1 * x1) / z
    if not math.isfinite(ratio):
        raise ValueError(f"(1+x1^2)/z must be finite, got x1={x1!r}, lambda={coupling.lam!r}")
    return z * wright_omega(ratio - math.log(z))


def g_shift(x1: float, coupling: Coupling) -> float:
    """Denominator shift g(x1, z) = M - 1 - x1^2 of the exact 2-point function.

    Vanishes identically at x1 = 0 (the Taylor-subtraction point) and as
    lambda -> 0 at fixed x1.
    """
    return exact_record(Point3(x1, 0.0, 0.0), coupling)[0]


def g2_from_mass(mass: float, x2: float, x3: float) -> float:
    """Exact 2-point function 1/(M + x2^2 + x3^2) at dressed mass M."""
    return 1.0 / (mass + x2 * x2 + x3 * x3)


def g2_exact(x: Point3, coupling: Coupling) -> float:
    """Exact 2-point function 1/(1+|x|^2+g(x1,z)) = 1/(M + x2^2 + x3^2)."""
    return g2_from_mass(dressed_mass(x.x1, coupling), x.x2, x.x3)


def sde_residual_algebraic(x1: float, coupling: Coupling) -> float:
    """Fixed-point residual g + z*log(1+x1^2+g) in product form.

    Vanishes identically in exact arithmetic; the product form stays
    well-defined at x1 = 0 where the equivalent ratio form is 0/0.
    """
    return exact_record(Point3(x1, 0.0, 0.0), coupling)[2]


def exact_record(x: Point3, coupling: Coupling) -> Tuple[float, float, float]:
    """(g, G2, algebraic residual) at x from one solve of the dressed mass."""
    z, x1 = coupling.z, x.x1
    mass = dressed_mass(x1, coupling)
    if mass >= 2.0:
        g = -z * math.log(mass)
    else:
        # Near M = 1, log(M) has an absolute, not a relative, error, so
        # d = M - 1 is refined by one Newton step on d + z*log1p(d) = x1^2,
        # whose error is second order in the seed's.  Below 1e-8, where
        # M - 1 keeps few correct digits, the linearised root x1^2/(1+z),
        # with relative error below d/2, is the better seed.
        d = mass - 1.0
        if d < 1e-8:
            d = x1 * x1 / (1.0 + z)
        d -= (d + z * math.log1p(d) - x1 * x1) / (1.0 + z / (1.0 + d))
        g = 0.0 - z * math.log1p(d)  # +0.0, not -0.0, at x1 = 0
    return g, g2_from_mass(mass, x.x2, x.x3), g + z * math.log(1.0 + x1 * x1 + g)

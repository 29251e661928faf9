"""Non-perturbative evaluation of the 2-point function.

The resummed solution is G2(x) = 1/(M + x2^2 + x3^2) with the dressed
mass M = 1 + x1^2 + g, the root of

    M + z*log(M) = 1 + x1^2,   z = (pi/2)*lambda,

so that M = z*W((1/z) * exp((1+x1^2)/z)) and the shift is g = -z*log(M).
``_masses`` is the one place that solves for M, for a row of x1 values
at one coupling with z and log(z) taken once; every float result of the
solution derives from it.  ``dressed_mass`` is its one-point view, and
``exact_records`` (one row of ``exact_record``) is what ``tabulate`` calls.

All W evaluations go through the Wright omega function in log space,
omega(t) + log(omega(t)) = t with t = (1+x1^2)/z - log(z): for small
couplings the direct W argument overflows binary64 while t stays modest.
Real positive couplings keep the argument positive, so only the principal
branch enters the solution; W_{-1} is provided for completeness/testing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

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
    "exact_records",
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
        if not math.isfinite(self.z):
            raise ValueError(f"z = (pi/2)*lambda overflows binary64 at lambda={self.lam!r} (limit ~1.14e308)")

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
    # Newton's steps and bits at less cost per call: a counted while in place
    # of a range iterator, one bound math function and one abs per step
    n, last = _MAX_ITER, math.inf
    if t > 2.0:
        log = math.log
        w = t - log(t)
        while (n := n - 1) >= 0:
            step = (w + log(w) - t) * w / (w + 1.0)
            w -= step
            a = abs(step)
            if a <= 1e-16 * w or a >= last:
                return w
            last = a
    else:
        exp = math.exp
        u = t - 1.0 if t > -1.0 else t
        while (n := n - 1) >= 0:
            eu = exp(u)
            step = (u + eu - t) / (1.0 + eu)
            u -= step
            a = abs(step)
            if a <= 1e-16 * (1.0 + abs(u)) or a >= last:
                return exp(u)
            last = a
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


def _branch_series(p: float) -> float:
    # W near y = -1/e in p = sqrt(2(e*y + 1)), error O(p^4): W_0 at p, W_{-1} at -p
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


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
        return _branch_series(p)  # truncation error ~ 1e-16 here
    if y < -0.3:
        w = _branch_series(p)
    else:
        w = y * (1.0 - y)  # two-term Taylor seed around 0
    return _halley_we_w(w, y)


def _wm1_log(s: float) -> float:
    # -W_{-1}(y) for s = -log(-y), the root v of v - log(v) = s: Newton from
    # v = s + log(s) in log space, where e^w cannot underflow; stops like wright_omega
    v, last = s + math.log(s), math.inf
    for _ in range(_MAX_ITER):
        step = (v - math.log(v) - s) * v / (v - 1.0)
        v -= step
        if abs(step) <= 1e-16 * v or abs(step) >= last:
            return v
        last = abs(step)
    raise NotConvergedError(f"lambert_wm1 did not converge in {_MAX_ITER} steps at log(-y)={-s!r}")


def lambert_wm1(y: float) -> float:
    """Secondary real branch: w <= -1 with w*e^w = y, for -1/e <= y < 0."""
    if not (_BRANCH_POINT <= y < 0.0):
        raise ValueError(f"lambert_wm1 needs -1/e <= y < 0, got {y!r}")
    if y > -sys.float_info.min:
        # subnormal y: e^w underflows in the Halley step, so solve in log
        # space and check the relative residual there, as log(w*e^w / y)
        w = -_wm1_log(-math.log(-y))
        off = abs(w + math.log(-w) - math.log(-y)) > 1e-10
    else:
        p = math.sqrt(max(0.0, 2.0 * (math.e * y + 1.0)))
        if p < 1e-4:
            return _branch_series(-p)
        if y < -0.25:
            w = _branch_series(-p)
        else:
            l1 = math.log(-y)
            l2 = math.log(-l1)
            w = l1 - l2 + l2 / l1
        w = _halley_we_w(w, y)
        off = abs(w * math.exp(w) - y) > 1e-10 * abs(y)
    # w*e^w is decreasing on (-inf, -1]; a root off that branch or a loose
    # residual means the seed was not on it
    if w > -1.0 or off:
        raise NotConvergedError(f"lambert_wm1 did not reach the secondary branch at y={y!r}")
    return w


def _masses(x1s: Sequence[float], coupling: Coupling) -> List[float]:
    # The one solve body: M = z*omega(t) for each x1 of one coupling row,
    # with z and log(z) taken once per row.  Checks every x1 in order and
    # raises at the first bad one.
    z = coupling.z
    log_z = math.log(z)
    masses = []
    for x1 in x1s:
        if not math.isfinite(x1) or x1 < 0:
            raise ValueError(f"x1 must be finite and >= 0, got {x1!r}")
        if x1 == 0.0:
            masses.append(1.0)
            continue
        ratio = (1.0 + x1 * x1) / z
        if not math.isfinite(ratio):
            raise ValueError(f"(1+x1^2)/z must be finite, got x1={x1!r}, lambda={coupling.lam!r}")
        masses.append(z * wright_omega(ratio - log_z))
    return masses


def dressed_mass(x1: float, coupling: Coupling) -> float:
    """Dressed mass M = 1 + x1^2 + g, the root of M + z*log(M) = 1 + x1^2.

    M = z*omega(t) with t = (1+x1^2)/z - log(z).  M >= 1, and M = 1
    exactly at x1 = 0, where the shift vanishes.  The domain ends where
    (1+x1^2)/z overflows binary64 (x1 above about 1.3e154, or tiny lambda).
    """
    return _masses((x1,), coupling)[0]


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
    well-defined at x1 = 0 where the equivalent ratio form is 0/0.  It is
    nan where 1 + x1^2 + g rounds to <= 0, as ``exact_record`` explains.
    """
    return exact_record(Point3(x1, 0.0, 0.0), coupling)[2]


def exact_record(x: Point3, coupling: Coupling) -> Tuple[float, float, float]:
    """(g, G2, algebraic residual) at x from one solve of the dressed mass.

    Where z >> x1^2 >> 1 (lambda = 1e25, x1 = 1e8, say), 1 + x1^2 + g
    cancels in binary64 and can round to zero or below, so the residual's
    log is undefined: the residual is then nan, and g and G2, which do not
    form that sum, are returned as at any other point.
    """
    return exact_records((x.x1,), x.x2, x.x3, coupling)[0]


def exact_records(
    x1s: Iterable[float], x2: float, x3: float, coupling: Coupling
) -> List[Tuple[float, float, float]]:
    """``exact_record`` at (x1, x2, x3) for every x1 of ``x1s``, in order.

    One coupling row: x2^2, x3^2, z and log(z) are computed once, and
    every value is the double ``exact_record`` gives at that point.
    ``x1s`` may be any iterable; each x1 is checked as ``dressed_mass``
    checks it, x2 and x3 as ``Point3`` does.
    """
    Point3(0.0, x2, x3)  # x2 and x3 fail here with Point3's message
    x1s = tuple(x1s)  # read twice, so a generator is taken in full first
    z = coupling.z
    x2sq, x3sq = x2 * x2, x3 * x3
    records = []
    for x1, mass in zip(x1s, _masses(x1s, coupling)):
        x1sq = x1 * x1
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
                d = x1sq / (1.0 + z)
            d -= (d + z * math.log1p(d) - x1sq) / (1.0 + z / (1.0 + d))
            g = 0.0 - z * math.log1p(d)  # +0.0, not -0.0, at x1 = 0
        try:
            residual = g + z * math.log(1.0 + x1sq + g)
        except ValueError:  # 1 + x1^2 + g rounded to <= 0
            residual = math.nan
        records.append((g, 1.0 / (mass + x2sq + x3sq), residual))
    return records

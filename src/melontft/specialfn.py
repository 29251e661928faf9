"""Non-perturbative evaluation of the 2-point function.

The resummed solution is G2(x) = 1/(M + x2^2 + x3^2) with the dressed
mass M = 1 + x1^2 + g, the root of

    M + z*log(M) = 1 + x1^2,   z = (pi/2)*lambda,

so that M = z*W((1/z) * exp((1+x1^2)/z)) and the shift is g = -z*log(M).
``_masses`` is the one place that solves for M, for a row of x1 values
at one coupling with z and log(z) taken once; every float result of the
solution derives from it.  ``dressed_mass`` is its one-point view.
``_flat_row`` turns a row of masses into [G2, g, residual, ...] in the
column order of ``tabulate``'s CSV; ``exact_records`` (one row of
``exact_record``) regroups it into records.

All W evaluations go through the Wright omega function in log space,
omega(t) + log(omega(t)) = t with t = (1+x1^2)/z - log(z): for small
couplings the direct W argument overflows binary64 while t stays modest.
M and G2 are within 2*eps*kappa and g within 4*eps*kappa of a
high-precision oracle, kappa = 1 + (1+x1^2)/(M + z) being M's condition
number in 1 + x1^2.  Real positive couplings keep the argument positive, so only the principal
branch enters the solution; W_{-1} is provided for completeness/testing.

omega and both real Lambert branches iterate in one loop, ``_fsc``:
Fritsch-Shafer-Crowley steps on log(v) + y*v = t0, whose w = y*v solves
w*e^w = y*e^t0; they differ only in seed and (y, t0).  omega takes
(1, t) above t = -2 and (e^t, 0) below; W0 goes through omega(log(y))
above y = e^-2, takes (y, 0) on [0, e^-2], so no rounded log(y) enters,
and (y, 0) for y < 0; W_{-1} takes (-1, log(-y)), in which e^w cannot
underflow.  Within p = sqrt(2(e*y + 1)) < 1e-4 of -1/e both branches
are the branch-point series.  For y < 0 the loop's forms round log(v)
or log(-y), which can leave |w| > 512 an ulp off, so one Newton step on
w*e^w = y itself follows it wherever y is a normal double.  Every exit
of the loop other than convergence raises ``NotConvergedError``.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

from .errors import NotConvergedError, _record

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

# smallest positive normal double
_TINY = sys.float_info.min

# e^-2: below it W0(y) is solved from y itself, above it from log(y)
_E_M2 = math.exp(-2.0)

# iteration cap of the one loop, _fsc; its step test stops it within a
# few steps, so reaching the cap means a bug, not a hard input
_MAX_ITER = 100


@_record
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


@_record
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


# omega(t) ~ sum_k c_k*(t - centre)^k on [-2, 50] in five pieces, given as
# (upper end, centre, c0, ..., c5): degree-5 Chebyshev interpolants rounded
# to 8 digits, each within 3.1e-5 of omega (relative) on its piece
_OMEGA_FITS = (
    (-0.5, -1.25, 0.22807629, 0.18571832, 0.061563487, 0.0073966462, -0.0011217566, -0.00036447567),
    (1.5, 0.5, 0.76624843, 0.43382793, 0.069535139, -0.0039496982, -0.00096668751, 0.00026506253),
    (5.0, 3.25, 2.3820395, 0.70432142, 0.030802097, -0.0033818161, 0.00030199954, -1.210521e-05),
    (15.0, 10.0, 7.9294797, 0.88800681, 0.0055258641, -0.00034316028, 2.7388884e-05, -1.8398368e-06),
    (50.0, 32.5, 29.1285, 0.96680309, 0.00052036226, -1.0877178e-05, 3.6060144e-07, -9.0570422e-09),
)

# W(y)/y ~ 1 + y*(q0 + y*(q1 + y*q2)) for 0 <= y <= e^-2: the e^t series of W
# economised to degree 2 (Chebyshev, 8 digits), within 3.3e-5 (relative)
_OMEGA_SMALL = (-0.99972369, 1.4626858, -1.8663062)


def _fsc(y: float, v: float, t0: float) -> float:
    # The one iteration body of omega and both real Lambert branches:
    # Fritsch-Shafer-Crowley steps on log(v) + y*v = t0 from the seed v > 0,
    # returning w = y*v, the root of w*e^w = y*e^t0.  In w the equation is
    # w + log(w/y) = t0, whose derivative 1 + 1/w is omega's for either
    # sign of y, so the step is omega's too.
    log = math.log
    n = _MAX_ITER
    while (n := n - 1) >= 0:
        w = y * v
        p = 1.0 + w
        s = (t0 - w - log(v)) / p
        h = s / p
        c = 1.0 + s * (2.0 / 3.0)
        d = s * (c - 0.5 * h) / (c - h)
        v += v * d
        if -1e-4 <= d <= 1e-4:
            return y * v
    raise NotConvergedError(f"w*e^w = y*e^t0 did not converge in {_MAX_ITER} steps at y={y!r}, t0={t0!r}")


def _w0_small(y: float) -> float:
    # W0(y) for 0 <= y <= e^-2 as y*v, solving log(v) + y*v = 0 for v = W0(y)/y
    # from the economised seed: y is taken as exact, so nothing rounds a log(y)
    q0, q1, q2 = _OMEGA_SMALL
    return _fsc(y, 1.0 + y * (q0 + y * (q1 + y * q2)), 0.0)


def wright_omega(t: float) -> float:
    """Solve w + log(w) = t for the unique positive w, for finite t.

    A seed good to 3.3e-5 (relative) is refined by Fritsch-Shafer-Crowley
    steps (Lawrence, Corless & Jeffrey, ACM TOMS 38, 2012), each of fourth
    order.  The seeds:

    * t > 50: the asymptotic series t - L + L/t, L = log(t);
    * -2 <= t <= 50: a degree-5 polynomial fit on one of five pieces
      (``_OMEGA_FITS``);
    * t < -2: omega = W0(y) with y = e^t, from the e^t series of W
      economised to degree 2 (``_OMEGA_SMALL``).

    For t < -2 the steps solve y*v*e^(y*v) = y for v = omega/y, with y
    the double nearest e^t taken as exact, so the residual -(y*v + log(v))
    never cancels against t.  omega is e^t itself below t = -37.5,
    subnormal below -708 and 0.0 below about -745.13.

    A step from relative error d leaves an error below d^4/48 (0.0205*d^4
    at worst over w > 0, measured in 80-digit arithmetic), so a step that
    corrects by at most 1e-4 leaves under eps/100 and is the last; with
    these seeds the first one is.  The step is scaled by p = 1 + w, so no
    (1 + w)^2 overflows up to the largest double.  More than ``_MAX_ITER``
    steps raise ``NotConvergedError``.
    """
    if 50.0 < t < math.inf:
        lt = math.log(t)
        return _fsc(1.0, t - lt + lt / t, t)
    if -2.0 <= t <= 50.0:
        for fit in _OMEGA_FITS:
            if t <= fit[0]:
                break
        _, centre, c0, c1, c2, c3, c4, c5 = fit
        u = t - centre
        return _fsc(1.0, c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * c5)))), t)
    if -math.inf < t < -2.0:
        return _w0_small(math.exp(t))
    raise ValueError(f"wright_omega needs finite t, got {t!r}")


def _branch_series(p: float) -> float:
    # W near y = -1/e in p = sqrt(2(e*y + 1)), error O(p^4): W_0 at p, W_{-1} at -p
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))


def _newton(w: float, y: float) -> float:
    # one Newton step on w*e^w = y itself, which the log forms of y or v round
    ew = math.exp(w)
    return w - (w * ew - y) / (ew * (1.0 + w))


def lambert_w0(y: float) -> float:
    """Principal Lambert branch: w >= -1 with w*e^w = y, for finite y >= -1/e."""
    if not (_BRANCH_POINT <= y < math.inf):  # also rejects NaN
        raise ValueError(f"lambert_w0 needs finite y >= -1/e, got {y!r}")
    if y > _E_M2:
        return wright_omega(math.log(y))
    if y >= 0.0:
        return _w0_small(y)
    p = math.sqrt(max(0.0, 2.0 * (math.e * y + 1.0)))
    if p < 1e-4:
        return _branch_series(p)  # truncation error ~ 1e-16 here
    w = _branch_series(p) if y < -0.3 else y * (1.0 - y)  # two Taylor terms about 0
    return _newton(_fsc(y, w / y, 0.0), y)


def lambert_wm1(y: float) -> float:
    """Secondary real branch: w <= -1 with w*e^w = y, for -1/e <= y < 0."""
    if not (_BRANCH_POINT <= y < 0.0):
        raise ValueError(f"lambert_wm1 needs -1/e <= y < 0, got {y!r}")
    p = math.sqrt(max(0.0, 2.0 * (math.e * y + 1.0)))
    if p < 1e-4:
        return _branch_series(-p)
    l1 = math.log(-y)
    if y < -0.25:
        w = _branch_series(-p)
    else:
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    # v = -w solves log(v) - v = log(-y), where e^w cannot underflow
    w = _fsc(-1.0, -w, l1)
    if y > -_TINY:
        # subnormal y: e^w underflows, so the residual is log(w*e^w / y)
        off = abs(w + math.log(-w) - l1) > 1e-10
    else:
        w = _newton(w, y)
        off = abs(w * math.exp(w) - y) > 1e-10 * abs(y)
    # w*e^w is decreasing on (-inf, -1]; a root off that branch or a loose
    # residual means the seed was not on it
    if w > -1.0 or off:
        raise NotConvergedError(f"lambert_wm1 did not reach the secondary branch at y={y!r}")
    return w


def _masses(x1s: Sequence[float], coupling: Coupling) -> List[float]:
    # The one solve body: M for each x1 of one coupling row from one
    # wright_omega(t), t = (1+x1^2)/z - log(z), with z and log(z) taken once
    # per row.  Checks every x1 in order and raises at the first bad one.
    # For t >= 0, M = z*omega(t).  For t < 0 that would carry omega's
    # relative error from t's rounding, about |t|*eps; there omega = e^(t -
    # omega) gives M = e^((1+x1^2)/z - omega), where omega < 0.57 enters
    # only absolutely.  (e^(u + log(z)) from omega = e^u would cancel.)
    z = coupling.z
    log_z = math.log(z)
    exp = math.exp
    masses = []
    for x1 in x1s:
        if not 0.0 <= x1 < math.inf:  # NaN fails this too
            raise ValueError(f"x1 must be finite and >= 0, got {x1!r}")
        if x1 == 0.0:
            masses.append(1.0)
            continue
        ratio = (1.0 + x1 * x1) / z
        if not ratio < math.inf:
            raise ValueError(f"(1+x1^2)/z must be finite, got x1={x1!r}, lambda={coupling.lam!r}")
        t = ratio - log_z
        omega = wright_omega(t)
        masses.append(z * omega if t >= 0.0 else exp(ratio - omega))
    return masses


def dressed_mass(x1: float, coupling: Coupling) -> float:
    """Dressed mass M = 1 + x1^2 + g, the root of M + z*log(M) = 1 + x1^2.

    With t = (1+x1^2)/z - log(z), M = z*omega(t) for t >= 0 and
    M = exp((1+x1^2)/z - omega(t)) for t < 0, within 2*eps*kappa,
    kappa = 1 + (1+x1^2)/(M + z).  M >= 1, and M = 1 exactly at x1 = 0,
    where the shift vanishes.  The domain ends where (1+x1^2)/z overflows
    binary64 (x1 above about 1.3e154, or tiny lambda).
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
    row = _flat_row(x1s, x2, x3, coupling)
    return list(zip(row[1::3], row[0::3], row[2::3]))


def _flat_row(x1s: Iterable[float], x2: float, x3: float, coupling: Coupling) -> List[float]:
    # The one row body: [G2, g, residual] of each x1 in turn, flat and in
    # the column order of tabulate's CSV, which formats it with one "%";
    # exact_records regroups it into (g, G2, residual) triples.
    Point3(0.0, x2, x3)  # x2 and x3 fail here with Point3's message
    x1s = tuple(x1s)  # read twice, so a generator is taken in full first
    z = coupling.z
    x2sq, x3sq = x2 * x2, x3 * x3
    log, log1p = math.log, math.log1p
    row = []
    append = row.append
    for x1, mass in zip(x1s, _masses(x1s, coupling)):
        x1sq = x1 * x1
        if mass >= 2.0:
            g = -z * log(mass)
        else:
            # Near M = 1, log(M) has an absolute, not a relative, error, so
            # d = M - 1 is refined by one Newton step on d + z*log1p(d) = x1^2,
            # whose error is second order in the seed's.  Below 1e-8, where
            # M - 1 keeps few correct digits, the linearised root x1^2/(1+z),
            # with relative error below d/2, is the better seed.
            d = mass - 1.0
            if d < 1e-8:
                d = x1sq / (1.0 + z)
            if d < _TINY:
                # a subnormal seed keeps few bits: g = -x1^2*z/(1+z) times
                # 1 - d/(2(1+z)) + O(d^2), a factor that rounds to 1 here
                g = 0.0 - x1sq * (z / (1.0 + z))  # +0.0, not -0.0, at x1 = 0
            else:
                d -= (d + z * log1p(d) - x1sq) / (1.0 + z / (1.0 + d))
                g = -z * log1p(d)
        try:
            residual = g + z * log(1.0 + x1sq + g)
        except ValueError:  # 1 + x1^2 + g rounded to <= 0
            residual = math.nan
        append(1.0 / (mass + x2sq + x3sq))
        append(g)
        append(residual)
    return row

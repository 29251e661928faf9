"""Exact symbolic perturbative orders of the 2-point function.

Every order n is a finite combination of terms

    coeff * log(1+x1^2)^logpow * (1+x1^2)^(-x1pow) * (1+|x|^2)^(-fullpow)

with rational coefficients; the prefactor (pi/2)^n is carried by the
order, so pi enters only the numeric evaluation.  ``x1pow`` counts
denominator powers (negative values are numerator factors of (1+x1^2)).

Exact terms are integer pairs (D, {(logpow, x1pow, fullpow): num}) in
lowest terms, and the way out of them is one-way: ``_series`` alone turns
a pair into a ``LogSeries`` of ``Fraction`` coefficients, and no code
turns a ``LogSeries`` back into a pair; ``extract_coefficients`` and the
evaluators only read one.  ``_pair`` alone sums (key, num, den) int
triples into a pair.  ``perturbative_order`` runs the renormalized
recursion bottom-up on cached pairs: ``_int_order(n)`` sums the products
of the tadpoles ``_int_tadpole(k)``, order k integrated over the
transverse momenta (with Taylor subtraction at k = 0), and the lower
orders.  ``_slots`` states the closed form once, for ``ansatz_order``
and ``extract_coefficients``.

The closed form is a theorem, the Lagrange-Buermann coefficient.  With
a = 1+x1^2, L = log(a) and B = 1+|x|^2, the shift g = M - a solves
g = z*phi(g) with phi(w) = -log(a + w), so [z^n] g^m = (m/n) [w^(n-m)]
phi(w)^n.  Expanding phi^n = (-1)^n (L + log(1 + w/a))^n binomially, with
log(1+u)^j = j! sum_i s(i,j) u^i/i!, the z^n coefficient of
G2 = sum_m (-g)^m / B^(m+1) at key (k, n-m, m+1) is

    (-1)^(n+m) (m/n) C(n, n-k) (n-k)! s(n-m, n-k) / (n-m)!
        = (-1)^(n+k) C(n-1, m-1) m!/k! |s(n-m, n-k)|,

the sign of ``_slots`` times ``combinatorics._closed_pair``; m = n gives
the leading coefficient 1 at key (n, 0, n+1).

Float evaluation has one body, ``_eval_terms``; ``eval_partial_sum``
feeds it the cached float table ``_float_order(n)`` and makes no
``Fraction``.  Evaluators raise ``ValueError`` once 1+x1^2 overflows
binary64 (x1 above about 1.34e154), or a power of lambda, log(1+x1^2)
or pi/2 does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, Tuple

from .combinatorics import _closed_pair
from .errors import ShapeMismatchError
from .specialfn import Point3

__all__ = [
    "LogTerm", "LogSeries", "perturbative_order", "ansatz_order",
    "extract_coefficients", "eval_series", "eval_series_transverse", "eval_partial_sum",
]

Key = Tuple[int, int, int]
IntTerm = Tuple[Key, int, int]  # (key, num, den > 0)
FloatTerm = Tuple[float, int, int, int]
IntPair = Tuple[int, Dict[Key, int]]


@dataclass(frozen=True)
class LogTerm:
    coeff: Fraction
    logpow: int
    x1pow: int
    fullpow: int

    def key(self) -> Key:
        return (self.logpow, self.x1pow, self.fullpow)


@dataclass(frozen=True)
class LogSeries:
    """Canonical term list at a fixed order (= power of the (pi/2) prefactor)."""

    order: int
    terms: Tuple[LogTerm, ...]


def _reduced(den: int, nums: Dict[Key, int]) -> IntPair:
    g = math.gcd(den, *nums.values())
    return den // g, {key: c // g for key, c in nums.items() if c}


def _pair(terms: Iterable[IntTerm]) -> IntPair:
    # the one keyed exact sum besides _int_order's: at the LCM of the denominators
    terms = list(terms)
    den = math.lcm(*(d for _, _, d in terms))
    nums: Dict[Key, int] = {}
    for key, c, d in terms:
        nums[key] = nums.get(key, 0) + c * (den // d)
    return _reduced(den, nums)


def _series(order: int, pair: IntPair) -> LogSeries:
    # the only place a LogSeries is made: one Fraction per key of a reduced pair
    den, nums = pair
    return LogSeries(order, tuple(LogTerm(Fraction(c, den), *key) for key, c in sorted(nums.items())))


@cache
def _int_order(n: int) -> IntPair:
    if n == 0:
        return 1, {(0, 0, 1): 1}
    for k in range(n):  # lower orders bottom-up, so a cold order nests no calls
        _int_order(k)
    parts = [(_int_tadpole(k), _int_order(n - 1 - k)) for k in range(n)]
    den = math.lcm(*(td * od for (td, _), (od, _) in parts))
    acc: Dict[Key, int] = {}
    for (td, tadpole), (od, rest) in parts:
        scale = -2 * (den // (td * od))
        for (tl, tp, tq), tc in tadpole.items():
            c = scale * tc
            for (ul, up, uq), uc in rest.items():
                key = (tl + ul, tp + up, tq + uq + 1)
                acc[key] = acc.get(key, 0) + c * uc
    return _reduced(den, acc)


@cache
def _int_tadpole(k: int) -> IntPair:
    # order k over the two transverse momenta: a term with fullpow q >= 2 (every
    # key at k >= 1) gives pi*(1+x1^2)^(1-q)/(4(q-1)), so over 2(q-1) with one
    # pi/2 to the prefactor; the free propagator (k = 0) diverges and is
    # integrated with its Taylor subtraction at x1 = 0: -(1/2) log(1+x1^2)
    if k == 0:
        return 2, {(1, 0, 0): -1}
    den, nums = _int_order(k)
    return _pair(((lp, xp + q - 1, 0), c, den * 2 * (q - 1)) for (lp, xp, q), c in nums.items())


def perturbative_order(n: int) -> LogSeries:
    """Order-n series from the recursion (one interaction, colour 1)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return _series(n, _int_order(n))


def _slots(n: int) -> Dict[Key, Tuple[int, int, int]]:
    # the closed form at order n: key (k, n-m, m+1) -> (k, m, sign) of its term
    # sign * a(n,k,m), 1 <= m <= k < n; the leading key (n, 0, n+1) holds 1
    return {(k, n - m, m + 1): (k, m, (-1) ** (n + k)) for k in range(1, n) for m in range(1, k + 1)}


def ansatz_order(n: int) -> LogSeries:
    """Order-n series from the closed (Lagrange-Buermann) form."""
    if n < 1:
        raise ValueError("ansatz starts at order 1")
    slots = _slots(n).items()
    terms = [(key, sign * c, d) for key, (k, m, sign) in slots for c, d in [_closed_pair(n, k, m)]]
    return _series(n, _pair([((n, 0, n + 1), 1, 1), *terms]))


def extract_coefficients(s: LogSeries) -> Dict[Tuple[int, int], Fraction]:
    """Read the a(n,k,m) row back off an order-n series.

    Inverts the sign and power conventions of the closed form and checks
    the leading term log^n/(1+|x|^2)^(n+1) has coefficient exactly 1.  A
    term that fits no slot raises ShapeMismatchError: the closed form is a
    theorem, so that would be a defect in the series, and nothing is coerced.
    """
    n = s.order
    if n < 1:
        raise ValueError("coefficient extraction needs order >= 1")
    slots = _slots(n)
    row: Dict[Tuple[int, int], Fraction] = {}
    lead = Fraction(0)
    for t in s.terms:
        if t.key() == (n, 0, n + 1):
            lead = t.coeff
        elif t.key() in slots:
            k, m, sign = slots[t.key()]
            row[(k, m)] = sign * t.coeff
        else:
            raise ShapeMismatchError(f"term {t} fits no slot at order {n}")
    if lead != 1:  # 0 when the leading term is missing
        raise ShapeMismatchError(f"order-{n} leading log^n term has coefficient {lead}, not 1")
    return row


def eval_series_transverse(s: LogSeries, x1: float, rho2):
    """Evaluate at points (x1, q2, q3) with rho2 = q2^2 + q3^2.

    ``rho2`` may be a float or an array, the natural shape for
    transverse integrands.  An array's values agree with scalar calls to
    within a few ulps of the sum of the terms' magnitudes, not bit for
    bit: numpy's power and the C library's pow differ by about an ulp.
    """
    a, lg = _x1_factors(x1)
    terms = ((float(t.coeff), t.logpow, t.x1pow, t.fullpow) for t in s.terms)
    return _eval_terms(s.order, terms, a, lg, a + rho2)


def eval_series(s: LogSeries, x: Point3) -> float:
    """Numeric value at x, (pi/2)^order prefactor included."""
    return eval_series_transverse(s, x.x1, x.x2 * x.x2 + x.x3 * x.x3)


def eval_partial_sum(n_max: int, x: Point3, lam: float) -> float:
    """Partial sum of the coupling expansion through order n_max.

    Reads the cached float table of each order; no ``Fraction`` is made.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    a, lg = _x1_factors(x.x1)
    b = a + (x.x2 * x.x2 + x.x3 * x.x3)
    return sum(_eval_terms(n, _float_order(n), a, lg, b, lam) for n in range(n_max + 1))


@cache
def _float_order(n: int) -> Tuple[FloatTerm, ...]:
    # (num/D, logpow, x1pow, fullpow) in the key order of LogSeries.terms;
    # int/int division is correctly rounded, so num/D == float(Fraction(num, D))
    den, nums = _int_order(n)
    return tuple((c / den, *key) for key, c in sorted(nums.items()))


def _x1_factors(x1: float) -> Tuple[float, float]:
    a = 1.0 + x1 * x1
    if not math.isfinite(a):
        raise ValueError(f"1+x1^2 must be finite (x1 up to about 1.34e154), got x1={x1!r}")
    return a, math.log(a)


def _eval_terms(order: int, terms: Iterable[FloatTerm], a: float, lg: float, b, lam: float = 1.0):
    # the one evaluation body: a = 1+x1^2, lg = log(a), b = a + rho2, and
    # lam^order * (pi/2)^order * the terms (1.0 * y == y, so lam = 1 is exact)
    try:
        total = 0.0
        for c, logpow, x1pow, fullpow in terms:
            total = total + c * lg**logpow * a ** (-x1pow) * b ** (-fullpow)
        return lam**order * ((0.5 * math.pi) ** order * total)
    except OverflowError as err:
        raise ValueError(f"order {order} overflows binary64: a power of lambda={lam!r}, "
                         f"log(1+x1^2)={lg!r} or pi/2 exceeds about 1.8e308") from err

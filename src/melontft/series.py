"""Exact symbolic perturbative orders of the 2-point function.

Every order n is a finite combination of terms

    coeff * log(1+x1^2)^logpow * (1+x1^2)^(-x1pow) * (1+|x|^2)^(-fullpow)

with rational coefficients; the prefactor (pi/2)^n is carried by the
order, so pi enters only the numeric evaluation.  ``x1pow`` counts
denominator powers (negative values are numerator factors of (1+x1^2)).

``perturbative_order`` runs the renormalized recursion (Taylor
subtraction of the tadpole at k = 0) in an integer kernel: an order is
(D, {(logpow, x1pow, fullpow): numerator}), reduced by the gcd of D and
all numerators.  ``_integrate`` is the one transverse integration rule,
``integrate_transverse`` its public view; ``Fraction`` terms (a
``LogSeries``) are made only for orders asked for.  ``ansatz_order``
builds the conjectured closed form; equality of the two is the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, List, Tuple

from .combinatorics import a_closed
from .errors import DivergentIntegralError, ShapeMismatchError
from .specialfn import Point3

__all__ = [
    "LogTerm",
    "LogSeries",
    "free_propagator",
    "integrate_transverse",
    "perturbative_order",
    "ansatz_order",
    "extract_coefficients",
    "eval_series",
    "eval_series_transverse",
    "eval_partial_sum",
]

TermItem = Tuple[Fraction, int, int, int]


@dataclass(frozen=True)
class LogTerm:
    coeff: Fraction
    logpow: int
    x1pow: int
    fullpow: int

    def key(self) -> Tuple[int, int, int]:
        return (self.logpow, self.x1pow, self.fullpow)


@dataclass(frozen=True)
class LogSeries:
    """Canonical term list at a fixed order (= power of the (pi/2) prefactor)."""

    order: int
    terms: Tuple[LogTerm, ...]

    @classmethod
    def build(cls, order: int, items: Iterable[TermItem]) -> "LogSeries":
        """Merge, drop zeros and sort: the only way series are constructed."""
        acc: Dict[Tuple[int, int, int], Fraction] = {}
        for coeff, logpow, x1pow, fullpow in items:
            key = (logpow, x1pow, fullpow)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(coeff)
        terms = tuple(LogTerm(c, *key) for key, c in sorted(acc.items()) if c != 0)
        return cls(order, terms)


def free_propagator() -> LogSeries:
    """Order-0 series 1/(1+|x|^2)."""
    return _series(0, _FREE)


def integrate_transverse(s: LogSeries) -> LogSeries:
    """Integrate over the two transverse momenta at fixed first component.

    Each term with fullpow = q >= 2 integrates in closed form to
    pi*(1+x1^2)^(1-q)/(4(q-1)) times its x1-dependent factors; absorbing
    one pi/2 into the prefactor bumps the order and leaves the rational
    factor 1/(2(q-1)).  The bare free propagator is the single divergent
    case and is integrated with its Taylor subtraction, giving
    -(1/2) log(1+x1^2) at order 1.  Any other term with fullpow < 2 means
    the caller fed something outside the expansion and is rejected.
    """
    den = math.lcm(*(t.coeff.denominator for t in s.terms))
    pair = den, {t.key(): t.coeff.numerator * (den // t.coeff.denominator) for t in s.terms}
    return _series(s.order + 1, _integrate(s.order, pair))


IntPair = Tuple[int, Dict[Tuple[int, int, int], int]]
_FREE: IntPair = (1, {(0, 0, 1): 1})


def _reduced(den: int, nums: Dict[Tuple[int, int, int], int]) -> IntPair:
    g = math.gcd(den, *nums.values())
    return den // g, {key: c // g for key, c in nums.items() if c}


def _series(order: int, pair: IntPair) -> LogSeries:
    return LogSeries.build(order, ((Fraction(c, pair[0]), *key) for key, c in pair[1].items()))


def _integrate(order: int, pair: IntPair) -> IntPair:
    # the rule of integrate_transverse, at the common denominator D*lcm(2(q-1))
    if order == 0 and pair == _FREE:
        return 2, {(1, 0, 0): -1}
    den, nums = pair
    lcm = math.lcm(*(2 * (q - 1) for _, _, q in nums))
    out: Dict[Tuple[int, int, int], int] = {}
    for (logpow, x1pow, q), c in nums.items():
        if q < 2:
            raise DivergentIntegralError(f"term {(logpow, x1pow, q)} has no transverse decay; only "
                                         "the bare free propagator is integrated with subtraction")
        key = (logpow, x1pow + q - 1, 0)
        out[key] = out.get(key, 0) + c * (lcm // (2 * (q - 1)))
    return _reduced(den * lcm, out)


@cache
def _int_order(n: int) -> IntPair:
    if n == 0:
        return _FREE
    # k = 0 builds every lower order first, so recursion stays one frame
    # per order and _int_tadpole(k) finds _int_order(k) cached
    parts = [(_int_tadpole(k), _int_order(n - 1 - k)) for k in range(n)]
    den = math.lcm(*(td * od for (td, _), (od, _) in parts))
    acc: Dict[Tuple[int, int, int], int] = {}
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
    return _integrate(k, _int_order(k))


@cache
def _order(n: int) -> LogSeries:
    # the public boundary: the only LogSeries the recursion makes
    return _series(n, _int_order(n))


def perturbative_order(n: int) -> LogSeries:
    """Order-n series from the recursion (one interaction, colour 1)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return _order(n)


def ansatz_order(n: int) -> LogSeries:
    """Order-n series from the conjectured closed form."""
    if n < 1:
        raise ValueError("ansatz starts at order 1")
    items: List[TermItem] = [(Fraction(1), n, 0, n + 1)]
    for k in range(1, n):
        for m in range(1, k + 1):
            sign = -1 if (n + k) % 2 else 1
            items.append((sign * a_closed(n, k, m), k, n - m, m + 1))
    return LogSeries.build(n, items)


def extract_coefficients(s: LogSeries) -> Dict[Tuple[int, int], Fraction]:
    """Read the a(n,k,m) row back off an order-n series.

    Inverts the sign and power conventions of the closed form and checks
    the leading term log^n/(1+|x|^2)^(n+1) has coefficient exactly 1.  A
    term that fits no slot raises ShapeMismatchError: at a new order that
    would falsify the conjectured structure, so nothing is coerced.
    """
    n = s.order
    if n < 1:
        raise ValueError("coefficient extraction needs order >= 1")
    row: Dict[Tuple[int, int], Fraction] = {}
    lead_ok = False
    for t in s.terms:
        if t.key() == (n, 0, n + 1):
            if t.coeff != 1:
                raise ShapeMismatchError(f"leading term has coefficient {t.coeff}, not 1")
            lead_ok = True
            continue
        k, m = t.logpow, t.fullpow - 1
        if not (1 <= m <= k <= n - 1) or t.x1pow != n - m:
            raise ShapeMismatchError(f"term {t} fits no slot at order {n}")
        sign = -1 if (n + k) % 2 else 1
        row[(k, m)] = sign * t.coeff
    if not lead_ok:
        raise ShapeMismatchError(f"order-{n} series lacks the leading log^n term")
    return row


def eval_series_transverse(s: LogSeries, x1: float, rho2):
    """Evaluate at points (x1, q2, q3) with rho2 = q2^2 + q3^2.

    ``rho2`` may be a float or any array type supporting arithmetic;
    this is the natural shape for building transverse integrands.
    """
    a = 1.0 + x1 * x1
    lg = math.log(a)
    total = 0.0
    for t in s.terms:
        total = total + float(t.coeff) * lg**t.logpow * a ** (-t.x1pow) * (1.0 + x1 * x1 + rho2) ** (-t.fullpow)
    return (0.5 * math.pi) ** s.order * total


def eval_series(s: LogSeries, x: Point3) -> float:
    """Numeric value at x, (pi/2)^order prefactor included."""
    return eval_series_transverse(s, x.x1, x.x2 * x.x2 + x.x3 * x.x3)


def eval_partial_sum(n_max: int, x: Point3, lam: float) -> float:
    """Partial sum of the coupling expansion through order n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return sum(lam**n * eval_series(perturbative_order(n), x) for n in range(n_max + 1))


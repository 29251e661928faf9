"""Exact symbolic perturbative orders of the 2-point function.

Every order n is a finite combination of terms

    coeff * log(1+x1^2)^logpow * (1+x1^2)^(-x1pow) * (1+|x|^2)^(-fullpow)

with exact rational coefficients and a symbolic global prefactor
(pi/2)^n carried by the series order: pi never enters a coefficient,
only the final numeric evaluation.  ``x1pow`` counts denominator powers,
so negative values hold numerator factors of (1+x1^2).

Two independent constructions are provided: ``perturbative_order`` runs
the renormalized recursion (Taylor subtraction of the tadpole at the
k = 0 step), while ``ansatz_order`` builds the conjectured closed form
from the a(n,k,m) coefficients.  Exact equality of the two is one of the
package's main reproduction targets.
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
    "series_mul",
    "integrate_transverse",
    "perturbative_order",
    "ansatz_order",
    "extract_coefficients",
    "eval_series",
    "eval_series_transverse",
    "eval_partial_sum",
    "three_colour_low_order",
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
        terms = tuple(
            LogTerm(c, k, p, q) for (k, p, q), c in sorted(acc.items()) if c != 0
        )
        return cls(order, terms)


def free_propagator() -> LogSeries:
    """Order-0 series 1/(1+|x|^2)."""
    return LogSeries.build(0, [(Fraction(1), 0, 0, 1)])


def series_mul(a: LogSeries, b: LogSeries) -> LogSeries:
    """Termwise product; orders (and with them prefactor powers) add."""
    items = [
        (ta.coeff * tb.coeff, ta.logpow + tb.logpow, ta.x1pow + tb.x1pow, ta.fullpow + tb.fullpow)
        for ta in a.terms
        for tb in b.terms
    ]
    return LogSeries.build(a.order + b.order, items)


def _is_free_propagator(s: LogSeries) -> bool:
    return s.order == 0 and s.terms == free_propagator().terms


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
    if _is_free_propagator(s):
        return LogSeries.build(1, [(Fraction(-1, 2), 1, 0, 0)])
    items: List[TermItem] = []
    for t in s.terms:
        if t.fullpow < 2:
            raise DivergentIntegralError(
                f"term {t} has no transverse decay; only the bare free "
                "propagator is integrated with subtraction"
            )
        items.append(
            (t.coeff / (2 * (t.fullpow - 1)), t.logpow, t.x1pow + t.fullpow - 1, 0)
        )
    return LogSeries.build(s.order + 1, items)


@cache
def _order(n: int) -> LogSeries:
    if n == 0:
        return free_propagator()
    items: List[TermItem] = []
    for k in range(n):
        # k = 0 builds every lower order first, so recursion stays one
        # frame per order and _tadpole(k) finds _order(k) cached
        rest = _order(n - 1 - k)
        for t in _tadpole(k).terms:
            for u in rest.terms:
                items.append(
                    (
                        -2 * t.coeff * u.coeff,
                        t.logpow + u.logpow,
                        t.x1pow + u.x1pow,
                        t.fullpow + u.fullpow + 1,
                    )
                )
    return LogSeries.build(n, items)


@cache
def _tadpole(k: int) -> LogSeries:
    return integrate_transverse(_order(k))


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


def _arctan_term(xc: float) -> float:
    # removable 0/0 at xc = 0; the limit value is 1 - log(2)
    if xc == 0.0:
        return 1.0 - math.log(2.0)
    return (xc * math.log(0.25 * (xc * xc + 1.0)) + 2.0 * math.atan(xc)) / (
        2.0 * (xc**3 + xc)
    )


def three_colour_low_order(n: int, x: Point3) -> float:
    """Printed low orders of the model with all three interactions.

    Only n in {0, 1, 2} exists in closed form; the order-2 expression
    carries the arctan term that rules out a pure-logarithm expansion for
    that model.
    """
    b = 1.0 + x.norm2
    comps = (x.x1, x.x2, x.x3)
    if n == 0:
        return 1.0 / b
    if n == 1:
        return math.pi / (2.0 * b * b) * sum(math.log(c * c + 1.0) for c in comps)
    if n == 2:
        logs = sum(math.log(c * c + 1.0) for c in comps)
        s1 = math.pi**2 * logs * logs / (4.0 * b)
        s2 = sum(math.pi * math.log(c * c + 1.0) / (2.0 * (c * c + 1.0)) for c in comps)
        s3 = math.pi**2 * sum(_arctan_term(c) for c in comps)
        return (s1 - s2 - s3) / (b * b)
    raise ValueError("three-colour closed forms exist for orders 0..2 only")

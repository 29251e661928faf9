"""Exact integer and rational combinatorics for the melonic expansion.

Stirling numbers of the first kind, harmonic numbers and the coefficient
family a(n, k, m) that organizes the logarithmic terms of the perturbative
2-point function.  Everything here is exact: integers are arbitrary
precision, ratios are ``fractions.Fraction``.

Conventions
-----------
* ``stirling_first_signed`` uses s(0,0) = 1, s(n,0) = 0 for n > 0,
  s(n,k) = 0 for k > n, and the recurrence
  s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k).
* The unsigned variant is ``|s(n,k)| = (-1)^(n-k) s(n,k)``.
* Empty summation ranges contribute 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Callable, Dict, Mapping, Tuple

__all__ = [
    "stirling_first_signed",
    "stirling_first_unsigned",
    "binomial",
    "harmonic",
    "a_closed",
    "a_recur",
    "CoeffTable",
    "IdentityCheck",
    "BigStirlingCheck",
    "check_identity_stirling_621",
    "check_identity_harmonic",
    "check_identity_big_stirling",
    "rational_str",
]

Index = Tuple[int, int, int]


def rational_str(value: Fraction) -> str:
    """Serialize a Fraction as an explicit "p/q" decimal string."""
    return f"{value.numerator}/{value.denominator}"


@cache
def _signed_stirling_row(n: int) -> Tuple[int, ...]:
    """Row (s(n,0), ..., s(n,n)), built up from row 0 without recursion."""
    row: Tuple[int, ...] = (1,)
    for i in range(1, n + 1):
        prev = row + (0,)
        row = (0,) + tuple(prev[k - 1] - (i - 1) * prev[k] for k in range(1, i + 1))
    return row


def stirling_first_signed(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be nonnegative")
    if k > n:
        return 0
    return _signed_stirling_row(n)[k]


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind |s(n, k)|."""
    return abs(stirling_first_signed(n, k))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def harmonic(k: int) -> Fraction:
    """Harmonic number H_k = sum_{j<=k} 1/j as an exact Fraction."""
    if k < 1:
        raise ValueError("harmonic number needs k >= 1")
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def _check_index(n: int, k: int, m: int) -> None:
    if n < 2 or not (1 <= m <= k <= n - 1):
        raise ValueError(f"coefficient index out of range: (n,k,m)=({n},{k},{m})")


def a_closed(n: int, k: int, m: int) -> Fraction:
    """Coefficient a(n,k,m) from its closed form.

    a(n,k,m) = C(n-1, m-1) * m!/k! * |s(n-m, n-k)|.
    """
    _check_index(n, k, m)
    return (
        Fraction(binomial(n - 1, m - 1))
        * Fraction(factorial(m), factorial(k))
        * stirling_first_unsigned(n - m, n - k)
    )


def _generic_rhs(n: int, k: int, m: int, a: Callable[..., Fraction]) -> Fraction:
    """Right-hand side of the generic recurrence (2 <= k <= n-3, 2 <= m <= k).

    ``a(n, k, m)`` supplies the coefficients: the closed form, or the
    recurrence itself.
    """
    val = a(n - 1, k - 1, m - 1)
    for r in range(m - 1, k):
        val += a(n - 1 + r - k, r, m - 1) / (k - r)
    for l in range(1, k - m + 2):
        val += a(n - m, k - m + 1, l) / l
    for r in range(m - 1, k):
        for l in range(1, k - r + 1):
            for p in range(k - r + 1, n - 1 - r):
                val += a(p, k - r, l) * a(n - p - 1, r, m - 1) / l
    return val


@cache
def _a_recur(n: int, k: int, m: int) -> Fraction:
    if k == n - 1:
        if m == 1:
            return Fraction(1, n - 1)
        return Fraction(1, n - m) + _a_recur(n - 1, n - 2, m - 1)
    if m == 1:
        # applies for k <= n-2; at k = 1 it reduces to a(n,1,1) = a(n-1,1,1)
        return sum((_a_recur(n - 1, k, l) / l for l in range(1, k + 1)), Fraction(0))
    if k == n - 2:
        val = _a_recur(n - 1, n - 3, m - 1)
        for r in range(m - 1, n - 2):
            val += _a_recur(r + 1, r, m - 1) / (n - 2 - r)
        for l in range(1, n - m):
            val += _a_recur(n - m, n - 1 - m, l) / l
        return val
    # generic case: 2 <= k <= n-3 and 2 <= m <= k
    return _generic_rhs(n, k, m, _a_recur)


def a_recur(n: int, k: int, m: int) -> Fraction:
    """Coefficient a(n,k,m) from the recurrence system alone.

    Seeded by a(2,1,1) = 1; independent of the closed form, so the two
    routes can be compared exactly.
    """
    _check_index(n, k, m)
    return _a_recur(n, k, m)


@dataclass(frozen=True)
class CoeffTable:
    """Exact table of a(n,k,m) for 2 <= n <= max_order, 1 <= m <= k <= n-1."""

    max_order: int
    entries: Mapping[Index, Fraction]

    @classmethod
    def _build(cls, max_order: int, a: Callable[[int, int, int], Fraction]) -> "CoeffTable":
        if max_order < 2:
            raise ValueError("max_order must be >= 2")
        entries = {
            (n, k, m): a(n, k, m)
            for n in range(2, max_order + 1)
            for k in range(1, n)
            for m in range(1, k + 1)
        }
        return cls(max_order, entries)

    @classmethod
    def from_closed_form(cls, max_order: int) -> "CoeffTable":
        return cls._build(max_order, a_closed)

    @classmethod
    def from_recurrences(cls, max_order: int) -> "CoeffTable":
        return cls._build(max_order, _a_recur)

    def __getitem__(self, key: Index) -> Fraction:
        n, k, m = key
        _check_index(n, k, m)
        if n > self.max_order:
            raise ValueError(f"order {n} exceeds table max_order {self.max_order}")
        return self.entries[key]

    def row(self, n: int) -> Dict[Tuple[int, int], Fraction]:
        """All coefficients of one order, keyed by (k, m)."""
        if not (2 <= n <= self.max_order):
            raise ValueError(f"order {n} outside table range")
        return {(k, m): v for (nn, k, m), v in self.entries.items() if nn == n}


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of an exact identity evaluation: both sides, not a bare bool."""

    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    @property
    def residual(self) -> Fraction:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class StirlingIdentityCheck(IdentityCheck):
    """Corrected-form sides plus the printed form evaluated as-is."""

    printed_lhs: Fraction
    printed_rhs: Fraction

    @property
    def printed_matches(self) -> bool:
        return self.printed_lhs == self.printed_rhs


def check_identity_stirling_621(n: int, k: int) -> StirlingIdentityCheck:
    """Check the Stirling-number sum identity behind the m=1 recurrence.

    Corrected form (both sides normalized by 1/(n-1)!):

        c(n-1, n-k) / (n-1)!  ==  sum_{l=1..k} c(n-1-l, n-1-k) / ((n-1) (n-1-l)!)

    with c the unsigned Stirling numbers of the first kind.  The printed
    variant of this identity carries 1/(n-l)! inside the sum instead; it is
    evaluated separately and reported, since it disagrees with direct
    evaluation for l >= 2 (first counterexample at (n,k) = (5,2)).
    """
    if n < 4 or not (1 <= k <= n - 3):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    lhs = Fraction(stirling_first_unsigned(n - 1, n - k), factorial(n - 1))
    rhs = sum(
        (
            Fraction(stirling_first_unsigned(n - 1 - l, n - 1 - k))
            / ((n - 1) * factorial(n - 1 - l))
            for l in range(1, k + 1)
        ),
        Fraction(0),
    )
    printed_rhs = sum(
        (
            Fraction(stirling_first_unsigned(n - 1 - l, n - 1 - k), factorial(n - l))
            for l in range(1, k + 1)
        ),
        Fraction(0),
    )
    return StirlingIdentityCheck(lhs=lhs, rhs=rhs, printed_lhs=lhs, printed_rhs=printed_rhs)


def check_identity_harmonic(n: int, k: int) -> IdentityCheck:
    """Check H_k == (k+1)/(2n+3-k) * sum_{l=1..k} (n+1-k+l)/(l(k+1-l))."""
    if n < 1 or not (1 <= k <= n):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    lhs = harmonic(k)
    inner = sum(
        (Fraction(n + 1 - k + l, l * (k + 1 - l)) for l in range(1, k + 1)),
        Fraction(0),
    )
    rhs = Fraction(k + 1, 2 * n + 3 - k) * inner
    return IdentityCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class BigStirlingCheck:
    """Printed big Stirling identity vs. the recurrence it was derived from."""

    printed_lhs: Fraction
    printed_rhs: Fraction
    recurrence_lhs: Fraction
    recurrence_rhs: Fraction

    @property
    def printed_matches(self) -> bool:
        return self.printed_lhs == self.printed_rhs

    @property
    def passed(self) -> bool:
        # ground truth is the recurrence acting on the coefficients themselves
        return self.recurrence_lhs == self.recurrence_rhs


def check_identity_big_stirling(n: int, k: int, m: int) -> BigStirlingCheck:
    """Evaluate the big Stirling/binomial identity exactly as printed.

    On top of the printed sides, the generic recurrence is re-verified
    directly on coefficient values; that comparison is the pass criterion,
    while the printed form's status is recorded for inspection.
    """
    if n < 5 or not (2 <= k <= n - 3) or not (2 <= m <= k):
        raise ValueError(f"identity index out of range: (n,k,m)=({n},{k},{m})")

    def c(a: int, b: int) -> int:
        if a < 0 or b < 0 or b > a:
            return 0
        return stirling_first_unsigned(a, b)

    lhs = (
        Fraction((n - 1) * m - k * (m - 1))
        * Fraction(factorial(n - 2), factorial(k) * factorial(n - m))
        * c(n - m, n - k)
    )
    rhs = Fraction(0)
    for l in range(1, k - m + 2):
        bracket = Fraction(factorial(n - 1 - m), factorial(k - m + 1)) + Fraction(
            m - 1, l
        ) * Fraction(factorial(n - l - 2), factorial(k - l))
        rhs += Fraction(c(n - m - l, n - k - 1), factorial(n - m - l)) * bracket
    for l in range(1, k - m + 2):
        outer = Fraction(m - 1, factorial(l) * factorial(k - l))
        inner = Fraction(0)
        for p in range(l + 1, n - 1 - k + l):
            if n - m - p < 0:
                continue
            tail = sum(
                (Fraction(c(p - r, p - l), factorial(p - r)) for r in range(1, l + 1)),
                Fraction(0),
            )
            inner += (
                Fraction(factorial(p - 1) * factorial(n - 2 - p), factorial(n - m - p))
                * c(n - m - p, n - k - 1 - p + l)
                * tail
            )
        rhs += outer * inner
    return BigStirlingCheck(
        printed_lhs=lhs,
        printed_rhs=rhs,
        recurrence_lhs=a_closed(n, k, m),
        recurrence_rhs=_generic_rhs(n, k, m, a_closed),
    )

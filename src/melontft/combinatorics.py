"""Exact integer and rational combinatorics for the melonic expansion.

Stirling numbers of the first kind, harmonic numbers and the coefficient
family a(n, k, m) that organizes the logarithmic terms of the perturbative
2-point function.  Everything here is exact.  Rationals are computed as
reduced (numerator, denominator) int pairs, and every sum goes through
``_pair_sum``, which adds its terms at the LCM of their own denominators;
a ``fractions.Fraction`` is made only for a value a public name returns.

Conventions
-----------
* ``stirling_first_signed`` uses s(0,0) = 1, s(n,0) = 0 for n > 0,
  s(n,k) = 0 for k > n, and the recurrence
  s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k).
* The unsigned variant is ``|s(n,k)| = (-1)^(n-k) s(n,k)``.
* Empty summation ranges contribute 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .errors import _record

__all__ = [
    "stirling_first_signed",
    "stirling_first_unsigned",
    "binomial",
    "harmonic",
    "a_closed",
    "a_recur",
    "CoeffTable",
    "IdentityCheck",
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


Pair = Tuple[int, int]  # (numerator, denominator > 0), reduced


def _pair_sum(terms: Iterable[Pair]) -> Pair:
    """Exact sum of (num, den) terms at the LCM of their denominators, reduced."""
    terms = list(terms)
    den = lcm(*(d for _, d in terms))
    num = sum(c * (den // d) for c, d in terms)
    g = gcd(num, den)
    return num // g, den // g


def harmonic(k: int) -> Fraction:
    """Harmonic number H_k = sum_{j<=k} 1/j as an exact Fraction."""
    if k < 1:
        raise ValueError("harmonic number needs k >= 1")
    return Fraction(*_pair_sum((1, j) for j in range(1, k + 1)))


def _check_index(n: int, k: int, m: int) -> None:
    if n < 2 or not (1 <= m <= k <= n - 1):
        raise ValueError(f"coefficient index out of range: (n,k,m)=({n},{k},{m})")


@cache
def _closed_pair(n: int, k: int, m: int) -> Pair:
    # a one-term sum, to reduce C(n-1, m-1) * m!/k! * |s(n-m, n-k)|
    num = binomial(n - 1, m - 1) * factorial(m) * stirling_first_unsigned(n - m, n - k)
    return _pair_sum([(num, factorial(k))])


def a_closed(n: int, k: int, m: int) -> Fraction:
    """Coefficient a(n,k,m) from its closed form.

    a(n,k,m) = C(n-1, m-1) * m!/k! * |s(n-m, n-k)|.
    """
    _check_index(n, k, m)
    return Fraction(*_closed_pair(n, k, m))


def _generic_rhs(n: int, k: int, m: int, a: Callable[[int, int, int], Pair]) -> Pair:
    """Right-hand side of the generic recurrence (2 <= m <= k <= n-2).

    ``a(n, k, m)`` supplies the coefficients as pairs: the closed form, or
    the recurrence itself.  Each sum_l a(N-1, K, l)/l reads as a(N, K, 1) by
    ``_recur_pair``'s m = 1 rule (K <= N-2 throughout); k = n-2 empties the
    p-sum.
    """
    terms = [a(n - 1, k - 1, m - 1), a(n - m + 1, k - m + 1, 1)]
    for r in range(m - 1, k):
        c, d = a(n - 1 + r - k, r, m - 1)
        terms.append((c, d * (k - r)))
        for p in range(k - r + 1, n - 1 - r):
            (c1, d1), (c2, d2) = a(p + 1, k - r, 1), a(n - p - 1, r, m - 1)
            terms.append((c1 * c2, d1 * d2))
    return _pair_sum(terms)


@cache
def _recur_pair(n: int, k: int, m: int) -> Pair:
    if k == n - 1:
        if m == 1:
            return 1, n - 1
        return _pair_sum([(1, n - m), _recur_pair(n - 1, n - 2, m - 1)])
    if m == 1:
        # applies for k <= n-2; at k = 1 it reduces to a(n,1,1) = a(n-1,1,1)
        terms = [_recur_pair(n - 1, k, l) for l in range(1, k + 1)]
        return _pair_sum((c, d * l) for l, (c, d) in enumerate(terms, 1))
    # generic case: 2 <= m <= k <= n-2
    return _generic_rhs(n, k, m, _recur_pair)


def a_recur(n: int, k: int, m: int) -> Fraction:
    """Coefficient a(n,k,m) from the recurrence system alone.

    Seeded by a(2,1,1) = 1; independent of the closed form, so the two
    routes can be compared exactly.
    """
    _check_index(n, k, m)
    return Fraction(*_recur_pair(n, k, m))


@_record
class CoeffTable:
    """Exact table of a(n,k,m) for 2 <= n <= max_order, 1 <= m <= k <= n-1."""

    max_order: int
    entries: Mapping[Index, Fraction]

    @classmethod
    def _build(cls, max_order: int, a: Callable[[int, int, int], Pair]) -> "CoeffTable":
        if max_order < 2:
            raise ValueError("max_order must be >= 2")
        entries = {
            (n, k, m): Fraction(*a(n, k, m))
            for n in range(2, max_order + 1)
            for k in range(1, n)
            for m in range(1, k + 1)
        }
        return cls(max_order, entries)

    @classmethod
    def from_closed_form(cls, max_order: int) -> "CoeffTable":
        return cls._build(max_order, _closed_pair)

    @classmethod
    def from_recurrences(cls, max_order: int) -> "CoeffTable":
        return cls._build(max_order, _recur_pair)

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


@_record
class IdentityCheck:
    """Both sides of an exact identity, as derived and as printed.

    ``passed`` judges the derived sides; ``printed_matches`` records
    whether the form the paper prints holds, which it need not.
    """

    lhs: Fraction
    rhs: Fraction
    printed_lhs: Fraction
    printed_rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    @property
    def printed_matches(self) -> bool:
        return self.printed_lhs == self.printed_rhs


def check_identity_stirling_621(n: int, k: int) -> IdentityCheck:
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
    tops = [stirling_first_unsigned(n - 1 - l, n - 1 - k) for l in range(1, k + 1)]
    rhs = _pair_sum((c, (n - 1) * factorial(n - 1 - l)) for l, c in enumerate(tops, 1))
    printed_rhs = _pair_sum((c, factorial(n - l)) for l, c in enumerate(tops, 1))
    return IdentityCheck(
        lhs=lhs, rhs=Fraction(*rhs), printed_lhs=lhs, printed_rhs=Fraction(*printed_rhs)
    )


def check_identity_harmonic(n: int, k: int) -> IdentityCheck:
    """Check H_k == (k+1)/(2n+3-k) * sum_{l=1..k} (n+1-k+l)/(l(k+1-l)).

    Checked as printed, so the printed sides are the derived ones.
    """
    if n < 1 or not (1 <= k <= n):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    lhs = harmonic(k)
    c, d = _pair_sum((n + 1 - k + l, l * (k + 1 - l)) for l in range(1, k + 1))
    rhs = Fraction((k + 1) * c, (2 * n + 3 - k) * d)
    return IdentityCheck(lhs=lhs, rhs=rhs, printed_lhs=lhs, printed_rhs=rhs)


def check_identity_big_stirling(n: int, k: int, m: int) -> IdentityCheck:
    """Evaluate the big Stirling/binomial identity exactly as printed.

    On top of the printed sides, the generic recurrence is re-verified
    directly on coefficient values; that comparison is the pass criterion,
    while the printed form's status is recorded for inspection.
    """
    if n < 5 or not (2 <= k <= n - 3) or not (2 <= m <= k):
        raise ValueError(f"identity index out of range: (n,k,m)=({n},{k},{m})")

    c = stirling_first_unsigned
    printed_lhs = Fraction(
        ((n - 1) * m - k * (m - 1)) * factorial(n - 2) * c(n - m, n - k),
        factorial(k) * factorial(n - m),
    )
    terms = []
    for l in range(1, k - m + 2):
        # weight * bracket, with weight |s(n-m-l, n-k-1)|/(n-m-l)!
        w, wd = c(n - m - l, n - k - 1), factorial(n - m - l)
        terms.append((w * factorial(n - 1 - m), wd * factorial(k - m + 1)))
        terms.append((w * (m - 1) * factorial(n - l - 2), wd * l * factorial(k - l)))
        # outer (m-1)/(l!(k-l)!) times each p-term of inner times its tail's r-terms
        for p in range(l + 1, n - 1 - k + l):
            num = (m - 1) * factorial(p - 1) * factorial(n - 2 - p) * c(n - m - p, n - k - 1 - p + l)
            den = factorial(l) * factorial(k - l) * factorial(n - m - p)
            terms.extend((num * c(p - r, p - l), den * factorial(p - r)) for r in range(1, l + 1))
    # ground truth is the recurrence acting on the coefficients themselves
    return IdentityCheck(
        lhs=a_closed(n, k, m),
        rhs=Fraction(*_generic_rhs(n, k, m, _closed_pair)),
        printed_lhs=printed_lhs,
        printed_rhs=Fraction(*_pair_sum(terms)),
    )

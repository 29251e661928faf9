"""Exact integer and rational combinatorics for the melonic expansion.

Stirling numbers of the first kind, harmonic numbers and the coefficient
family a(n, k, m) that organizes the logarithmic terms of the perturbative
2-point function.  Everything here is exact.  The family is carried as the
integer B(n, k, m) = k! a(n, k, m) = C(n-1, m-1) m! |s(n-m, n-k)|: its
recurrences are integer sums with integer scale factors, and B is divided
by k! only where a public ``fractions.Fraction`` is made.

Each route to B, the closed form and the recurrences, fills one cached
table of integer columns, ``col[k][m]`` a list over N of B(N, k, m),
bottom-up one order at a time (``_columns``); a table grows to the
largest order asked of it and is never rebuilt.  ``_generic_rhs`` is the
one body of the generic recurrence: the recurrence table runs it on its
own columns and the big Stirling check on the closed-form columns.  The
identity checks sum over denominators known in closed form; ``_pair_sum``,
which adds reduced (num, den) pairs at the LCM of their denominators,
remains for the harmonic identity's right-hand side and the big Stirling
identity's printed side.

Conventions
-----------
* ``_stirling_row(n)`` holds c(n,k) = |s(n,k)|: c(0,0) = 1, c(n,0) = 0 for
  n > 0, c(n,k) = 0 for k > n, and c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k).
* The signed number s(n,k) = (-1)^(n-k) c(n,k) enters only derivations,
  such as ``series``'s; the code carries c alone.
* Empty summation ranges contribute 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Callable, Dict, Iterable, Mapping, Tuple

from .errors import _record

Index = Tuple[int, int, int]


def rational_str(value: Fraction) -> str:
    """Serialize a Fraction as an explicit "p/q" decimal string."""
    return f"{value.numerator}/{value.denominator}"


@cache
def _stirling_row(n: int) -> Tuple[int, ...]:
    """Row (c(n,0), ..., c(n,n)) of unsigned numbers, built up from row 0 without recursion."""
    row: Tuple[int, ...] = (1,)
    for i in range(1, n + 1):
        prev = row + (0,)
        row = (0,) + tuple(prev[k - 1] + (i - 1) * prev[k] for k in range(1, i + 1))
    return row


def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind |s(n, k)|."""
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be nonnegative")
    return _stirling_row(n)[k] if k <= n else 0


Pair = Tuple[int, int]  # (numerator, denominator > 0), reduced


def _pair_sum(terms: Iterable[Pair]) -> Pair:
    """Exact sum of (num, den) terms at the LCM of their denominators, reduced."""
    terms = list(terms)
    den = lcm(*(d for _, d in terms))
    num = sum(c * (den // d) for c, d in terms)
    g = gcd(num, den)
    return num // g, den // g


@cache
def _harmonic_pair(k: int) -> Tuple[int, int]:
    # H_k over k!, unreduced: the Fraction made from it reduces it
    f = factorial(k)
    return sum(f // j for j in range(1, k + 1)), f


def harmonic(k: int) -> Fraction:
    """Harmonic number H_k = sum_{j<=k} 1/j as an exact Fraction."""
    if k < 1:
        raise ValueError("harmonic number needs k >= 1")
    return Fraction(*_harmonic_pair(k))


def _check_index(n: int, k: int, m: int) -> None:
    if n < 2 or not (1 <= m <= k <= n - 1):
        raise ValueError(f"coefficient index out of range: (n,k,m)=({n},{k},{m})")


def _closed_int(n: int, k: int, m: int) -> int:
    # B(n,k,m) = k! a(n,k,m) = C(n-1, m-1) * m! * |s(n-m, n-k)|
    return comb(n - 1, m - 1) * factorial(m) * _stirling_row(n - m)[n - k]


def a_closed(n: int, k: int, m: int) -> Fraction:
    """Coefficient a(n,k,m) from its closed form.

    a(n,k,m) = C(n-1, m-1) * m!/k! * |s(n-m, n-k)|.
    """
    _check_index(n, k, m)
    return Fraction(_closed_int(n, k, m), factorial(k))


@cache
def _factorials(n: int) -> Tuple[int, ...]:
    return tuple(accumulate(range(1, n + 1), mul, initial=1))  # 0!, 1!, ..., n!


def _generic_rhs(n: int, k: int, m: int, col: list) -> int:
    """k! times the right-hand side of the generic recurrence (2 <= m <= k <= n-2).

    ``col[K][M][N]`` is B(N, K, M) = K! a(N, K, M) through order n - 1 at
    least: the closed form's columns or the recurrence's own.  Each
    sum_l a(N-1, K, l)/l reads as a(N, K, 1) by the m = 1 rule (K <= N-2
    throughout), so each p-sum is one product of two column slices,
    B(p+1, k-r, 1) going up and B(n-p-1, r, m-1) going down; k = n-2
    empties it.  Each term's scale factor is k! over the k-index factorials
    of its B's, an integer: k, k!/(k-m+1)!, k!/(r! (k-r)) and C(k, r).
    """
    f = _factorials(k)
    total = k * col[k - 1][m - 1][n - 1] + f[k] // f[k - m + 1] * col[k - m + 1][1][n - m + 1]
    for r in range(m - 1, k):
        low = col[r][m - 1]
        tail = sum(map(mul, col[k - r][1][k - r + 2 : n - r], low[n - k + r - 2 : r : -1]))
        total += f[k] // (f[r] * (k - r)) * low[n - 1 + r - k] + comb(k, r) * tail
    return total


def _recur_row(col: list, n: int, k: int) -> list:
    # B(n,k,m) for m = 1..k from the recurrences on the orders below n
    if k == n - 1:
        return [factorial(k - 1)] + [factorial(k) // (n - m) + k * col[k - 1][m - 1][k] for m in range(2, n)]
    # m = 1 for k <= n-2; at k = 1 it reduces to a(n,1,1) = a(n-1,1,1).
    # l! divides B(n-1,k,l), so a quotient with a remainder is a defect
    quotients, rems = zip(*(divmod(col[k][l][n - 1], l) for l in range(1, k + 1)))
    if any(rems):
        raise ArithmeticError(f"some B({n - 1},{k},l) is not a multiple of l <= {k}")
    return [sum(quotients)] + [_generic_rhs(n, k, m, col) for m in range(2, k + 1)]


def _closed_row(col: list, n: int, k: int) -> list:
    return [_closed_int(n, k, m) for m in range(1, k + 1)]


@cache
def _table(row: Callable) -> list:
    return [[]]  # the unused col[0] alone: a table holds orders up to len(col)


def _columns(top: int, row: Callable) -> list:
    """A route's one table, col[k][m] a list over N of B(N, k, m), grown through order top.

    It is filled bottom-up, one order at a time: ``row(col, n, k)`` makes
    B(n, k, m) for m = 1..k from the orders below n, and order n is
    appended once all its rows are made, so an error leaves the table whole.
    """
    col = _table(row)
    for n in range(len(col) + 1, top + 1):
        rows = [row(col, n, k) for k in range(1, n)]
        col.append([None] + [[0] * n for _ in range(1, n)])
        for k, values in enumerate(rows, 1):
            for column, b in zip(col[k][1:], values):
                column.append(b)
    return col


@_record
class CoeffTable:
    """Exact table of a(n,k,m) for 2 <= n <= max_order, 1 <= m <= k <= n-1."""

    max_order: int
    entries: Mapping[Index, Fraction]

    @classmethod
    def _build(cls, max_order: int, row: Callable) -> "CoeffTable":
        if max_order < 2:
            raise ValueError("max_order must be >= 2")
        col, f = _columns(max_order, row), _factorials(max_order)
        entries = {
            (n, k, m): Fraction(col[k][m][n], f[k])
            for n in range(2, max_order + 1)
            for k in range(1, n)
            for m in range(1, k + 1)
        }
        return cls(max_order, entries)

    @classmethod
    def from_closed_form(cls, max_order: int) -> "CoeffTable":
        return cls._build(max_order, _closed_row)

    @classmethod
    def from_recurrences(cls, max_order: int) -> "CoeffTable":
        """The table from the recurrences alone, seeded by a(2,1,1) = 1: it never reads the closed form."""
        return cls._build(max_order, _recur_row)

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
    # all three sides over (n-1)!: the l-th c scales by (n-2)!/(n-1-l)! in rhs, by (n-1)!/(n-l)! in printed_rhs
    den, tops = factorial(n - 1), [(l, _stirling_row(n - 1 - l)[n - 1 - k]) for l in range(1, k + 1)]
    rhs = sum(c * (factorial(n - 2) // factorial(n - 1 - l)) for l, c in tops)
    printed_rhs = sum(c * (den // factorial(n - l)) for l, c in tops)
    lhs = Fraction(_stirling_row(n - 1)[n - k], den)
    return IdentityCheck(lhs, Fraction(rhs, den), lhs, Fraction(printed_rhs, den))


def check_identity_harmonic(n: int, k: int) -> IdentityCheck:
    """Check H_k == (k+1)/(2n+3-k) * sum_{l=1..k} (n+1-k+l)/(l(k+1-l)).

    Checked as printed, so the printed sides are the derived ones.
    """
    if n < 1 or not (1 <= k <= n):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    lhs = harmonic(k)
    c, d = _pair_sum((n + 1 - k + l, l * (k + 1 - l)) for l in range(1, k + 1))
    rhs = Fraction((k + 1) * c, (2 * n + 3 - k) * d)
    return IdentityCheck(lhs, rhs, lhs, rhs)


def check_identity_big_stirling(n: int, k: int, m: int) -> IdentityCheck:
    """Evaluate the big Stirling/binomial identity exactly as printed.

    On top of the printed sides, the generic recurrence is re-verified
    directly on coefficient values; that comparison is the pass criterion,
    while the printed form's status is recorded for inspection.
    """
    if n < 5 or not (2 <= k <= n - 3) or not (2 <= m <= k):
        raise ValueError(f"identity index out of range: (n,k,m)=({n},{k},{m})")

    row = _stirling_row
    printed_lhs = Fraction(
        ((n - 1) * m - k * (m - 1)) * factorial(n - 2) * row(n - m)[n - k],
        factorial(k) * factorial(n - m),
    )
    terms = []
    for l in range(1, k - m + 2):
        # weight * bracket, with weight |s(n-m-l, n-k-1)|/(n-m-l)!
        w, wd = row(n - m - l)[n - k - 1], factorial(n - m - l)
        terms.append((w * factorial(n - 1 - m), wd * factorial(k - m + 1)))
        terms.append((w * (m - 1) * factorial(n - l - 2), wd * l * factorial(k - l)))
        # outer (m-1)/(l!(k-l)!) times each p-term of inner times its tail's r-terms
        for p in range(l + 1, n - 1 - k + l):
            num = (m - 1) * factorial(p - 1) * factorial(n - 2 - p) * row(n - m - p)[n - k - 1 - p + l]
            den = factorial(l) * factorial(k - l) * factorial(n - m - p)
            terms.extend((num * row(p - r)[p - l], den * factorial(p - r)) for r in range(1, l + 1))
    # ground truth is the recurrence acting on the coefficients themselves
    return IdentityCheck(
        a_closed(n, k, m),
        Fraction(_generic_rhs(n, k, m, _columns(n, _closed_row)), factorial(k)),
        printed_lhs,
        Fraction(*_pair_sum(terms)),
    )

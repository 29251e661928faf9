"""Exact integer and rational combinatorics for the melonic expansion.

Stirling numbers of the first kind, harmonic numbers and the coefficient
family a(n, k, m) that organizes the logarithmic terms of the perturbative
2-point function.  Everything here is exact.  The family is carried as the
integer B(n, k, m) = k! a(n, k, m) = C(n-1, m-1) m! |s(n-m, n-k)|: its
recurrences are integer sums with integer scale factors, and B is divided
by k! only where a public function returns a ``fractions.Fraction``
(``a_closed`` and ``CoeffTable``), which alone import ``fractions``.

Each route to B, the closed form and the recurrences, fills one cached
table of integer columns, ``col[k][m]`` a list over N of B(N, k, m),
bottom-up one order at a time (``_columns``); a table grows to the
largest order asked of it and is never rebuilt.  ``_entries`` lists a
table's (index, B, k!) in index order, for ``CoeffTable`` and for the
CLI, which prints each as "p/q" by ``_ratio_str``, the one formatter.
``_generic_rhs`` is the one body of the generic recurrence: the
recurrence table runs it on its own columns and the big Stirling check
on the closed-form columns.

Each identity has one integer core, ``_*_sides``, that returns its
derived and printed sides as numerators over one denominator known in
closed form: (n-1)! for the Stirling sum identity, (k+1)! (2n+3-k) for
the harmonic one, and for the big Stirling identity k! under B and the
generic recurrence, k! (n-m)! under the printed sides.  Every division
by a term's denominator goes through ``_exact_div``, so a remainder
raises ``ArithmeticError``.  ``verify`` compares the integers and
formats only the one "as printed" pair it reports.

Conventions
-----------
* ``_stirling_row(n)`` holds c(n,k) = |s(n,k)|: c(0,0) = 1, c(n,0) = 0 for
  n > 0, c(n,k) = 0 for k > n, and c(n,k) = c(n-1,k-1) + (n-1) c(n-1,k).
* The signed number s(n,k) = (-1)^(n-k) c(n,k) enters only derivations,
  such as ``series``'s; the code carries c alone.
* Empty summation ranges contribute 0.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import comb, factorial, gcd
from operator import mul
from typing import Callable, Dict, Iterator, Mapping, Tuple

from .errors import _record

Index = Tuple[int, int, int]


def _ratio_str(num: int, den: int) -> str:
    # the one "p/q" formatter: num/den (den > 0) in lowest terms, by one gcd
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _exact_div(num: int, d: int) -> int:
    # num / d where d must divide num: a remainder is a defect, never floored
    q, r = divmod(num, d)
    if r:
        raise ArithmeticError(f"{num} is not a multiple of {d}")
    return q


@cache
def _stirling_row(n: int) -> Tuple[int, ...]:
    """Row (c(n,0), ..., c(n,n)) of unsigned numbers, built up from row 0 without recursion."""
    if n < 0:
        raise ValueError("Stirling indices must be nonnegative")
    row: Tuple[int, ...] = (1,)
    for i in range(1, n + 1):
        prev = row + (0,)
        row = (0,) + tuple(prev[k - 1] + (i - 1) * prev[k] for k in range(1, i + 1))
    return row


@cache
def _harmonic_pair(k: int) -> Tuple[int, int]:
    # the harmonic number H_k = sum_{j<=k} 1/j over k!, unreduced
    f = factorial(k)
    return sum(f // j for j in range(1, k + 1)), f


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
    from fractions import Fraction

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
    # l! divides B(n-1,k,l), so each quotient is exact
    m1 = sum(_exact_div(col[k][l][n - 1], l) for l in range(1, k + 1))
    return [m1] + [_generic_rhs(n, k, m, col) for m in range(2, k + 1)]


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


def _entries(max_order: int, row: Callable) -> Iterator[Tuple[Index, int, int]]:
    """((n, k, m), B(n, k, m), k!) for 2 <= n <= max_order, 1 <= m <= k <= n-1, in (n, k, m) order."""
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    col, f = _columns(max_order, row), _factorials(max_order)
    return (
        ((n, k, m), col[k][m][n], f[k]) for n in range(2, max_order + 1) for k in range(1, n) for m in range(1, k + 1)
    )


@_record
class CoeffTable:
    """Exact table of a(n,k,m) for 2 <= n <= max_order, 1 <= m <= k <= n-1."""

    max_order: int
    entries: Mapping[Index, Fraction]

    @classmethod
    def from_recurrences(cls, max_order: int) -> "CoeffTable":
        """The table from the recurrences alone, seeded by a(2,1,1) = 1: it never reads the closed form."""
        from fractions import Fraction

        return cls(max_order, {index: Fraction(b, f) for index, b, f in _entries(max_order, _recur_row)})

    def row(self, n: int) -> Dict[Tuple[int, int], Fraction]:
        """All coefficients of one order, keyed by (k, m)."""
        if not (2 <= n <= self.max_order):
            raise ValueError(f"order {n} outside table range")
        return {(k, m): v for (nn, k, m), v in self.entries.items() if nn == n}


Sides = Tuple[int, int, int]  # (lhs, rhs, den): both sides of an identity as numerators over den > 0


def _stirling_621_sides(n: int, k: int) -> Tuple[Sides, Sides]:
    """The Stirling-number sum identity behind the m=1 recurrence.

    Corrected form (both sides normalized by 1/(n-1)!):

        c(n-1, n-k) / (n-1)!  ==  sum_{l=1..k} c(n-1-l, n-1-k) / ((n-1) (n-1-l)!)

    with c the unsigned Stirling numbers of the first kind.  The printed
    variant of this identity carries 1/(n-l)! inside the sum instead; its
    sides are returned as the printed ones, since it disagrees with direct
    evaluation for l >= 2 (first counterexample at (n,k) = (5,2)).
    """
    # all three sides over (n-1)!: the l-th c scales by (n-2)!/(n-1-l)! in rhs, by (n-1)!/(n-l)! in printed_rhs
    if n < 4 or not (1 <= k <= n - 3):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    f, tops = _factorials(n - 1), [(l, _stirling_row(n - 1 - l)[n - 1 - k]) for l in range(1, k + 1)]
    lhs = _stirling_row(n - 1)[n - k]
    rhs = sum(c * _exact_div(f[n - 2], f[n - 1 - l]) for l, c in tops)
    printed_rhs = sum(c * _exact_div(f[n - 1], f[n - l]) for l, c in tops)
    return (lhs, rhs, f[n - 1]), (lhs, printed_rhs, f[n - 1])


def _harmonic_sides(n: int, k: int) -> Tuple[Sides, Sides]:
    """H_k == (k+1)/(2n+3-k) * sum_{l=1..k} (n+1-k+l)/(l(k+1-l)).

    Checked as printed, so the printed sides are the derived ones.
    """
    # both sides over (k+1)! (2n+3-k), the right one term by term: l (k+1-l) divides (k+1)!
    if n < 1 or not (1 <= k <= n):
        raise ValueError(f"identity index out of range: (n,k)=({n},{k})")
    f, (h, hd) = _factorials(k + 1), _harmonic_pair(k)
    den = f[k + 1] * (2 * n + 3 - k)
    rhs = (k + 1) * sum((n + 1 - k + l) * _exact_div(f[k + 1], l * (k + 1 - l)) for l in range(1, k + 1))
    sides = h * _exact_div(den, hd), rhs, den
    return sides, sides


def _big_stirling_sides(n: int, k: int, m: int) -> Tuple[Sides, Sides]:
    """The big Stirling/binomial identity, evaluated exactly as printed.

    Its derived sides re-verify the generic recurrence directly on
    coefficient values, and their comparison is the pass criterion; the
    printed sides are recorded for inspection.
    """
    # derived: B(n,k,m) = k! a(n,k,m) against the generic recurrence on the
    # closed-form columns, over k!; printed: every term over k! (n-m)!
    if n < 5 or not (2 <= k <= n - 3) or not (2 <= m <= k):
        raise ValueError(f"identity index out of range: (n,k,m)=({n},{k},{m})")
    row, f, col = _stirling_row, _factorials(n), _columns(n, _closed_row)
    den = f[k] * f[n - m]
    printed_lhs = ((n - 1) * m - k * (m - 1)) * f[n - 2] * row(n - m)[n - k]
    printed_rhs = 0
    for l in range(1, k - m + 2):
        # weight * bracket, with weight |s(n-m-l, n-k-1)|/(n-m-l)!
        w, wd = row(n - m - l)[n - k - 1], f[n - m - l]
        printed_rhs += w * f[n - 1 - m] * _exact_div(den, wd * f[k - m + 1])
        printed_rhs += w * (m - 1) * f[n - l - 2] * _exact_div(den, wd * l * f[k - l])
        # outer (m-1)/(l!(k-l)!) times each p-term of inner times its tail's r-terms
        for p in range(l + 1, n - 1 - k + l):
            num = (m - 1) * f[p - 1] * f[n - 2 - p] * row(n - m - p)[n - k - 1 - p + l]
            pd = f[l] * f[k - l] * f[n - m - p]
            printed_rhs += num * sum(row(p - r)[p - l] * _exact_div(den, pd * f[p - r]) for r in range(1, l + 1))
    return (col[k][m][n], _generic_rhs(n, k, m, col), f[k]), (printed_lhs, printed_rhs, den)

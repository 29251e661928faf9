"""Exact symbolic perturbative orders of the 2-point function.

Every order n is a finite combination of terms

    coeff * log(1+x1^2)^logpow * (1+x1^2)^(-x1pow) * (1+|x|^2)^(-fullpow)

with rational coefficients; the prefactor (pi/2)^n is carried by the
order, so pi enters only the numeric evaluation.  ``x1pow`` counts
denominator powers (negative values are numerator factors of (1+x1^2)).

An order's one exact form is a denominator D and integer columns, reduced
by their gcd, whose layout ``_key`` states once: entry i of column m sits
at logpow m + i, x1pow n - m and fullpow m + 1.  ``_ansatz`` fills them
from the closed form, whose slots ``_slots`` states once, also for
``_extract``, the one reader of a coefficient row.  ``_closed_order(n)``,
the closed form with the free propagator at n = 0, is what the CLI prints
and the partial sums evaluate: cold, about 3 ms at order 30, 12 ms at 60
and 35 ms at 90 (Python 3.11, 2-vCPU VM).  ``perturbative_order`` and
``verify``'s checks of the closed form read the cached kernel
``_kernel(n)``, built bottom-up by the renormalized recursion: column m of
order n sums, over k, tadpole k (order k integrated over the transverse
momenta, one row over logpow) times column m - 1 of order n - 1 - k, each
product a plain integer convolution.  ``_terms`` lists an order's
nonzero (key, numerator) pairs in key order; ``_series`` alone turns them
into a ``LogSeries`` of ``Fraction`` coefficients, and no code turns one
back.  The CLI prints the same pairs over D as "p/q", and ``verify``
compares columns and rows as integers, so neither makes a ``Fraction``.

The closed form is a theorem, the Lagrange-Buermann coefficient.  With
a = 1+x1^2, L = log(a) and B = 1+|x|^2, the shift g = M - a solves
g = z*phi(g) with phi(w) = -log(a + w), so [z^n] g^m = (m/n) [w^(n-m)]
phi(w)^n.  Expanding phi^n = (-1)^n (L + log(1 + w/a))^n binomially, with
log(1+u)^j = j! sum_i s(i,j) u^i/i!, the z^n coefficient of
G2 = sum_m (-g)^m / B^(m+1) at key (k, n-m, m+1) is

    (-1)^(n+m) (m/n) C(n, n-k) (n-k)! s(n-m, n-k) / (n-m)!
        = (-1)^(n+k) C(n-1, m-1) m!/k! |s(n-m, n-k)|,

the sign of ``_slots`` times ``combinatorics._closed_int``, the integer k! a(n,k,m),
over k!; m = n gives the leading coefficient 1 at key (n, 0, n+1).

Float evaluation has one body, ``_eval_columns``: each column
(lo, x1pow, fullpow, coefficients) is Horner's rule in lg = log1p(x1^2)
over logpow lo, lo+1, ..., times lg^lo (1+x1^2)^(-x1pow) (1+|x|^2)^(-fullpow).
``_float_order(n)`` caches the closed form's columns of order n as floats, and
``eval_series`` groups any ``LogSeries``'s terms into the same layout, so
an order evaluates to the same bits by either route, and
``eval_partial_sum`` makes no ``Fraction``.
Evaluators raise ``ValueError`` once 1+x1^2 overflows binary64 (x1 above
about 1.34e154), or a power of lambda, log(1+x1^2) or pi/2 does.  Where
x2^2 + x3^2 overflows, 1+|x|^2 is inf and every term, which carries
(1+|x|^2)^(-fullpow) with fullpow >= 1, is 0.0.  That is the correctly
rounded value only once x2^2 + x3^2 passes about 4e323.  Between the
overflow (about 1.8e308) and there, a fullpow-1 term, such as order 0's,
has a subnormal true value (about 5e-309 at x = (1, 1e154, 1e154)), and
0.0 misses it (ROADMAP.md, "Finite, valid output at the edges of the
float domain").
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Sequence, Tuple

from .combinatorics import _closed_int
from .errors import _HUGE, ShapeMismatchError, _record

if TYPE_CHECKING:
    from .specialfn import Point3

Key = Tuple[int, int, int]
FloatColumn = Tuple[int, int, int, Tuple[float, ...]]  # (lo, x1pow, fullpow, coeffs from the top logpow)
Row = Tuple[int, ...]
Order = Tuple[int, Tuple[Row, ...]]  # (D, columns)


@_record
class LogTerm:
    coeff: Fraction
    logpow: int
    x1pow: int
    fullpow: int

    def key(self) -> Key:
        return (self.logpow, self.x1pow, self.fullpow)


@_record
class LogSeries:
    """Canonical term list at a fixed order (= power of the (pi/2) prefactor)."""

    order: int
    terms: Tuple[LogTerm, ...]


def _key(n: int, m: int, i: int) -> Key:
    # the layout of an order's columns: entry i of column m of order n
    return m + i, n - m, m + 1


def _terms(n: int, cols: Sequence[Row]) -> List[Tuple[Key, int]]:
    # the nonzero (key, numerator) pairs of order n's columns, in key order
    return sorted((_key(n, m, i), c) for m, col in enumerate(cols) for i, c in enumerate(col) if c)


def _series(n: int, den: int, cols: Sequence[Row]) -> LogSeries:
    # the only place a LogSeries is made from exact data: one Fraction per
    # term of reduced columns
    from fractions import Fraction

    return LogSeries(n, tuple(LogTerm(Fraction(c, den), *key) for key, c in _terms(n, cols)))


def _reduced_rows(den: int, rows: Sequence[Row]) -> Tuple[int, Tuple[Row, ...]]:
    g = math.gcd(den, *(c for row in rows for c in row))
    return den // g, tuple(tuple(c // g for c in row) for row in rows)


_FREE: Order = (1, ((1,),))  # order 0, the free propagator 1/(1+|x|^2)


@cache
def _kernel(n: int) -> Tuple[Order, Tuple[int, Row]]:
    # Order n and its tadpole, each reduced.  cols[m][i] is the numerator at
    # _key(n, m, i): every key has x1pow + fullpow = n + 1, and logpow >= m
    # since each tadpole has logpow >= 1.  Column m < n holds n - m entries,
    # logpow m..n-1, and column n the leading entry alone: tadpole k reaches
    # logpow max(k, 1), and only tadpole 0 times a leading column reaches
    # logpow n.  tad[i] is the numerator at key (1 + i, n, 0)
    if n == 0:
        # its transverse integral diverges and is taken with its Taylor
        # subtraction at x1 = 0: -(1/2) log(1+x1^2)
        return _FREE, (2, (-1,))
    for k in range(n):  # lower orders bottom-up, so a cold order nests no calls
        _kernel(k)
    parts = [(_kernel(k)[1], _kernel(n - 1 - k)[0]) for k in range(n)]
    den = math.lcm(*(td * od for (td, _), (od, _) in parts))
    # each product is a plain convolution over logpow, scaled by -2 D/(D_t D_o)
    # to the common denominator D
    acc = [[]] + [[0] * (n - m or 1) for m in range(1, n + 1)]
    for (td, tad), (od, cols) in parts:
        s = -2 * (den // (td * od))
        for m, col in enumerate(cols, 1):  # column m - 1 of order n - 1 - k
            row = acc[m]
            for i, t in enumerate(tad):
                st = s * t
                for j, c in enumerate(col, i):
                    row[j] += st * c
    den, cols = _reduced_rows(den, acc)
    # the transverse integral: a term with fullpow q = m + 1 >= 2 gives
    # pi*(1+x1^2)^(1-q)/(4(q-1)), so column m goes over 2m to key (logpow, n, 0)
    # with one pi/2 to the prefactor
    tden = den * 2 * math.lcm(*range(1, n + 1))
    tad = [0] * n
    for m in range(1, n + 1):
        f = tden // (den * 2 * m)
        for i, c in enumerate(cols[m], m - 1):
            tad[i] += f * c
    tden, (tad,) = _reduced_rows(tden, [tad])
    return (den, cols), (tden, tad)


def _order(n: int) -> Order:
    # order n's reduced columns from the recursion
    if n < 0:
        raise ValueError("order must be >= 0")
    return _kernel(n)[0]


def _closed_order(n: int) -> Order:
    # order n's reduced columns from the closed form, the free propagator at
    # n = 0: what the CLI prints and the partial sums evaluate
    if n < 0:
        raise ValueError("order must be >= 0")
    return _ansatz(n) if n else _FREE


def perturbative_order(n: int) -> LogSeries:
    """Order-n series from the recursion (one interaction, colour 1)."""
    return _series(n, *_order(n))


def _slots(n: int) -> Iterator[Tuple[int, int, int]]:
    # the closed form at order n, as (m, k, sign): column m holds sign * a(n,k,m)
    # at logpow k, entry k - m, with sign (-1)^(n+k), for 1 <= m <= k < n;
    # column n holds the leading 1 at logpow n
    return ((m, k, (-1) ** (n + k)) for m in range(1, n) for k in range(m, n))


def _ansatz(n: int) -> Order:
    # order n from the closed form in the kernel's form: D and reduced
    # columns, column 0 empty, so equal tuples are equal orders
    if n < 1:
        raise ValueError("ansatz starts at order 1")
    den = math.factorial(n - 1)  # every column over (n-1)!, which each k! with k < n divides
    cols = [[]] + [[0] * (n - m) for m in range(1, n)] + [[den]]
    for m, k, sign in _slots(n):
        cols[m][k - m] = sign * _closed_int(n, k, m) * (den // math.factorial(k))
    return _reduced_rows(den, cols)


def _extract(
    n: int, pairs: Iterable[Tuple[Key, int | Fraction]], unit: int
) -> Dict[Tuple[int, int], int | Fraction]:
    # the signed a(n,k,m) row of order n's (key, value) pairs, each value in
    # units of ``unit``, which the leading coefficient must equal
    if n < 1:
        raise ValueError("coefficient extraction needs order >= 1")
    slots = {_key(n, m, k - m): (k, m, sign) for m, k, sign in _slots(n)}
    slots[_key(n, n, 0)] = (n, n, 1)  # the leading 1, read as a(n, n, n) and popped below
    row: Dict[Tuple[int, int], int | Fraction] = {}
    for key, value in pairs:
        if key not in slots:
            raise ShapeMismatchError(f"term {value} at key {key} fits no slot at order {n}")
        k, m, sign = slots[key]
        if (k, m) in row:
            raise ShapeMismatchError(f"key {key} repeats in the order-{n} series")
        row[(k, m)] = sign * value
    lead = row.pop((n, n), 0)
    if lead != unit:  # 0 when the leading term is missing
        raise ShapeMismatchError(f"order-{n} leading log^n term has coefficient {lead}, not {unit}")
    return row


def extract_coefficients(s: LogSeries) -> Dict[Tuple[int, int], Fraction]:
    """Read the a(n,k,m) row back off an order-n series.

    Inverts the sign and power conventions of the closed form and checks
    the leading term log^n/(1+|x|^2)^(n+1) has coefficient exactly 1.  A
    term that fits no slot, or a key that repeats, raises ShapeMismatchError:
    the closed form is a theorem, so that would be a defect in the series,
    and nothing is coerced.
    """
    return _extract(s.order, ((t.key(), t.coeff) for t in s.terms), 1)


def eval_series(s: LogSeries, x: Point3) -> float:
    """Numeric value at x, (pi/2)^order prefactor included."""
    a, lg = _x1_factors(x.x1)
    rows: Dict[Tuple[int, int], Dict[int, float]] = {}
    for t in s.terms:  # keyed (fullpow, x1pow), so sorted in column order
        row = rows.setdefault((t.fullpow, t.x1pow), {})
        row[t.logpow] = row.get(t.logpow, 0.0) + float(t.coeff)
    cols = ((min(row), p, q, [row.get(i, 0.0) for i in range(min(row), max(row) + 1)])
            for (q, p), row in sorted(rows.items()))
    return _eval_columns(s.order, _columns(cols), a, lg, a + (x.x2 * x.x2 + x.x3 * x.x3))


def eval_partial_sum(n_max: int, x: Point3, lam: float) -> float:
    """Partial sum of the coupling expansion through order n_max.

    Reads the cached float columns of each order; no ``Fraction`` is made.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not -_HUGE <= lam <= _HUGE:
        raise ValueError(f"lambda must be finite, got {lam!r}")
    a, lg = _x1_factors(x.x1)
    b = a + (x.x2 * x.x2 + x.x3 * x.x3)
    return sum(_eval_columns(n, _float_order(n), a, lg, b, lam) for n in range(n_max + 1))


def _columns(cols: Iterable[Tuple[int, int, int, Sequence[float]]]) -> Tuple[FloatColumn, ...]:
    # (lo, x1pow, fullpow, coefficients at logpow lo, lo + 1, ...) in the body's
    # layout: zeros trimmed from both ends, empty columns dropped, and the
    # coefficients reversed, highest logpow first, for Horner's rule
    out = []
    for lo, p, q, cs in cols:
        nz = [i for i, c in enumerate(cs) if c]
        if nz:
            out.append((lo + nz[0], p, q, tuple(reversed(cs[nz[0]:nz[-1] + 1]))))
    return tuple(out)


@cache
def _float_order(n: int) -> Tuple[FloatColumn, ...]:
    # the closed form's columns m = 0..n, each from its first key; int/int
    # division is correctly rounded, so num/D == float(Fraction(num, D))
    den, cols = _closed_order(n)
    return _columns((*_key(n, m, 0), [c / den for c in col]) for m, col in enumerate(cols))


def _x1_factors(x1: float) -> Tuple[float, float]:
    sq = x1 * x1
    a = 1.0 + sq
    if not math.isfinite(a):
        raise ValueError(f"1+x1^2 must be finite (x1 up to about 1.34e154), got x1={x1!r}")
    return a, math.log1p(sq)


def _eval_columns(order: int, columns: Iterable[FloatColumn], a: float, lg: float, b: float, lam: float = 1.0):
    # the one evaluation body: a = 1+x1^2, lg = log1p(x1^2), b = 1+|x|^2; each
    # column is Horner's rule in lg times lg^lo * a^(-x1pow) * b^(-fullpow),
    # and the value is lam^order * (pi/2)^order * their sum (1.0 * y == y,
    # so lam = 1 is exact)
    try:
        total = 0.0
        for lo, x1pow, fullpow, coeffs in columns:
            h = 0.0
            for c in coeffs:
                h = h * lg + c
            total = total + h * lg**lo * a ** (-x1pow) * b ** (-fullpow)
        value = lam**order * ((0.5 * math.pi) ** order * total)
        if not math.isfinite(value):
            raise OverflowError("a product or a Horner step overflowed")
        return value
    except OverflowError as err:
        raise ValueError(f"order {order} overflows binary64: a power of lambda={lam!r}, "
                         f"log(1+x1^2)={lg!r} or pi/2, or a product of them, exceeds about 1.8e308") from err

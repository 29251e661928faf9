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
triples into a pair.  ``_slots`` states the closed form once, for
``ansatz_order`` and ``extract_coefficients``.

``perturbative_order`` runs the renormalized recursion bottom-up in the
cached column kernel ``_kernel(n)``, whose pair views are ``_int_order(n)``
and ``_int_tadpole(k)``.  Order n is held as columns over m = fullpow - 1
(x1pow = n - m), each a row of numerators over logpow, and tadpole k,
order k integrated over the transverse momenta, as one row over logpow.
Column m of order n sums, over k, tadpole k times column m - 1 of order
n - 1 - k: each product is one big-int product by Kronecker substitution
(rows packed as sum c_i 2^(w i)), scaled to the common denominator and
added into the column's integer, which is unpacked once per order into
balanced digits.  The width w = 2 + bitlen(n) + the largest
bitlen(|s_k| sum |T_k|) + bitlen(max |num|) over the k products (s_k the
scale) keeps every slot in (-2^(w-1), 2^(w-1)); a remainder raises.

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

Float evaluation has one body, ``_eval_columns``, over columns
(lo, x1pow, fullpow, coefficients): each is Horner's rule in
lg = log(1+x1^2) over its coefficients at logpow lo, lo+1, ..., times
lg^lo (1+x1^2)^(-x1pow) (1+|x|^2)^(-fullpow).  ``_float_order(n)`` caches
the kernel's columns of order n as floats, trimmed of zeros at both ends;
``eval_series_transverse`` groups any ``LogSeries``'s terms by
(x1pow, fullpow) into the same layout, so an order evaluates to the same
bits by either route, and ``eval_partial_sum`` makes no ``Fraction``.
Evaluators raise ``ValueError`` once 1+x1^2 overflows binary64 (x1 above
about 1.34e154), a power of lambda, log(1+x1^2) or pi/2 does, or, for a
float rho2, the value is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, Sequence, Tuple

from .combinatorics import _closed_pair
from .errors import ShapeMismatchError
from .specialfn import Point3

__all__ = [
    "LogTerm", "LogSeries", "perturbative_order", "ansatz_order",
    "extract_coefficients", "eval_series", "eval_series_transverse", "eval_partial_sum",
]

Key = Tuple[int, int, int]
IntTerm = Tuple[Key, int, int]  # (key, num, den > 0)
FloatColumn = Tuple[int, int, int, Tuple[float, ...]]  # (lo, x1pow, fullpow, coeffs from the top logpow)
IntPair = Tuple[int, Dict[Key, int]]
Row = Tuple[int, ...]
KernelOrder = Tuple[int, Tuple[Row, ...], int]  # (D, columns, max |num|)
KernelTadpole = Tuple[int, Row, int]  # (D, tadpole, sum |num|)


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


def _pair(terms: Iterable[IntTerm]) -> IntPair:
    # the one keyed exact sum (the recursion sums packed columns in _kernel):
    # at the LCM of the denominators, reduced by the gcd of all its integers
    terms = list(terms)
    den = math.lcm(*(d for _, _, d in terms))
    nums: Dict[Key, int] = {}
    for key, c, d in terms:
        nums[key] = nums.get(key, 0) + c * (den // d)
    g = math.gcd(den, *nums.values())
    return den // g, {key: c // g for key, c in nums.items() if c}


def _series(order: int, pair: IntPair) -> LogSeries:
    # the only place a LogSeries is made: one Fraction per key of a reduced pair
    den, nums = pair
    return LogSeries(order, tuple(LogTerm(Fraction(c, den), *key) for key, c in sorted(nums.items())))


def _pack(coeffs: Row, w: int) -> int:
    # Kronecker substitution: the polynomial sum c_i y^i at y = 2^w, by Horner
    x = 0
    for c in reversed(coeffs):
        x = (x << w) + c
    return x


def _unpack(x: int, w: int, size: int) -> Row:
    # the balanced base-2^w digits of x, each in [-2^(w-1), 2^(w-1)); a
    # remainder means a slot overflowed its width, a defect of the bound
    half, full, mask = 1 << (w - 1), 1 << w, (1 << w) - 1
    digits = []
    for _ in range(size):
        d = x & mask
        if d >= half:
            d -= full
        digits.append(d)
        x = (x - d) >> w
    if x:
        raise ArithmeticError(f"a Kronecker slot of width {w} overflowed")
    return tuple(digits)


def _reduced_rows(den: int, rows: Sequence[Row]) -> Tuple[int, Tuple[Row, ...]]:
    g = math.gcd(den, *(c for row in rows for c in row))
    return den // g, tuple(tuple(c // g for c in row) for row in rows)


@cache
def _kernel(n: int) -> Tuple[KernelOrder, KernelTadpole]:
    # Order n and its tadpole, each reduced.  cols[m][i] is the numerator at
    # key (m + i, n - m, m + 1): every key has x1pow + fullpow = n + 1, and
    # logpow >= m since each tadpole has logpow >= 1.  tad[i] is the
    # numerator at key (1 + i, n, 0).  Column m of order n sums, over k,
    # tadpole k times column m - 1 of order n - 1 - k, each product one int
    # product of both rows packed at a width w that holds every slot of the sum
    if n == 0:
        # the free propagator; its transverse integral diverges and is taken
        # with its Taylor subtraction at x1 = 0: -(1/2) log(1+x1^2)
        return (1, ((1,),), 1), (2, (-1,), 1)
    for k in range(n):  # lower orders bottom-up, so a cold order nests no calls
        _kernel(k)
    parts = [(_kernel(k)[1], _kernel(n - 1 - k)[0]) for k in range(n)]
    den = math.lcm(*(td * od for (td, _, _), (od, _, _) in parts))
    scaled = [(-2 * (den // (td * od)), tad, tsum, cols, big) for (td, tad, tsum), (od, cols, big) in parts]
    # every slot is a sum over n values of k, each at most |s_k| sum|T_k| max|num|
    w = 2 + n.bit_length() + max((abs(s) * ts).bit_length() + big.bit_length() for s, _, ts, _, big in scaled)
    acc = [0] * (n + 1)
    for s, tad, _, cols, _ in scaled:
        packed = s * _pack(tad, w)
        for m, col in enumerate(cols, 1):  # column m - 1 of order n - 1 - k
            if col:
                acc[m] += packed * _pack(col, w)
    den, cols = _reduced_rows(den, [(), *(_unpack(acc[m], w, n + 1 - m) for m in range(1, n + 1))])
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
    big = max(abs(c) for col in cols for c in col)
    return (den, cols, big), (tden, tad, sum(map(abs, tad)))


def _int_order(n: int) -> IntPair:
    # order n as a reduced pair, a view of the kernel's columns
    den, cols, _ = _kernel(n)[0]
    return den, {(m + i, n - m, m + 1): c for m, col in enumerate(cols) for i, c in enumerate(col) if c}


def _int_tadpole(k: int) -> IntPair:
    # order k integrated over the two transverse momenta, as a reduced pair
    den, tad, _ = _kernel(k)[1]
    return den, {(1 + i, k, 0): c for i, c in enumerate(tad) if c}


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

    ``rho2`` may be a float or an array, the natural shape for transverse
    integrands: the body applies only ``+``, ``*`` and ``b ** (-fullpow)``
    to b = 1 + x1^2 + rho2.  An array's values agree with scalar calls to
    within a few ulps of the sum of the terms' magnitudes, not bit for bit,
    because numpy's power on b and the C library's pow differ by about an
    ulp.  A float ``rho2`` must be finite and >= 0, and a non-finite value
    raises ``ValueError``; an array goes unchecked, both in and out.
    """
    if isinstance(rho2, float) and not 0.0 <= rho2 < math.inf:
        raise ValueError(f"rho2 must be finite and >= 0, got {rho2!r}")
    a, lg = _x1_factors(x1)
    rows: Dict[Tuple[int, int], Dict[int, float]] = {}
    for t in s.terms:  # keyed (fullpow, x1pow), so sorted in the kernel's column order
        row = rows.setdefault((t.fullpow, t.x1pow), {})
        row[t.logpow] = row.get(t.logpow, 0.0) + float(t.coeff)
    cols = ((min(row), p, q, [row.get(i, 0.0) for i in range(min(row), max(row) + 1)])
            for (q, p), row in sorted(rows.items()))
    return _eval_columns(s.order, _columns(cols), a, lg, a + rho2)


def eval_series(s: LogSeries, x: Point3) -> float:
    """Numeric value at x, (pi/2)^order prefactor included."""
    return eval_series_transverse(s, x.x1, x.x2 * x.x2 + x.x3 * x.x3)


def eval_partial_sum(n_max: int, x: Point3, lam: float) -> float:
    """Partial sum of the coupling expansion through order n_max.

    Reads the cached float columns of each order; no ``Fraction`` is made.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not math.isfinite(lam):
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
    # the kernel's columns m = 0..n, at logpow m, x1pow n - m, fullpow m + 1;
    # int/int division is correctly rounded, so num/D == float(Fraction(num, D))
    den, cols, _ = _kernel(n)[0]
    return _columns((m, n - m, m + 1, [c / den for c in col]) for m, col in enumerate(cols))


def _x1_factors(x1: float) -> Tuple[float, float]:
    a = 1.0 + x1 * x1
    if not math.isfinite(a):
        raise ValueError(f"1+x1^2 must be finite (x1 up to about 1.34e154), got x1={x1!r}")
    return a, math.log(a)


def _eval_columns(order: int, columns: Iterable[FloatColumn], a: float, lg: float, b, lam: float = 1.0):
    # the one evaluation body: a = 1+x1^2, lg = log(a), b = a + rho2; each
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
        if isinstance(value, float) and not math.isfinite(value):
            raise OverflowError("a product or a Horner step overflowed")
        return value
    except OverflowError as err:
        raise ValueError(f"order {order} overflows binary64: a power of lambda={lam!r}, "
                         f"log(1+x1^2)={lg!r} or pi/2, or a product of them, exceeds about 1.8e308") from err

import functools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

from melontft import combinatorics, series
from melontft.errors import ShapeMismatchError
from melontft.series import (
    LogSeries,
    LogTerm,
    ansatz_order,
    eval_partial_sum,
    eval_series,
    extract_coefficients,
    perturbative_order,
)
from melontft.specialfn import Coupling, Point3, g2_exact


def term_set(s):
    return {(t.coeff, t.logpow, t.x1pow, t.fullpow) for t in s.terms}


# Reference: the Fraction recursion and integration rule that the integer
# kernel replaced, kept to check the kernel term for term.
def ref_series(order, items):
    # (coeff, logpow, x1pow, fullpow) items merged by key, zeros dropped, keys sorted
    acc = {}
    for c, *key in items:
        acc[tuple(key)] = acc.get(tuple(key), 0) + c
    return LogSeries(order, tuple(LogTerm(c, *key) for key, c in sorted(acc.items()) if c))


REF_FREE = ref_series(0, [(Fraction(1), 0, 0, 1)])


def ref_integrate_transverse(s):
    if s == REF_FREE:
        return ref_series(1, [(Fraction(-1, 2), 1, 0, 0)])
    assert all(t.fullpow >= 2 for t in s.terms), s
    items = ((t.coeff / (2 * (q - 1)), t.logpow, t.x1pow + q - 1, 0) for t in s.terms for q in [t.fullpow])
    return ref_series(s.order + 1, items)


@functools.cache
def ref_order(n):
    if n == 0:
        return REF_FREE
    acc = {}
    for k in range(n):
        rest = ref_order(n - 1 - k).terms
        for t in ref_tadpole(k).terms:
            c = -2 * t.coeff
            for u in rest:
                key = (t.logpow + u.logpow, t.x1pow + u.x1pow, t.fullpow + u.fullpow + 1)
                acc[key] = acc.get(key, 0) + c * u.coeff
    return ref_series(n, ((c, *key) for key, c in acc.items()))


@functools.cache
def ref_tadpole(k):
    return ref_integrate_transverse(ref_order(k))


def recording_series(orders):
    # series._series, the one constructor of a LogSeries, noting each order it makes
    make = series._series

    def recording(n, den, cols):
        orders.append(n)
        return make(n, den, cols)

    return recording


# Reference: the partial sum as one eval_series call per order, the form
# the cached float columns replaced, kept to check them bit for bit.
def ref_partial_sum(n_max, x, lam):
    return sum(lam**n * eval_series(perturbative_order(n), x) for n in range(n_max + 1))


# Reference: 80-digit sums of the same integer columns the evaluators read.
@functools.cache
def kernel_columns(n):
    # order n's kernel columns as (D, [(m, nums, |nums|) ...]): column m =
    # fullpow - 1 = n - x1pow holds the numerators at logpow m, m + 1, ...
    den, cols, _ = series._kernel(n)[0]
    return den, [(m, col, [abs(c) for c in col]) for m, col in enumerate(cols)]


def oracle_orders(x, n_max, mpmath):
    # (sum of the terms, sum of their magnitudes) of orders 0..n_max, (pi/2)^n
    # included, at the rounded a = 1+x1^2, L = log(a), b = a + rho2 and pi/2 the
    # evaluators use, so input rounding is excluded.  Order n is
    # (pi/2)^n / (D a^n b) * sum_m (a/b)^m sum_l num L^l; with each double
    # v = vn / 2^ev, the double sum times 2^((el + ea) n) bn^n is an exact
    # integer, rounded once to 80 digits
    a = 1.0 + x.x1 * x.x1
    lg, b = math.log(a), a + (x.x2 * x.x2 + x.x3 * x.x3)
    (an, ea), (ln, el), (bn, eb) = ((vn, vd.bit_length() - 1) for vn, vd in (v.as_integer_ratio() for v in (a, lg, b)))
    out = []
    with mpmath.workdps(80):
        big_a, big_b, half_pi = (mpmath.mpf(v) for v in (a, b, 0.5 * math.pi))
        for n in range(n_max + 1):
            den, cols = kernel_columns(n)
            logs = [ln**i << el * (n - i) for i in range(n + 1)]
            total = magnitude = 0
            for m, nums, mags in cols:
                f = an**m * bn ** (n - m) << eb * m + ea * (n - m)
                total += f * sum(map(operator.mul, nums, logs[m:]))
                magnitude += f * sum(map(operator.mul, mags, logs[m:]))
            scale = mpmath.ldexp(half_pi**n / (big_a**n * big_b * (bn**n * den)), -(el + ea) * n)
            out.append((scale * total, scale * magnitude))
    return out


class TestAlgebra:
    def test_free_propagator(self):
        s = perturbative_order(0)
        assert s.order == 0
        assert term_set(s) == {(Fraction(1), 0, 0, 1)}
        assert eval_series(s, Point3(0, 0, 0)) == 1.0
        assert eval_series(s, Point3(1, 1, 1)) == 0.25


def tadpole(k):
    # order k integrated over the transverse momenta, as the kernel holds it:
    # entry i of its row at key (1 + i, k, 0), one pi/2 to the prefactor
    den, row, _ = series._kernel(k)[1]
    return LogSeries(k + 1, tuple(LogTerm(Fraction(c, den), 1 + i, k, 0) for i, c in enumerate(row) if c))


class TestTransverseIntegral:
    def test_free_propagator_subtraction(self):
        assert series._kernel(0)[1][:2] == (2, (-1,))
        assert term_set(tadpole(0)) == {(Fraction(-1, 2), 1, 0, 0)}

    def test_g1_tadpole(self):
        # (pi/2)^2 * log(1+x1^2) / (2 (1+x1^2))
        assert term_set(tadpole(1)) == {(Fraction(1, 2), 1, 1, 0)}

    def test_matches_fraction_rule(self):
        for n in range(13):
            assert tadpole(n) == ref_tadpole(n), n

    def test_every_integrated_term_decays(self):
        # order n >= 1 keeps x1pow + fullpow = n + 1 with fullpow >= 2, so
        # only the free propagator needs the subtraction, and tadpole k is
        # a function of x1 alone, one row over logpow 1..max(k, 1) whose
        # top entry, from the leading log^k term, is nonzero
        for n in range(1, 31):
            assert all(t.fullpow >= 2 and t.x1pow + t.fullpow == n + 1 for t in perturbative_order(n).terms), n
        for k in range(30):
            row = series._kernel(k)[1][1]
            assert len(row) == max(k, 1) and row[-1], k


class TestOrders:
    def test_ansatz_low_orders(self):
        assert term_set(ansatz_order(1)) == {(Fraction(1), 1, 0, 2)}
        assert term_set(ansatz_order(2)) == {(Fraction(1), 2, 0, 3), (Fraction(-1), 1, 1, 2)}
        assert term_set(ansatz_order(3)) == {
            (Fraction(1), 3, 0, 4),
            (Fraction(-1, 2), 2, 2, 2),
            (Fraction(-2), 2, 1, 3),
            (Fraction(1), 1, 2, 2),
        }

    def test_kernel_matches_fraction_recursion(self):
        for n in range(25):
            assert perturbative_order(n) == ref_order(n), n

    def test_kernel_columns_hold_only_live_slots(self):
        # column m < n of order n stops at logpow n - 1, and column n holds
        # the leading 1 alone
        for n in range(1, 41):
            den, cols, _ = series._kernel(n)[0]
            assert len(cols) == n + 1 and cols[0] == () and cols[n] == (den,), n
            assert [len(cols[m]) for m in range(1, n)] == list(range(n - 1, 0, -1)), n

    def test_only_the_asked_order_is_built(self, monkeypatch):
        # the recursion runs on integer columns; a cold order makes one
        # LogSeries, its own, and no lower order is turned into Fractions
        orders = []
        monkeypatch.setattr(series, "_series", recording_series(orders))
        series._kernel.cache_clear()
        perturbative_order(12)
        assert orders == [12]

    def test_cold_order_nests_no_calls(self):
        # the lower orders are built bottom-up, so a cold order needs a few
        # frames, not one per order
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        series._kernel.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            got = perturbative_order(30)
        finally:
            sys.setrecursionlimit(limit)
        assert got == ref_order(30)

    def test_ansatz_makes_one_fraction_per_term(self, monkeypatch):
        # the closed form is summed on int columns; only _series makes Fractions
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(series, "Fraction", counting)
        s = ansatz_order(12)
        assert len(s.terms) == len(made) == 67

    @pytest.mark.parametrize("w", [2, 3, 17, 64, 200])
    def test_pack_round_trip_at_slot_extremes(self, w):
        lo, hi = -(1 << (w - 1)), (1 << (w - 1)) - 1
        for size in (1, 2, 5, 31):
            for digits in ((lo,) * size, (hi,) * size, tuple((lo, hi)[i % 2] for i in range(size)),
                           tuple((hi, lo, 0)[i % 3] for i in range(size))):
                assert series._unpack(series._pack(digits, w), w, size) == digits, (size, digits)

    @pytest.mark.parametrize("w", [2, 17, 64])
    def test_unpack_raises_on_overflowed_slot(self, w):
        # an integer that no `size` balanced digits hold: a top slot at 2^(w-1)
        # or below -2^(w-1), or a nonzero slot above the top
        half = 1 << (w - 1)
        for digits, size in (([half], 1), ([0, -half - 1], 2), ([1, 1, 1], 2)):
            with pytest.raises(ArithmeticError, match=f"width {w} overflowed"):
                series._unpack(series._pack(digits, w), w, size)

    def test_order_domain(self):
        with pytest.raises(ValueError):
            perturbative_order(-1)
        with pytest.raises(ValueError):
            ansatz_order(0)


class TestExtraction:
    def test_order2_row(self):
        assert extract_coefficients(perturbative_order(2)) == {(1, 1): Fraction(1)}

    def test_order3_row(self):
        row = extract_coefficients(perturbative_order(3))
        assert row == {(2, 1): Fraction(1, 2), (2, 2): Fraction(2), (1, 1): Fraction(1)}

    def test_round_trip(self):
        from melontft.combinatorics import a_closed

        for n in (1, 4, 5, 7):
            row = extract_coefficients(ansatz_order(n))
            expected = {
                (k, m): a_closed(n, k, m) for k in range(1, n) for m in range(1, k + 1)
            }
            assert row == expected

    def test_shape_mismatch(self):
        terms = ansatz_order(3).terms
        assert terms[-1].key() == (3, 0, 4)
        bogus = LogSeries(3, (*terms, LogTerm(Fraction(1), 0, 0, 1)))
        with pytest.raises(ShapeMismatchError):
            extract_coefficients(bogus)
        # corrupted leading coefficient
        with pytest.raises(ShapeMismatchError):
            extract_coefficients(LogSeries(3, (LogTerm(Fraction(2), 3, 0, 4), *terms[:-1])))
        # one misfit key of each kind: x1pow off, m = 0, m > k and k >= n
        for key in ((2, 1, 2), (1, 3, 1), (1, 1, 3), (3, 2, 2)):
            with pytest.raises(ShapeMismatchError, match="fits no slot"):
                extract_coefficients(LogSeries(3, (*terms, LogTerm(Fraction(1), *key))))
        # free propagator has no coefficient row
        with pytest.raises(ValueError):
            extract_coefficients(perturbative_order(0))

    def test_repeated_key(self):
        # two terms at one key are not summed: eval_series would add them,
        # so keeping either coefficient would misreport the series
        lead = LogTerm(Fraction(1), 2, 0, 3)
        twice = LogSeries(2, (LogTerm(Fraction(1), 1, 1, 2), LogTerm(Fraction(5), 1, 1, 2), lead))
        with pytest.raises(ShapeMismatchError, match=r"key \(1, 1, 2\) repeats"):
            extract_coefficients(twice)

    def test_missing_leading_term(self):
        # every other term of order 3 fits its slot; the log^3 term is gone
        rest = tuple(t for t in ansatz_order(3).terms if t.key() != (3, 0, 4))
        assert len(rest) == 3
        with pytest.raises(ShapeMismatchError, match="leading log\\^n term has coefficient 0"):
            extract_coefficients(LogSeries(3, rest))


class TestEvaluation:
    def test_g1_value(self):
        got = eval_series(perturbative_order(1), Point3(1, 0, 0))
        assert got == pytest.approx(0.27219826128795026631, rel=1e-15)
        assert got == pytest.approx(math.pi / 2 * math.log(2) / 4, rel=1e-15)

    def test_vanishes_at_subtraction_point(self):
        for n in range(1, 9):
            assert eval_series(perturbative_order(n), Point3(0, 0.7, 2.3)) == 0.0

    def test_partial_sum_order_zero(self):
        x = Point3(1, 2, 0.5)
        assert eval_partial_sum(0, x, 0.37) == 1.0 / (1.0 + x.norm2)
        with pytest.raises(ValueError):
            eval_partial_sum(-1, x, 0.1)

    def test_partial_sum_matches_per_order_sum(self):
        # the float tables give the old per-order evaluation bit for bit
        rng = random.Random(2024)
        points = [Point3(0.0, 0.4, 1.3), Point3(1e8, 1.1, 0.2)]
        points += [Point3(10 ** rng.uniform(-3, 8), rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(6)]
        for x in points:
            for lam in (1e-4, 1e4, 10 ** rng.uniform(-4, 4)):
                for n in range(21):
                    got, want = eval_partial_sum(n, x, lam), ref_partial_sum(n, x, lam)
                    assert got.hex() == want.hex(), (n, x, lam)

    def test_cold_partial_sum_builds_no_series(self, monkeypatch):
        # the partial sum reads float columns made from the integer kernel;
        # a cold order is never turned into a LogSeries of Fractions
        orders = []
        monkeypatch.setattr(series, "_series", recording_series(orders))
        for cached in (series._float_order, series._kernel):
            cached.cache_clear()
        eval_partial_sum(20, Point3(0.7, 1.2, 0.3), 0.25)
        assert orders == []
        perturbative_order(3)  # the recorder sees the series that are made
        assert orders == [3]

    @pytest.mark.parametrize(
        "x1",
        [
            pytest.param(x1, marks=pytest.mark.xfail(reason=(
                "series._x1_factors takes log(1 + x1^2), not log1p(x1^2): "
                "a relative error of about eps/x1^2 (ROADMAP item 2)"
            )))
            for x1 in (1e-8, 1e-5, 1e-3)
        ] + [1.0],
    )
    def test_order1_at_small_x1(self, x1):
        # order 1 is (pi/2)*log1p(x1^2)/(1 + |x|^2)^2; from x1 = 1e-8 on
        # log(1 + x1^2) is 0 and the order evaluates to 0.0
        x = Point3(x1, 0.5, 0.5)
        want = math.pi / 2 * math.log1p(x1 * x1) / (1.0 + x.norm2) ** 2
        got = eval_series(perturbative_order(1), x)
        assert abs(got / want - 1.0) <= 1e-14, got

    def test_within_16_eps_of_80_digit_sum(self):
        # the body against an 80-digit sum of the same columns: orders n <= 12
        # and partial sums through 20 and 30 stay within 16 eps of the sum of
        # their terms' magnitudes (Horner's bound is gamma_2n of it)
        mpmath = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        rng = random.Random(21)
        for i in range(100):
            x1 = 0.0 if i % 25 == 0 else 10 ** rng.uniform(-3, 6)
            x, lam = Point3(x1, rng.uniform(0, 2), rng.uniform(0, 2)), 10 ** rng.uniform(-4, 2)
            orders = oracle_orders(x, 30, mpmath)
            for n in range(13):
                want, magnitude = orders[n]
                assert abs(eval_series(perturbative_order(n), x) - want) <= 16 * eps * magnitude, (n, x)
            with mpmath.workdps(80):
                for n_max in (20, 30):
                    want, magnitude = (sum(mpmath.mpf(lam) ** n * orders[n][j] for n in range(n_max + 1)) for j in (0, 1))
                    assert abs(eval_partial_sum(n_max, x, lam) - want) <= 16 * eps * magnitude, (n_max, x, lam)

    @pytest.mark.parametrize("x1", [1.35e154, 1e160])
    def test_x1_overflow_names_its_limit(self, x1):
        # 1 + x1^2 overflows binary64: every evaluator raises, none returns nan
        s, x = perturbative_order(3), Point3(x1, 1.0, 1.0)
        for call in (
            lambda: eval_series(s, x),
            lambda: eval_partial_sum(4, x, 0.5),
        ):
            with pytest.raises(ValueError, match="1.34e154") as err:
                call()
            assert f"x1={x1!r}" in str(err.value)

    def test_power_overflow_names_itself(self):
        # lambda^n or log(1+x1^2)^logpow past binary64 raises ValueError, not a bare OverflowError
        with pytest.raises(ValueError, match="order 2 overflows binary64: a power of lambda=1e\\+200"):
            eval_partial_sum(20, Point3(1, 1, 1), 1e200)
        steep = LogSeries(1, (LogTerm(Fraction(1), 120, 0, 0),))
        with pytest.raises(ValueError, match="order 1 overflows binary64"):
            eval_series(steep, Point3(1e150, 0, 0))

    def test_product_overflow_names_itself(self):
        # a product past binary64 that no pow overflows raises, not inf or nan
        big = LogTerm(Fraction(10**300), 3, 0, 0)
        for terms in ((big,), (big, LogTerm(Fraction(-(10**300)), 3, 0, 1))):
            with pytest.raises(ValueError, match="order 1 overflows binary64"):
                eval_series(LogSeries(1, terms), Point3(1e150, 0, 0))

    @pytest.mark.parametrize("n", range(4))
    def test_transverse_overflow_is_zero(self, n):
        # x2^2 + x3^2 overflows to inf: every term carries (1+|x|^2)^(-fullpow)
        # with fullpow >= 1, so the correctly rounded value is 0.0, and order
        # n, the partial sum through n and G2 all give it
        x = Point3(1, 1e200, 0)
        assert eval_series(perturbative_order(n), x) == eval_partial_sum(n, x, 1.0) == g2_exact(x, Coupling(1.0)) == 0.0

    def test_largest_x1_evaluates(self):
        x = Point3(1.34e154, 1.0, 1.0)
        assert math.isfinite(eval_series(perturbative_order(3), x))
        assert math.isfinite(eval_partial_sum(4, x, 0.5))

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400")])
    def test_partial_sum_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            eval_partial_sum(0, Point3(1, 2, 0.5), lam)


def test_closed_form_is_lagrange_buermann():
    # g = M - a solves g = z*phi(g), phi(w) = -log(a + w), so by Lagrange-Buermann
    # [z^n] g^m = (m/n) [w^(n-m)] phi(w)^n; expanding phi^n in log(a) and
    # log(1 + w/a) gives the z^n coefficient of sum_m (-g)^m / B^(m+1) at key
    # (k, n-m, m+1), with signed Stirling numbers and no closed-form code;
    # m = n adds only the leading 1, and zero coefficients have no term;
    # orders 31..40 lie past the pinned order 30, where the packing width is
    # largest; the closed form's own columns, ansatz_order, match throughout
    binom, fact = math.comb, math.factorial

    def s(n, k):  # the signed Stirling number of the first kind
        c = combinatorics._stirling_row(n)[k] if k <= n else 0
        return -c if (n - k) % 2 else c

    for n in range(1, 41):
        want = {(n, 0, n + 1): Fraction(1)}
        for m in range(1, n):
            for k in range(n + 1):
                num = (-1) ** (n + m) * m * binom(n, n - k) * fact(n - k) * s(n - m, n - k)
                if num:
                    want[(k, n - m, m + 1)] = Fraction(num, n * fact(n - m))
        assert want == {t.key(): t.coeff for t in perturbative_order(n).terms}, n
        assert ansatz_order(n) == perturbative_order(n), n

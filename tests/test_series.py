import functools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melontft import series
from melontft.errors import DivergentIntegralError, ShapeMismatchError
from melontft.series import (
    LogSeries,
    ansatz_order,
    eval_partial_sum,
    eval_series,
    extract_coefficients,
    free_propagator,
    integrate_transverse,
    perturbative_order,
    three_colour_low_order,
)
from melontft.specialfn import Point3


def term_set(s):
    return {(t.coeff, t.logpow, t.x1pow, t.fullpow) for t in s.terms}


# Reference: the Fraction recursion and integration rule that the integer
# kernel replaced, kept to check the kernel term for term.
REF_FREE = LogSeries.build(0, [(Fraction(1), 0, 0, 1)])


def ref_integrate_transverse(s):
    if s == REF_FREE:
        return LogSeries.build(1, [(Fraction(-1, 2), 1, 0, 0)])
    items = []
    for t in s.terms:
        if t.fullpow < 2:
            raise DivergentIntegralError(t)
        q = t.fullpow
        items.append((t.coeff / (2 * (q - 1)), t.logpow, t.x1pow + q - 1, 0))
    return LogSeries.build(s.order + 1, items)


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
    return LogSeries.build(n, ((c, *key) for key, c in acc.items()))


@functools.cache
def ref_tadpole(k):
    return ref_integrate_transverse(ref_order(k))


class TestAlgebra:
    def test_free_propagator(self):
        s = free_propagator()
        assert s.order == 0
        assert term_set(s) == {(Fraction(1), 0, 0, 1)}
        assert eval_series(s, Point3(0, 0, 0)) == 1.0
        assert eval_series(s, Point3(1, 1, 1)) == 0.25

    def test_build_merges_and_drops_zeros(self):
        s = LogSeries.build(
            0,
            [(Fraction(1, 2), 1, 0, 2), (Fraction(1, 2), 1, 0, 2), (Fraction(3), 0, 1, 1), (Fraction(-3), 0, 1, 1)],
        )
        assert term_set(s) == {(Fraction(1), 1, 0, 2)}

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5),
                st.integers(0, 4),
                st.integers(-3, 5),
                st.integers(0, 5),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_build_idempotent(self, items):
        s = LogSeries.build(3, items)
        assert LogSeries.build(s.order, ((t.coeff,) + t.key() for t in s.terms)) == s
        assert all(t.coeff != 0 for t in s.terms)
        keys = [t.key() for t in s.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


class TestTransverseIntegral:
    def test_free_propagator_subtraction(self):
        s = integrate_transverse(free_propagator())
        assert s.order == 1
        assert term_set(s) == {(Fraction(-1, 2), 1, 0, 0)}

    def test_power_two(self):
        s = integrate_transverse(LogSeries.build(0, [(Fraction(1), 0, 0, 2)]))
        assert s.order == 1
        assert term_set(s) == {(Fraction(1, 2), 0, 1, 0)}

    def test_g1_tadpole(self):
        # (pi/2)^2 * log(1+x1^2) / (2 (1+x1^2))
        s = integrate_transverse(perturbative_order(1))
        assert s.order == 2
        assert term_set(s) == {(Fraction(1, 2), 1, 1, 0)}

    def test_matches_fraction_rule(self):
        for n in range(13):
            assert integrate_transverse(perturbative_order(n)) == ref_tadpole(n), n
        # negative x1pow, and two terms that land on one key
        odd = LogSeries.build(
            4, [(Fraction(3, 7), 2, -1, 2), (Fraction(-5, 6), 1, 3, 4), (Fraction(1, 4), 1, 2, 5)]
        )
        assert integrate_transverse(odd) == ref_integrate_transverse(odd)
        assert integrate_transverse(LogSeries.build(2, [])) == LogSeries.build(3, [])

    def test_divergent_rejected(self):
        impostor = LogSeries.build(1, [(Fraction(1), 0, 0, 1)])
        with pytest.raises(DivergentIntegralError):
            integrate_transverse(impostor)
        mixed = LogSeries.build(0, [(Fraction(1), 0, 0, 1), (Fraction(1), 0, 0, 2)])
        with pytest.raises(DivergentIntegralError):
            integrate_transverse(mixed)


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

    def test_only_the_asked_order_is_built(self, monkeypatch):
        # the recursion runs on integer pairs; a cold order makes one
        # LogSeries, its own, and no lower order is turned into Fractions
        build = LogSeries.build
        orders = []

        def recording(cls, order, items):
            orders.append(order)
            return build(order, items)

        monkeypatch.setattr(LogSeries, "build", classmethod(recording))
        for cached in (series._order, series._int_order, series._int_tadpole):
            cached.cache_clear()
        perturbative_order(12)
        assert orders == [12]
        perturbative_order(12)
        assert orders == [12]

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
        base = ansatz_order(3)
        items = [(t.coeff, t.logpow, t.x1pow, t.fullpow) for t in base.terms]
        bogus = LogSeries.build(3, items + [(Fraction(1), 0, 0, 1)])
        with pytest.raises(ShapeMismatchError):
            extract_coefficients(bogus)
        # corrupted leading coefficient
        items = [(Fraction(2), 3, 0, 4)] + items[:-1]
        with pytest.raises(ShapeMismatchError):
            extract_coefficients(LogSeries.build(3, items))
        # free propagator has no coefficient row
        with pytest.raises(ValueError):
            extract_coefficients(free_propagator())


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


class TestThreeColour:
    def test_free(self):
        assert three_colour_low_order(0, Point3(1, 1, 1)) == 0.25

    def test_first_order(self):
        got = three_colour_low_order(1, Point3(1, 1, 1))
        assert got == pytest.approx(math.pi / 2 * 3 * math.log(2) / 16, rel=1e-15)

    def test_second_order_origin_limit(self):
        # frozen from the analytic limit -3*pi^2*(1 - log 2); cross-checked
        # against the printed formula approached from x -> 0 below
        got = three_colour_low_order(2, Point3(0, 0, 0))
        assert got == pytest.approx(-9.085547811696726222, rel=1e-14)

    def test_second_order_limit_is_continuous(self):
        at_zero = three_colour_low_order(2, Point3(0, 0, 0))
        eps = 1e-5
        near = three_colour_low_order(2, Point3(eps, eps, eps))
        assert near == pytest.approx(at_zero, abs=1e-7)

    def test_generic_point_pieces(self):
        # independent re-evaluation of the three printed pieces
        x = Point3(0.7, 1.1, 0.3)
        b = 1 + x.norm2
        logs = [math.log(c * c + 1) for c in (x.x1, x.x2, x.x3)]
        s1 = math.pi**2 * sum(logs) ** 2 / (4 * b)
        s2 = sum(
            math.pi * lg / (2 * (c * c + 1)) for c, lg in zip((x.x1, x.x2, x.x3), logs)
        )
        s3 = math.pi**2 * sum(
            (c * math.log((c * c + 1) / 4) + 2 * math.atan(c)) / (2 * (c**3 + c))
            for c in (x.x1, x.x2, x.x3)
        )
        assert three_colour_low_order(2, x) == pytest.approx((s1 - s2 - s3) / b**2, rel=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            three_colour_low_order(3, Point3(1, 1, 1))

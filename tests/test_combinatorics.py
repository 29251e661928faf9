import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melontft import combinatorics, series
from melontft.combinatorics import (
    CoeffTable,
    a_closed,
    check_identity_big_stirling,
    check_identity_harmonic,
    check_identity_stirling_621,
    harmonic,
    rational_str,
)


def stirling_first_unsigned(n, k):
    """|s(n, k)| read off the library's row, 0 for k > n; a negative n raises."""
    row = combinatorics._stirling_row(n)
    return row[k] if k <= n else 0


def stirling_first_signed(n, k):
    """s(n, k): the library's unsigned number with the sign (-1)^(n-k) applied."""
    c = stirling_first_unsigned(n, k)
    return -c if (n - k) % 2 else c


def recur_a(top):
    """a(n, k, m) for n <= top, read from the recurrence table."""
    entries = CoeffTable.from_recurrences(top).entries
    return lambda n, k, m: entries[(n, k, m)]


def falling_factorial_coeffs(n):
    """Coefficients of x(x-1)...(x-n+1) by direct polynomial expansion."""
    poly = [1]
    for i in range(n):
        new = [0] * (len(poly) + 1)
        for p, c in enumerate(poly):
            new[p + 1] += c
            new[p] -= i * c
        poly = new
    return poly


def paper_generic_rhs(n, k, m, a):
    """The generic recurrence as the paper writes it, with every l-sum unfolded.

    The library's ``_generic_rhs`` reads each sum_l a(N-1, K, l)/l as
    a(N, K, 1); this literal form keeps the printed recurrence checked.
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


class TestStirling:
    def test_base_conventions(self):
        assert stirling_first_signed(0, 0) == 1
        assert stirling_first_signed(5, 0) == 0
        assert stirling_first_signed(3, 5) == 0
        assert stirling_first_unsigned(3, 5) == 0
        assert stirling_first_unsigned(5, 0) == 0
        for n in range(8):
            assert stirling_first_unsigned(n, n) == 1

    def test_known_values(self):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert stirling_first_signed(3, 2) == -3
        # x(x-1)(x-2)(x-3) = x^4 - 6x^3 + 11x^2 - 6x
        assert stirling_first_signed(4, 2) == 11
        assert stirling_first_unsigned(4, 3) == 6

    def test_against_falling_factorial(self):
        for n in range(13):
            coeffs = falling_factorial_coeffs(n)
            for k in range(n + 1):
                assert stirling_first_signed(n, k) == coeffs[k], (n, k)

    def test_row_sums(self):
        for n in range(2, 21):
            signed = sum(stirling_first_signed(n, k) for k in range(n + 1))
            unsigned = sum(stirling_first_unsigned(n, k) for k in range(n + 1))
            assert signed == 0
            assert unsigned == math.factorial(n)

    @given(st.integers(1, 25), st.integers(1, 25))
    def test_recurrence(self, n, k):
        expected = stirling_first_signed(n - 1, k - 1) - (n - 1) * stirling_first_signed(n - 1, k)
        assert stirling_first_signed(n, k) == expected

    def test_signed_recurrence_to_30(self):
        # the signed triangle built here, s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k),
        # against the library's unsigned triangle with its sign applied
        row = [1]
        for n in range(31):
            if n:
                prev = row + [0]
                row = [0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)]
            for k in range(n + 3):
                assert stirling_first_signed(n, k) == (row[k] if k <= n else 0), (n, k)

    def test_row_deeper_than_recursion_limit(self):
        # a cold row is built without one stack frame per row
        n = sys.getrecursionlimit() + 10
        assert stirling_first_signed(n, n - 1) == -math.comb(n, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            stirling_first_signed(-1, 0)


class TestBinomialHarmonic:
    def test_harmonic(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)
        with pytest.raises(ValueError):
            harmonic(0)

    @given(st.integers(2, 60))
    def test_harmonic_step(self, k):
        assert harmonic(k) - harmonic(k - 1) == Fraction(1, k)


class TestCoefficients:
    def test_closed_examples(self):
        assert a_closed(2, 1, 1) == 1
        # cross-checked by a(n,n-1,m) = 1/(n-m) + a(n-1,n-2,m-1)
        assert a_closed(3, 2, 2) == 2
        # C(4,1) * 2!/3! * |s(3,2)| = 4 * (1/3) * 3
        assert a_closed(5, 3, 2) == 4

    def test_recur_examples(self):
        a = recur_a(6)
        assert a(4, 2, 1) == Fraction(3, 2)
        assert a(5, 3, 2) == 4
        assert a(6, 2, 2) == 5

    def test_edge_rows(self):
        for n in range(2, 13):
            assert a_closed(n, 1, 1) == 1
            assert a_closed(n, n - 1, 1) == Fraction(1, n - 1)

    @pytest.mark.parametrize(
        "source, row, top",
        [(lambda top: a_closed, combinatorics._closed_row, 12), (recur_a, combinatorics._recur_row, 20)],
        ids=["closed", "recur"],
    )
    def test_folded_generic_rhs_matches_paper_form(self, source, row, top):
        # every generic index 2 <= m <= k <= n-2; n <= 12 is the big-Stirling range;
        # _generic_rhs is k! times the right-hand side, over the integer columns of k! a
        a, col = source(top), combinatorics._columns(top, row)
        for n in range(4, top + 1):
            for k in range(2, n - 1):
                for m in range(2, k + 1):
                    rhs = Fraction(combinatorics._generic_rhs(n, k, m, col), math.factorial(k))
                    assert rhs == paper_generic_rhs(n, k, m, a) == a(n, k, m), (n, k, m)

    def test_recurrence_route_never_reads_closed_form(self, monkeypatch):
        # the recurrence table lives for the process; a cold rebuild with the
        # closed form unavailable must still reproduce the closed-form table
        closed = CoeffTable.from_closed_form(10)

        def unavailable(*args):
            raise AssertionError("recurrence route reached the closed form")

        combinatorics._table.cache_clear()
        for name in ("a_closed", "_closed_int", "_closed_row"):
            monkeypatch.setattr(combinatorics, name, unavailable)
        assert CoeffTable.from_recurrences(10) == closed

    def test_cold_integer_routes_agree_to_order_30(self):
        # past the digests' order 20: both routes, and the columns ansatz_order
        # puts over (n-1)!, rebuilt from empty caches
        for value in vars(combinatorics).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        series._kernel.cache_clear()
        recur = CoeffTable.from_recurrences(30)
        assert len(recur.entries) == math.comb(31, 3) == 4495
        assert recur == CoeffTable.from_closed_form(30)
        for n in range(1, 31):
            assert series.ansatz_order(n) == series.perturbative_order(n), n

    def test_cold_routes_agree_to_order_40(self):
        # past the CLI's pinned order 30: every entry of both cold tables
        combinatorics._table.cache_clear()
        recur = CoeffTable.from_recurrences(40)
        assert len(recur.entries) == math.comb(41, 3) == 10660
        assert recur == CoeffTable.from_closed_form(40)

    def test_smallest_table(self):
        combinatorics._table.cache_clear()
        for table in (CoeffTable.from_recurrences(2), CoeffTable.from_closed_form(2)):
            assert table.max_order == 2 and table.entries == {(2, 1, 1): 1}
        with pytest.raises(ValueError):
            CoeffTable.from_recurrences(1)

    def test_inexact_m1_quotient_raises(self):
        # B(4,2,1) = B(3,2,1)/1 + B(3,2,2)/2; an odd B(3,2,2) must raise, not floor
        combinatorics._table.cache_clear()
        col = combinatorics._columns(3, combinatorics._recur_row)
        assert col[2][2][3] == 4  # 2! a(3,2,2) = 2 * 2
        col[2][2][3] = 5
        try:
            with pytest.raises(ArithmeticError, match="not a multiple"):
                combinatorics._columns(4, combinatorics._recur_row)
        finally:
            col[2][2][3] = 4
        # the failed order left nothing behind: with the entry restored it is built whole
        assert len(col) == 3 and all(len(c) == 4 for k in (1, 2) for c in col[k][1:])
        assert combinatorics._columns(4, combinatorics._recur_row)[2][1][4] == 3  # 2! a(4,2,1) = 2 * 3/2
        assert CoeffTable.from_recurrences(6) == CoeffTable.from_closed_form(6)

    def test_cold_recurrence_table_makes_one_fraction_per_entry(self, monkeypatch):
        # the recurrences run on the integers k! a; a Fraction is made only per entry
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        for value in vars(combinatorics).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        monkeypatch.setattr(combinatorics, "Fraction", counting)
        table = CoeffTable.from_recurrences(20)
        assert len(made) == len(table.entries) == 1330
        assert table.entries == CoeffTable.from_closed_form(20).entries

    def test_one_generic_body(self, monkeypatch):
        # the recurrence table and the big Stirling check run the same body
        callers = []
        body = combinatorics._generic_rhs

        def counting(n, k, m, col):
            callers.append(col)
            return body(n, k, m, col)

        combinatorics._table.cache_clear()
        monkeypatch.setattr(combinatorics, "_generic_rhs", counting)
        assert check_identity_big_stirling(6, 2, 2).passed
        closed, recur = (combinatorics._table(row) for row in (combinatorics._closed_row, combinatorics._recur_row))
        assert callers and all(col is closed for col in callers)
        seen = len(callers)
        assert CoeffTable.from_recurrences(6).entries[(6, 2, 2)] == 5
        assert len(callers) > seen and all(col is recur for col in callers[seen:])

    def test_index_validation(self):
        recur = CoeffTable.from_recurrences(4).entries
        for bad in [(1, 1, 1), (3, 3, 1), (3, 2, 0), (4, 2, 3), (2, 1, 2)]:
            with pytest.raises(ValueError):
                a_closed(*bad)
            assert bad not in recur

    def test_table(self):
        closed = CoeffTable.from_closed_form(8)
        recur = CoeffTable.from_recurrences(8)
        assert closed.entries == recur.entries
        assert closed.entries[(5, 3, 2)] == 4
        assert set(closed.row(4)) == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}
        assert (9, 1, 1) not in closed.entries and (4, 4, 1) not in closed.entries
        with pytest.raises(ValueError):
            closed.row(9)
        with pytest.raises(ValueError):
            CoeffTable.from_closed_form(1)


def pair_sum(terms):
    """Sum of (num, den) terms at the LCM of their denominators, as a plain Fraction."""
    terms = list(terms)
    den = math.lcm(*(d for _, d in terms))
    return Fraction(sum(c * (den // d) for c, d in terms), den)


def core_sides(core, *index):
    """An identity core's (derived, printed) integer sides, each as a (lhs, rhs) Fraction pair."""
    return tuple((Fraction(lhs, den), Fraction(rhs, den)) for lhs, rhs, den in core(*index))


class TestIdentityCores:
    # each core's integer sides against the printed formula summed term by
    # term, over every index that ``verify identities`` reads
    def test_stirling_621_sides(self):
        c, fact = stirling_first_unsigned, math.factorial
        for n in range(4, 21):
            for k in range(1, n - 2):
                lhs = Fraction(c(n - 1, n - k), fact(n - 1))
                rhs = pair_sum((c(n - 1 - l, n - 1 - k), (n - 1) * fact(n - 1 - l)) for l in range(1, k + 1))
                printed_rhs = pair_sum((c(n - 1 - l, n - 1 - k), fact(n - l)) for l in range(1, k + 1))
                got = core_sides(combinatorics._stirling_621_sides, n, k)
                assert got == ((lhs, rhs), (lhs, printed_rhs)), (n, k)

    def test_harmonic_sides(self):
        for n in range(1, 21):
            for k in range(1, n + 1):
                lhs = pair_sum((1, j) for j in range(1, k + 1))
                terms = ((n + 1 - k + l, l * (k + 1 - l)) for l in range(1, k + 1))
                rhs = Fraction(k + 1, 2 * n + 3 - k) * pair_sum(terms)
                assert core_sides(combinatorics._harmonic_sides, n, k) == ((lhs, rhs), (lhs, rhs)), (n, k)

    def test_big_stirling_sides(self):
        c, fact = stirling_first_unsigned, math.factorial
        for n in range(5, 13):
            for k in range(2, n - 2):
                for m in range(2, k + 1):
                    printed_lhs = Fraction(
                        ((n - 1) * m - k * (m - 1)) * fact(n - 2) * c(n - m, n - k), fact(k) * fact(n - m)
                    )
                    terms = []
                    for l in range(1, k - m + 2):
                        w, wd = c(n - m - l, n - k - 1), fact(n - m - l)
                        terms.append((w * fact(n - 1 - m), wd * fact(k - m + 1)))
                        terms.append((w * (m - 1) * fact(n - l - 2), wd * l * fact(k - l)))
                        for p in range(l + 1, n - 1 - k + l):
                            num = (m - 1) * fact(p - 1) * fact(n - 2 - p) * c(n - m - p, n - k - 1 - p + l)
                            den = fact(l) * fact(k - l) * fact(n - m - p)
                            terms.extend((num * c(p - r, p - l), den * fact(p - r)) for r in range(1, l + 1))
                    derived = (a_closed(n, k, m), paper_generic_rhs(n, k, m, a_closed))
                    got = core_sides(combinatorics._big_stirling_sides, n, k, m)
                    assert got == (derived, (printed_lhs, pair_sum(terms))), (n, k, m)


class TestIdentities:
    def test_stirling_621_single_term_cases(self):
        res = check_identity_stirling_621(4, 1)
        assert res.passed
        assert res.lhs == res.rhs == Fraction(1, 6)
        res = check_identity_stirling_621(5, 1)
        assert res.passed
        assert res.printed_lhs == res.printed_rhs == Fraction(1, 24)

    def test_stirling_621_printed_discrepancy(self):
        res = check_identity_stirling_621(5, 2)
        assert res.passed  # corrected form
        assert res.printed_lhs == Fraction(6, 24)
        assert res.printed_rhs == Fraction(7, 24)
        assert not res.printed_matches

    def test_stirling_621_printed_matches_single_term_only(self):
        # with one summand the printed and corrected forms coincide
        for n in range(4, 15):
            assert check_identity_stirling_621(n, 1).printed_matches

    def test_harmonic_identity_examples(self):
        for n in range(1, 12):
            res = check_identity_harmonic(n, 1)
            assert res.passed and res.lhs == 1
        res = check_identity_harmonic(2, 2)
        assert res.passed and res.rhs == Fraction(3, 2)
        res = check_identity_harmonic(3, 2)
        assert res.passed and res.rhs == Fraction(3, 2)

    @given(st.integers(1, 40))
    @settings(max_examples=25)
    def test_harmonic_identity_random(self, n):
        for k in (1, max(1, n // 2), n):
            assert check_identity_harmonic(n, k).passed

    def test_big_stirling_recurrence_ground_truth(self):
        res = check_identity_big_stirling(6, 2, 2)
        assert res.passed
        assert res.lhs == res.rhs == 5
        assert check_identity_big_stirling(7, 2, 2).passed
        # printed status is recorded, not asserted against a fixed outcome
        assert isinstance(res.printed_matches, bool)

    def test_identity_domain_errors(self):
        with pytest.raises(ValueError):
            check_identity_stirling_621(4, 2)
        with pytest.raises(ValueError):
            check_identity_harmonic(3, 4)
        with pytest.raises(ValueError):
            check_identity_big_stirling(6, 2, 3)


def test_rational_str():
    assert rational_str(Fraction(3, 2)) == "3/2"
    assert rational_str(Fraction(-1, 6)) == "-1/6"
    assert rational_str(Fraction(4)) == "4/1"

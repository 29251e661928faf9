import math
import random

import pytest

from melontft import specialfn
from melontft.errors import CoincidentCoordinatesError
from melontft.greens import (
    PointTuple,
    connected_2k,
    disconnected_4pt,
    disconnected_4pt_residual,
)
from melontft.specialfn import Coupling, Point3, g2_exact

# shared configuration: z = 1 so the 2-point values are fixed by W(e^2) etc.
LAM = 2 / math.pi
A = Point3(1, 2, 3)
B = Point3(2, 1, 1)
C = Point3(0.5, 3, 0.25)


def plain_connected_2k(points, coupling):
    """The positional recursion without memo, on g2_exact.

    connected_2k must reproduce it bit for bit: the memo and the one
    mass solve per first component change no arithmetic.
    """
    if len(points) == 1:
        return g2_exact(points[0], coupling)
    first = points[0]
    prefactor = g2_exact(Point3(first.x1, points[1].x2, points[1].x3), coupling)
    total = 0.0
    for rho in range(2, len(points) + 1):
        y = points[rho - 1]
        mixed = (Point3(y.x1, first.x2, first.x3),) + points[1 : rho - 1]
        num = plain_connected_2k(points[: rho - 1], coupling) - plain_connected_2k(mixed, coupling)
        den = first.x1 * first.x1 - y.x1 * y.x1
        total += plain_connected_2k(points[rho - 1 :], coupling) * num / den
    return 2.0 * coupling.lam * prefactor * total


def seeded_tuple(rng, k):
    return PointTuple(tuple(Point3(*(rng.uniform(0.0, 5.0) for _ in range(3))) for _ in range(k)))


def g4_direct(u, v, coupling):
    """Independent hand expansion of the 4-point recursion instance."""
    pref = g2_exact(Point3(u.x1, v.x2, v.x3), coupling)
    num = g2_exact(u, coupling) - g2_exact(Point3(v.x1, u.x2, u.x3), coupling)
    return 2 * coupling.lam * pref * g2_exact(v, coupling) * num / (u.x1**2 - v.x1**2)


class TestPointTuple:
    def test_valid(self):
        assert PointTuple((A, B, C)).k == 3

    def test_coincident_rejected_each_colour(self):
        with pytest.raises(CoincidentCoordinatesError):
            PointTuple((A, Point3(1, 1, 1)))
        with pytest.raises(CoincidentCoordinatesError):
            PointTuple((A, Point3(2, 2, 1)))
        with pytest.raises(CoincidentCoordinatesError):
            PointTuple((A, Point3(2, 1, 3)))

    def test_equal_squares_rejected(self):
        # distinct first components whose squares round to the same binary64
        # value would divide by zero in the recursion
        assert 1e-200 * 1e-200 == 2e-200 * 2e-200
        with pytest.raises(CoincidentCoordinatesError):
            PointTuple((Point3(1e-200, 1, 1), Point3(2e-200, 2, 2)))
        with pytest.raises(CoincidentCoordinatesError):
            PointTuple((A, Point3(0.0, 4, 5), Point3(1e-170, 6, 7)))
        assert PointTuple((Point3(1e-150, 1, 1), Point3(2e-150, 2, 2))).k == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointTuple(())


class TestConnected:
    def test_base_case_is_exact_two_point(self):
        c = Coupling(0.8)
        for p in (A, B, C):
            assert connected_2k(PointTuple((p,)), c) == g2_exact(p, c)

    def test_four_point_against_hand_expansion(self):
        c = Coupling(LAM)
        got = connected_2k(PointTuple((A, B)), c)
        assert got == pytest.approx(g4_direct(A, B, c), rel=1e-12)

    def test_six_point_against_hand_expansion(self):
        c = Coupling(LAM)
        rho2 = (
            g4_direct(B, C, c)
            * (g2_exact(A, c) - g2_exact(Point3(B.x1, A.x2, A.x3), c))
            / (A.x1**2 - B.x1**2)
        )
        rho3 = (
            g2_exact(C, c)
            * (g4_direct(A, B, c) - g4_direct(Point3(C.x1, A.x2, A.x3), B, c))
            / (A.x1**2 - C.x1**2)
        )
        oracle = 2 * c.lam * g2_exact(Point3(A.x1, B.x2, B.x3), c) * (rho2 + rho3)
        got = connected_2k(PointTuple((A, B, C)), c)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_matches_plain_recursion(self):
        rng = random.Random(2)
        cases = [(PointTuple((A, B, C)), Coupling(0.33))]
        for k in range(1, 7):
            cases += [(seeded_tuple(rng, k), Coupling(10.0 ** rng.uniform(-4, 6))) for _ in range(3)]
        for x, c in cases:
            assert connected_2k(x, c) == plain_connected_2k(x.points, c), (x, c)

    def test_memo_lives_for_one_call(self):
        # the same tuple at another coupling in between: a memo that outlived
        # its call would answer a later call with an earlier call's values
        x = seeded_tuple(random.Random(5), 5)
        for lam in (0.3, 3.0, 0.3):
            c = Coupling(lam)
            assert connected_2k(x, c) == plain_connected_2k(x.points, c), lam

    def test_one_mass_solve_per_first_component(self, monkeypatch):
        calls = []
        omega = specialfn.wright_omega

        def counting(t):
            calls.append(t)
            return omega(t)

        monkeypatch.setattr(specialfn, "wright_omega", counting)
        x = seeded_tuple(random.Random(8), 8)
        connected_2k(x, Coupling(0.7))
        assert len(calls) == 8

    def test_linear_small_coupling_scaling(self):
        x = PointTuple((A, B))
        slopes = [connected_2k(x, Coupling(lam)) / lam for lam in (1e-4, 1e-5)]
        assert slopes[0] == pytest.approx(slopes[1], rel=5e-4)
        assert math.isfinite(slopes[1]) and slopes[1] != 0.0


class TestDisconnected:
    def test_identically_zero(self):
        assert disconnected_4pt(A, B, Coupling(1.0)) == 0.0
        assert disconnected_4pt(C, A, Coupling(1e-4)) == 0.0

    def test_self_check_residual(self):
        resid = disconnected_4pt_residual(A, B, Coupling(1.0))
        # +0.0, not -0.0: the verify suite prints this value as "residual 0.0"
        assert resid == 0.0 and math.copysign(1.0, resid) == 1.0

    def test_low_orders_vanish(self):
        # order-0 and order-1 contributions: finite differences in lambda
        v1 = disconnected_4pt(A, B, Coupling(1e-6))
        v2 = disconnected_4pt(A, B, Coupling(2e-6))
        assert v1 == 0.0 and (v2 - v1) == 0.0

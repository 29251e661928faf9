"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria that ``melontft verify`` also checks are defined once, in
``melontft.verify``; their tests call it and fail on any failed check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same outcomes per test.
"""

import math
import time
from fractions import Fraction

import pytest

import melontft as m
from melontft import combinatorics, verify


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num:02d} [{name}]: PASS {detail}".rstrip())


def _passed(checks):
    """Fail on any failed check; return the checks' distinct details."""
    assert checks
    failed = [c.line() for c in checks if c.passed is False]
    assert not failed, "\n".join(failed)
    return "; ".join(dict.fromkeys(c.detail for c in checks if c.detail))


def test_c01_order_reproduction():
    t0 = time.perf_counter()
    detail = _passed(verify.orders_match_closed_form(12))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, "orders 1..9 and extension to 12 reproduce the closed form", f"({detail}, {elapsed:.2f}s)")


def test_c02_triple_coefficient_agreement():
    t0 = time.perf_counter()
    detail = _passed(verify.coefficient_routes_agree(12))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        2, "recursion = closed form = recurrences for all (n,k,m), n <= 12", f"({detail}, {elapsed:.2f}s)"
    )


def test_c03_printed_low_orders():
    g1 = {(t.coeff, t.logpow, t.x1pow, t.fullpow) for t in m.perturbative_order(1).terms}
    g2 = {(t.coeff, t.logpow, t.x1pow, t.fullpow) for t in m.perturbative_order(2).terms}
    assert g1 == {(Fraction(1), 1, 0, 2)}
    assert g2 == {(Fraction(1), 2, 0, 3), (Fraction(-1), 1, 1, 2)}
    _report(3, "printed first and second orders match exactly")


def test_c04_fixed_point_algebraic():
    t0 = time.perf_counter()
    detail = _passed(verify.suite_sde(None, None, 1e-8, False))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, "algebraic fixed-point residual < 1e-12 on the coupling grid", f"({detail})")


def test_c05_fixed_point_numeric():
    t0 = time.perf_counter()
    points = (m.Point3(0.5, 0.5, 0.5), m.Point3(1, 0.5, 2), m.Point3(2, 1, 1))
    checks = [
        check
        for lam in (0.1, 0.5, 1.0)
        for pt in points
        for check in verify.fixed_point_numeric(lam, pt, 1e-8)
    ]
    detail = _passed(checks)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, "numeric SDE and integrated-identity residuals < 1e-6", f"({detail}, {elapsed:.1f}s)")


def test_c06_closed_form_integrals():
    worst = 0.0
    for x1 in (0.0, 0.5, 1.0, 2.0):
        a = 1 + x1 * x1
        res = m.integrate_quarter_plane(lambda r2: 1 / (a + r2) - 1 / (1 + r2), 1e-8)
        assert res.converged
        worst = max(worst, abs(res.value + math.pi / 4 * math.log(a)))
        for n in (2, 3, 4):
            res = m.integrate_quarter_plane(lambda r2: (a + r2) ** float(-n), 1e-8)
            assert res.converged
            worst = max(worst, abs(res.value - math.pi * a ** (1 - n) / (4 * (n - 1))))
    assert worst < 1e-8
    _report(6, "both closed-form transverse integrals reproduced", f"(worst {worst:.2e})")


def test_c07_free_propagator_limit():
    x = m.Point3(1, 1, 1)
    lam = 1e-6
    free = 1.0 / (1.0 + x.norm2)
    slope = (m.g2_exact(x, m.Coupling(lam)) - free) / lam
    g1 = (math.pi / 2) * math.log(1 + x.x1**2) / (1 + x.norm2) ** 2
    rel = abs(slope - g1) / abs(g1)
    assert rel < 1e-5
    _report(7, "free propagator recovered with first-order slope", f"(rel {rel:.2e})")


def test_c08_series_convergence():
    x = m.Point3(1, 1, 1)
    lam = 0.5
    exact = m.g2_exact(x, m.Coupling(lam))
    errors = {n: abs(m.eval_partial_sum(n, x, lam) - exact) for n in range(4, 13)}
    # successive contributions alternate in sign, so single-step errors
    # wobble; convergence is asserted across the stated window
    assert all(errors[n] < errors[4] for n in range(5, 13))
    assert errors[12] < errors[8] < errors[4]
    assert errors[12] < 1e-4
    _report(
        8,
        "partial sums converge to the exact solution at lambda = 0.5",
        f"(err N=4 {errors[4]:.2e} -> N=12 {errors[12]:.2e})",
    )


def test_c09_special_function_suite():
    detail = _passed(verify.suite_lambert())
    _report(9, "Lambert round trips and omega residuals at stated accuracy", f"({detail})")


def test_c10_identity_suite(capsys):
    detail = _passed(verify.suite_identities())
    # the printed sides of the Stirling sum identity, as (lhs, rhs, den)
    _, (lhs, rhs, den) = combinatorics._stirling_621_sides(5, 2)
    assert (lhs, rhs, den) == (6, 7, 24)
    print(
        "ACCEPTANCE 10 note: printed-form discrepancy at (n,k)=(5,2): "
        f"{rhs}/{den} vs {lhs}/{den} (informational)"
    )
    _report(10, "harmonic and corrected Stirling identities exact to n = 20", f"({detail})")


def test_c11_higher_point_functions():
    detail = _passed(verify.suite_greens())
    c = m.Coupling(2 / math.pi)
    a = m.Point3(1, 2, 3)
    b = m.Point3(2, 1, 1)
    cc = m.Point3(0.5, 3, 0.25)

    # frozen from 50-digit substitution of the printed recursion instances
    v2 = m.connected_2k(m.PointTuple((a, b)), c)
    assert v2 == pytest.approx(-0.00018422630730781838614, rel=1e-12)
    v3 = m.connected_2k(m.PointTuple((a, b, cc)), c)
    assert v3 == pytest.approx(1.4725529753944957453e-06, rel=1e-12)
    _report(11, "higher-point recursion and disconnected nullity verified", f"({detail})")

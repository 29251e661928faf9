import heapq
import math

import numpy as np
import pytest

from melontft import quadrature, specialfn, verify
from melontft.errors import NotConvergedError
from melontft.quadrature import (
    _INITIAL_EVALS,
    _SPLIT_EVALS,
    _subtracted_integrand,
    fixed_point_residuals,
    integrate_quarter_plane,
    integrated_identity_residual,
    sde_residual_numeric,
)
from melontft.series import eval_series, perturbative_order
from melontft.specialfn import Coupling, Point3, dressed_mass


# every integrand is a function of r2 = q2^2 + q3^2, a float for the
# radial kernel and an array for the 2-D reference below
def gaussian(r2):
    return np.exp(-r2)


def inverse_square(r2):
    return (1 + r2) ** -2.0


def subtracted_log(r2):
    return 1 / (2 + r2) - 1 / (1 + r2)


def zero(r2):
    return 0.0 * r2


def divergent(r2):
    # decays only like 1/|q|^2: logarithmically divergent
    return 1 / (1 + r2)


def family_integrands(x1):
    """The subtracted log and the three powers at a = 1 + x1^2, with their values."""
    a = 1 + x1 * x1
    yield (lambda r2: 1 / (a + r2) - 1 / (1 + r2)), -math.pi / 4 * math.log(a)
    for n in (2, 3, 4):
        expected = math.pi * a ** (1 - n) / (4 * (n - 1))
        yield (lambda r2, n=n: (a + r2) ** float(-n)), expected


def subtracted(lam, x1):
    """The SDE's subtracted transverse integrand at (lambda, x1)."""
    return _subtracted_integrand(dressed_mass(x1, Coupling(lam)))


def recursion_integrand(k, x1):
    """Transverse factor of the order-k term in the perturbative recursion.

    A float r2 goes through ``eval_series`` at (x1, sqrt(r2), 0); the
    oracle's arrays are summed term by term here, so the oracle shares no
    evaluation code with the library.
    """
    gk = perturbative_order(k)
    a = 1 + x1 * x1
    lg = math.log1p(x1 * x1)

    def order(r2):
        if isinstance(r2, float):
            return eval_series(gk, Point3(x1, math.sqrt(r2), 0.0))
        terms = (float(t.coeff) * lg**t.logpow * a ** -t.x1pow * (a + r2) ** -t.fullpow for t in gk.terms)
        return (math.pi / 2) ** k * sum(terms)

    if k == 0:
        return lambda r2: order(r2) - 1.0 / (1.0 + r2)
    return order


# Oracle: the algorithm in two dimensions, one panel at a time, on numpy
# arrays.  It integrates f(q2^2 + q3^2) over the quarter plane with
# product 8 x 8 Gauss-Legendre rules in (u, v), forming q2^2 + q3^2 on its
# own grid, so it uses no radial reduction and shares nothing with the
# radial kernel but the breakpoints, the map and the refinement rule.
_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(8)
_REF_PANEL_EVALS = 5 * 64
_REF_SPLIT_EVALS = 4 * _REF_PANEL_EVALS
_REF_INITIAL_EVALS = 36 * _REF_PANEL_EVALS


def _ref_panel_rule(f, a, b, c, d):
    u = 0.5 * (b - a) * _REF_NODES + 0.5 * (a + b)
    v = 0.5 * (d - c) * _REF_NODES + 0.5 * (c + d)
    wu, wv = 1.0 - u, 1.0 - v
    qu, ju = u / wu, 1.0 / (wu * wu)
    qv, jv = v / wv, 1.0 / (wv * wv)
    r2 = qu[:, None] ** 2 + qv[None, :] ** 2
    vals = f(r2) * (ju * _REF_WEIGHTS)[:, None] * (jv * _REF_WEIGHTS)[None, :]
    return float(np.sum(vals)) * 0.25 * (b - a) * (d - c)


def _ref_refined_panel(f, a, b, c, d):
    coarse = _ref_panel_rule(f, a, b, c, d)
    mu, mv = 0.5 * (a + b), 0.5 * (c + d)
    fine = (
        _ref_panel_rule(f, a, mu, c, mv)
        + _ref_panel_rule(f, mu, b, c, mv)
        + _ref_panel_rule(f, a, mu, mv, d)
        + _ref_panel_rule(f, mu, b, mv, d)
    )
    return fine, abs(fine - coarse)


def reference_integrate(f, abs_tol, max_evals=10_000_000):
    """(value, error estimate, converged) of the per-panel algorithm."""
    u_cut, u_cut2 = 1.0e5 / (1.0 + 1.0e5), 2.0e5 / (1.0 + 2.0e5)
    breaks = sorted({0.0, 0.25, 0.5, 0.75, u_cut, u_cut2, 1.0})
    edges = list(zip(breaks[:-1], breaks[1:]))
    evals, counter, heap, total_err, stuck = _REF_INITIAL_EVALS, 0, [], 0.0, []
    for a, b in edges:
        for c, d in edges:
            value, err = _ref_refined_panel(f, a, b, c, d)
            heapq.heappush(heap, (-err, counter, a, b, c, d, value))
            counter += 1
            total_err += err
    while total_err > abs_tol and heap and evals + _REF_SPLIT_EVALS <= max_evals:
        neg_err, _, a, b, c, d, value = heapq.heappop(heap)
        total_err += neg_err
        if b - a < 1e-13 or d - c < 1e-13:
            stuck.append((a, b, c, d, value))
            total_err -= neg_err
            continue
        mu, mv = 0.5 * (a + b), 0.5 * (c + d)
        for aa, bb, cc, dd in ((a, mu, c, mv), (mu, b, c, mv), (a, mu, mv, d), (mu, b, mv, d)):
            value, err = _ref_refined_panel(f, aa, bb, cc, dd)
            evals += _REF_PANEL_EVALS
            heapq.heappush(heap, (-err, counter, aa, bb, cc, dd, value))
            counter += 1
            total_err += err
    panels = [(a, b, c, d, value) for (_, _, a, b, c, d, value) in heap] + stuck
    value = math.fsum(p[4] for p in panels)
    inside_cut = math.fsum(p[4] for p in panels if p[1] <= u_cut and p[3] <= u_cut)
    inside_cut2 = math.fsum(p[4] for p in panels if p[1] <= u_cut2 and p[3] <= u_cut2)
    tail_tol = max(10.0 * abs_tol, 4.0 * total_err)
    tail_ok = abs(inside_cut2 - inside_cut) <= tail_tol and abs(value - inside_cut2) <= tail_tol
    return value, total_err, total_err <= abs_tol and tail_ok


class TestClosedFormIntegrals:
    def test_gaussian(self):
        res = integrate_quarter_plane(gaussian, 1e-8)
        assert res.converged
        assert res.error_estimate <= 1e-8
        assert res.value == pytest.approx(math.pi / 4, abs=1e-8)

    def test_inverse_square(self):
        res = integrate_quarter_plane(inverse_square, 1e-8)
        assert res.converged
        assert abs(res.value - math.pi / 4) < 1e-9

    def test_subtracted_log(self):
        res = integrate_quarter_plane(subtracted_log, 1e-8)
        assert res.converged
        assert res.value == pytest.approx(-math.pi / 4 * math.log(2), abs=1e-8)


class TestMachinery:
    def test_zero_integrand(self):
        res = integrate_quarter_plane(zero, 1e-10)
        assert res.converged
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_divergent_integrand_flagged(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 200_000)
        res = integrate_quarter_plane(divergent, 1e-8)
        assert not res.converged

    def test_budget_respected(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 30_000)
        res = integrate_quarter_plane(gaussian, 1e-14)
        assert res.evaluations <= 30_000

    def test_bad_arguments(self, monkeypatch):
        for tol in (-1.0, 0.0, math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match="abs_tol must be finite and > 0"):
                integrate_quarter_plane(gaussian, tol)
        # the six initial panels alone cost 6 * 3 * 8 points, and no split fits
        # a budget of exactly those
        monkeypatch.setattr(quadrature, "_MAX_EVALS", _INITIAL_EVALS)
        res = integrate_quarter_plane(gaussian, 1e-14)
        assert res.evaluations == _INITIAL_EVALS and res.panels == 6

    def test_evaluations_are_the_points_evaluated(self):
        points = []

        def counting(*args):
            points.append(args)
            return gaussian(*args)

        res = integrate_quarter_plane(counting, 1e-12)
        assert res.evaluations == len(points)
        # each call receives one Python float, rho^2 >= 0
        assert all(len(args) == 1 and type(args[0]) is float and args[0] >= 0.0 for args in points)
        # a split replaces one panel by two and evaluates the two halves
        # of each child, 4 rules of 8 points
        splits, rest = divmod(res.evaluations - _INITIAL_EVALS, _SPLIT_EVALS)
        assert rest == 0 and splits > 0
        assert res.panels == 6 + splits
        assert res.stuck_panels == 0

    def test_two_argument_integrand_raises(self):
        # an integrand of (q2, q3) does not fit the one-variable contract:
        # the first call raises, before any value is summed
        calls = []

        def planar(q2, q3):
            calls.append((q2, q3))
            return inverse_square(q2 * q2 + q3 * q3)

        with pytest.raises(TypeError):
            integrate_quarter_plane(planar, 1e-8)
        assert calls == []


class TestGaussRule:
    def test_matches_numpy(self):
        nodes, weights = quadrature._NODES, quadrature._WEIGHTS
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
        assert nodes == tuple(sorted(nodes)) and len(weights) == 8
        for x, ref in zip(nodes, ref_nodes):
            assert abs(x - ref) <= 2 * math.ulp(ref)
        # numpy rescales its weights to sum to 2, which leaves them up to
        # 8e-16 off the true values; 2 ulp of that sum bounds the gap
        for w, ref in zip(weights, ref_weights):
            assert abs(w - ref) <= 2 * math.ulp(2.0)

    def test_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = quadrature._NODES, quadrature._WEIGHTS
        with mpmath.workdps(40):
            for x, w in zip(nodes, weights):
                root = mpmath.findroot(lambda t: mpmath.legendre(8, t), x)
                slope = mpmath.diff(lambda t: mpmath.legendre(8, t), root)
                assert x == float(root)
                assert w == float(2 / ((1 - root**2) * slope**2))

    @pytest.mark.parametrize("k", range(16))
    def test_exact_for_degree_up_to_15(self, k):
        nodes, weights = quadrature._NODES, quadrature._WEIGHTS
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(sum(w * x**k for x, w in zip(nodes, weights)) - exact) <= 1e-15


def _oracle_cases():
    """(id, integrand, abs_tol, max_evals or None) for every integrand in this file."""
    cases = [
        ("gaussian", gaussian, 1e-8, None),
        ("inverse_square", inverse_square, 1e-8, None),
        ("subtracted_log", subtracted_log, 1e-8, None),
        ("zero", zero, 1e-10, None),
        ("divergent", divergent, 1e-8, 200_000),
        ("gaussian budget", gaussian, 1e-14, 30_000),
    ]
    for x1 in (0.0, 0.5, 1.0, 2.0):
        cases += [(f"family x1={x1} #{i}", f, 1e-8, None) for i, (f, _) in enumerate(family_integrands(x1))]
    for x1 in (0.5, 1.0, 2.0):
        cases += [(f"recursion k={k} x1={x1}", recursion_integrand(k, x1), 1e-9, None) for k in range(3)]
    # the certification design: one lambda per decade, x1 = 0 and one per decade
    for lam, x1 in ((1e-3, 0.0), (1e-2, 1e-3), (1e-1, 10.0), (1e0, 1e-2), (1e1, 1e-1), (1e2, 1.0), (1e3, 31.6)):
        cases.append((f"subtracted lam={lam} x1={x1}", subtracted(lam, x1), 1e-8, None))
    cases.append(("subtracted lam=0.1 x1=10 tol=1e-10", subtracted(0.1, 10.0), 1e-10, None))
    # as in test_not_converged_propagates, on a smaller budget
    cases.append(("subtracted tol=1e-16", subtracted(0.5, 1.0), 1e-16, 200_000))
    return cases


_CASES = _oracle_cases()
# no budget makes these converge: the integral diverges, or the
# tolerance is below what binary64 panel sums can resolve
_NEVER_CONVERGE = {"divergent", "subtracted tol=1e-16"}


@pytest.mark.parametrize("case_id, f, tol, max_evals", _CASES, ids=[c[0] for c in _CASES])
def test_matches_per_panel_reference(case_id, f, tol, max_evals, monkeypatch):
    budget = {} if max_evals is None else {"max_evals": max_evals}
    if max_evals is not None:
        monkeypatch.setattr(quadrature, "_MAX_EVALS", max_evals)
    res = integrate_quarter_plane(f, tol)
    expected, _, converged = reference_integrate(f, tol, **budget)
    if case_id in _NEVER_CONVERGE:
        assert not converged and not res.converged
        return
    # the radial kernel converges wherever the oracle does, and also on
    # the 30 000-point budget that the oracle runs out of
    assert res.converged
    if converged:
        assert abs(res.value - expected) <= 2 * tol


class TestSdeResiduals:
    def test_trivial_at_x1_zero(self):
        res = sde_residual_numeric(Point3(0, 1, 2), Coupling(1.0), 1e-8)
        assert abs(res) <= 2e-8

    def test_sample_points(self):
        assert abs(sde_residual_numeric(Point3(1, 0.5, 0.5), Coupling(0.5), 1e-8)) < 1e-6
        assert abs(sde_residual_numeric(Point3(2, 1, 1), Coupling(1.0), 1e-8)) < 1e-6

    def test_integrated_identity(self):
        assert abs(integrated_identity_residual(0.0, Coupling(0.7), 1e-8)) <= 2e-8
        assert abs(integrated_identity_residual(1.0, Coupling(2 / math.pi), 1e-8)) < 1e-6
        assert abs(integrated_identity_residual(2.0, Coupling(0.1), 1e-8)) < 1e-6

    def test_not_converged_propagates(self):
        with pytest.raises(NotConvergedError):
            sde_residual_numeric(Point3(1, 1, 1), Coupling(0.5), 1e-16)

    def test_not_converged_explains_itself(self):
        # tol 1e-16 is below what binary64 panel sums can resolve: the
        # refinement ends on the default budget of 1e6 evaluations, or
        # with every panel left too thin to split counted as stuck
        with pytest.raises(NotConvergedError) as info:
            fixed_point_residuals(Point3(1.0, 1.0, 1.0), Coupling(0.5), 1e-16)
        assert str(info.value) == "transverse quadrature did not converge at x1=1.0, lambda=0.5"
        res = info.value.result
        assert not res.converged
        assert res.error_estimate > 1e-16
        assert res.panels > 6
        on_budget = 1_000_000 - _SPLIT_EVALS < res.evaluations <= 1_000_000
        assert on_budget or res.stuck_panels > 0, (res.evaluations, res.stuck_panels)
        assert res.evaluations <= 1_000_000
        assert math.isfinite(res.inside_cut) and math.isfinite(res.inside_cut2)

    def test_large_coupling_passes(self):
        # the SDE residual multiplies the quadrature error by about
        # 2*lambda*G2^2, 8.9e5 here; the radial rule's error is small enough
        checks = verify.fixed_point_numeric(1e6, Point3(10.0, 0.5, 0.5), 1e-8)
        assert [c.passed for c in checks] == [True, True], [c.line() for c in checks]

    # M from about 9e26 to 1.7e308 (x1 = 1.3e154, the top of the domain): in
    # p = q/sqrt(M) the free term varies near u = 1/sqrt(M), below 1e-13 in
    # u, so the stuck width must be relative to u; and M/(1 + M p^2) would
    # overflow to 0 once M p^2 passes 1.8e308, so it is 1/(1/M + p^2)
    @pytest.mark.parametrize(
        "lam, x1", [(0.5, 3e13), (0.5, 1e14), (1e6, 3e13), (1e6, 1e14), (1e6, 1e100), (1e6, 1.3e154)]
    )
    def test_huge_mass_passes(self, lam, x1):
        checks = verify.fixed_point_numeric(lam, Point3(x1, 0.0, 0.0), 1e-8)
        assert [c.passed for c in checks] == [True, True], [c.line() for c in checks]

    # (lambda, x1, tol) with the integrand's length scale sqrt(M) far from
    # 1, and two with M near 1.  Integrated in q rather than in q/sqrt(M),
    # seven of the first nine rows do not converge: the far-field mass
    # ~ (M-1)/q^4 beyond the tail cutoff grows with M.
    SCALE_DESIGN = (
        (10.0, 10.0, 1e-9),
        (10.0, 10.0, 1e-10),
        (1000.0, 100.0, 1e-9),
        (0.1, 10.0, 1e-9),
        (0.1, 10.0, 1e-10),
        (1.0, 100.0, 1e-10),
        (1e6, 1e4, 1e-9),
        (1e-4, 1e3, 1e-9),
        (1e-4, 1e8, 1e-10),
        (1e6, 1.0, 1e-10),
        (1e-2, 1e-3, 1e-10),
    )

    @pytest.mark.parametrize("lam, x1, tol", SCALE_DESIGN)
    def test_converges_within_tol_of_closed_form(self, lam, x1, tol):
        mass = dressed_mass(x1, Coupling(lam))
        res = integrate_quarter_plane(_subtracted_integrand(mass), tol)
        assert res.converged
        assert abs(res.value + math.pi / 4 * math.log(mass)) <= tol
        assert res.evaluations <= 100_000

    def test_one_integral_per_certification_point(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate_quarter_plane

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        # the x1 values _masses solves (none at x1 = 0, where M = 1)
        solves = []
        masses = specialfn._masses

        def counting_masses(x1s, coupling):
            x1s = tuple(x1s)
            solves.extend(x1 for x1 in x1s if x1 != 0.0)
            return masses(x1s, coupling)

        monkeypatch.setattr(quadrature, "integrate_quarter_plane", counting)
        monkeypatch.setattr(specialfn, "_masses", counting_masses)
        checks = verify.fixed_point_numeric(0.5, Point3(1.0, 0.5, 0.5), 1e-8)
        assert [c.passed for c in checks] == [True, True]
        assert len(calls) == 1 and len(solves) == 1


class TestAgainstPerturbativeRecursion:
    def test_recursion_via_quadrature(self):
        # rebuild G_n(x) for n = 1..3 by integrating the recursion's
        # transverse factor numerically instead of in closed form
        for x1 in (0.5, 1.0, 2.0):
            x = Point3(x1, 0.7, 0.3)
            b = 1.0 + x.norm2
            for n in (1, 2, 3):
                total = 0.0
                for k in range(n):
                    res = integrate_quarter_plane(recursion_integrand(k, x1), 1e-9)
                    assert res.converged
                    total += res.value * eval_series(perturbative_order(n - 1 - k), x)
                numeric = -2.0 / b * total
                symbolic = eval_series(perturbative_order(n), x)
                assert numeric == pytest.approx(symbolic, abs=1e-6), (x1, n)

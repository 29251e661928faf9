import math

import numpy as np
import pytest

from melontft import quadrature, verify
from melontft.errors import NotConvergedError
from melontft.quadrature import (
    integrate_quarter_plane,
    integrated_identity_residual,
    sde_residual_numeric,
)
from melontft.series import eval_series, eval_series_transverse, perturbative_order
from melontft.specialfn import Coupling, Point3


def gaussian(q2, q3):
    return np.exp(-q2 * q2 - q3 * q3)


class TestClosedFormIntegrals:
    def test_gaussian(self):
        res = integrate_quarter_plane(gaussian, 1e-8)
        assert res.converged
        assert res.error_estimate <= 1e-8
        assert res.value == pytest.approx(math.pi / 4, abs=1e-8)

    def test_inverse_square(self):
        res = integrate_quarter_plane(lambda q2, q3: (1 + q2 * q2 + q3 * q3) ** -2.0, 1e-8)
        assert res.converged
        assert res.value == pytest.approx(math.pi / 4, abs=1e-8)

    def test_subtracted_log(self):
        res = integrate_quarter_plane(
            lambda q2, q3: 1 / (2 + q2 * q2 + q3 * q3) - 1 / (1 + q2 * q2 + q3 * q3), 1e-8
        )
        assert res.converged
        assert res.value == pytest.approx(-math.pi / 4 * math.log(2), abs=1e-8)

    def test_grid_of_both_families(self):
        for x1 in (0.0, 0.5, 1.0, 2.0):
            a = 1 + x1 * x1
            res = integrate_quarter_plane(
                lambda q2, q3: 1 / (a + q2 * q2 + q3 * q3) - 1 / (1 + q2 * q2 + q3 * q3),
                1e-8,
            )
            assert res.converged
            assert res.value == pytest.approx(-math.pi / 4 * math.log(a), abs=1e-8)
            for n in (2, 3, 4):
                res = integrate_quarter_plane(
                    lambda q2, q3: (a + q2 * q2 + q3 * q3) ** float(-n), 1e-8
                )
                assert res.converged
                expected = math.pi * a ** (1 - n) / (4 * (n - 1))
                assert res.value == pytest.approx(expected, abs=1e-8), (x1, n)


class TestMachinery:
    def test_zero_integrand(self):
        res = integrate_quarter_plane(lambda q2, q3: 0.0 * (q2 + q3), 1e-10)
        assert res.converged
        assert res.value == 0.0
        assert res.error_estimate == 0.0

    def test_divergent_integrand_flagged(self):
        # decays only like 1/|q|^2: logarithmically divergent
        res = integrate_quarter_plane(
            lambda q2, q3: 1 / (1 + q2 * q2 + q3 * q3), 1e-8, max_evals=200_000
        )
        assert not res.converged

    def test_budget_respected(self):
        res = integrate_quarter_plane(gaussian, 1e-14, max_evals=30_000)
        assert res.evaluations <= 30_000 + 5 * 64

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate_quarter_plane(gaussian, -1.0)


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

    def test_one_integral_per_certification_point(self, monkeypatch):
        calls = []
        integrate = quadrature.integrate_quarter_plane

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_quarter_plane", counting)
        checks = verify.fixed_point_numeric(0.5, Point3(1.0, 0.5, 0.5), 1e-8)
        assert [c.passed for c in checks] == [True, True]
        assert len(calls) == 1


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
                    gk = perturbative_order(k)
                    if k == 0:

                        def f(q2, q3, gk=gk):
                            rho2 = q2 * q2 + q3 * q3
                            return eval_series_transverse(gk, x1, rho2) - 1.0 / (1.0 + rho2)

                    else:

                        def f(q2, q3, gk=gk):
                            return eval_series_transverse(gk, x1, q2 * q2 + q3 * q3)

                    res = integrate_quarter_plane(f, 1e-9)
                    assert res.converged
                    total += res.value * eval_series(perturbative_order(n - 1 - k), x)
                numeric = -2.0 / b * total
                symbolic = eval_series(perturbative_order(n), x)
                assert numeric == pytest.approx(symbolic, abs=1e-6), (x1, n)

import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melontft import specialfn
from melontft.errors import NotConvergedError
from melontft.series import eval_partial_sum, eval_series, perturbative_order
from melontft.specialfn import (
    Coupling,
    Point3,
    dressed_mass,
    exact_record,
    exact_records,
    g2_exact,
    g_shift,
    lambert_w0,
    lambert_wm1,
    sde_residual_algebraic,
    wright_omega,
)


_BRANCH_POINT = -math.exp(-1.0)


def bisect_w0(y, lo=-1.0, hi=800.0):
    """Independent principal-branch oracle: bisection on w*exp(w) = y."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def plain_exact_record(x, coupling):
    """Per-record reference: one dressed-mass solve and one record, as
    ``exact_record`` computes them, one point at a time (checks left out)."""
    z, x1 = coupling.z, x.x1
    if x1 == 0.0:
        mass = 1.0
    else:
        ratio = (1.0 + x1 * x1) / z
        t = ratio - math.log(z)
        omega = wright_omega(t)
        mass = z * omega if t >= 0.0 else math.exp(ratio - omega)
    if mass >= 2.0:
        g = -z * math.log(mass)
    else:
        d = mass - 1.0
        if d < 1e-8:
            d = x1 * x1 / (1.0 + z)
        if d < sys.float_info.min:
            g = 0.0 - x1 * x1 * (z / (1.0 + z))
        else:
            d -= (d + z * math.log1p(d) - x1 * x1) / (1.0 + z / (1.0 + d))
            g = -z * math.log1p(d)
    total = 1.0 + x1 * x1 + g
    residual = g + z * math.log(total) if total > 0.0 else math.nan
    return g, 1.0 / (mass + x.x2 * x.x2 + x.x3 * x.x3), residual


def mp_omega(mp, t):
    """omega(t) at the caller's mpmath precision: Newton on w + log(w) = t
    from a double seed above t = 2, mpmath's W of e^t below."""
    t = mp.mpf(t)
    if t <= 2:
        return mp.lambertw(mp.exp(t)).real
    w = t - mp.log(t)
    for _ in range(200):
        step = (w + mp.log(w) - t) * w / (w + 1)
        w -= step
        if abs(step) <= w * mp.mpf(10) ** (5 - mp.mp.dps):
            return w
    raise AssertionError(f"mpmath omega did not converge at t={t}")


def mass_digits(x1):
    return 60 + int(2 * math.log10(1.0 + x1))


def mp_mass(mp, lam, x1):
    """(M, a, z) at 60 + 2*log10(1 + x1) digits: Newton on M + z*log(M) = a
    from the library's double.  g = M - a cancels for a >> |g|, hence the
    digits; mpmath's findroot from scratch fails at lambda >= 1e50."""
    digits = mass_digits(x1)
    with mp.workdps(digits):
        z, a = mp.pi / 2 * mp.mpf(lam), 1 + mp.mpf(x1) ** 2
        mass = mp.mpf(dressed_mass(x1, Coupling(lam)))
        for _ in range(100):
            step = (mass + z * mp.log(mass) - a) / (1 + z / mass)
            mass -= step
            if abs(step) <= mass * mp.mpf(10) ** (5 - digits):
                return +mass, a, z
    raise AssertionError(f"mpmath mass did not converge at lambda={lam!r}, x1={x1!r}")


def bisect_wm1(y, lo=-800.0, hi=-1.0):
    """Secondary branch oracle; w*exp(w) is decreasing on (-inf, -1]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDomainTypes:
    def test_point_validation(self):
        p = Point3(1, 2, 0.5)
        assert p.norm2 == pytest.approx(5.25)
        with pytest.raises(ValueError):
            Point3(-0.1, 0, 0)
        with pytest.raises(ValueError):
            Point3(0, math.inf, 0)

    def test_coupling_validation(self):
        assert Coupling(2 / math.pi).z == pytest.approx(1.0, rel=1e-15)
        assert Coupling.from_z(1.0).z == pytest.approx(1.0, rel=1e-15)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                Coupling(bad)

    def test_coupling_rejects_overflowing_z(self):
        # the largest lambda whose z = (pi/2)*lambda is finite, and the next double
        top = 1.1444469943028111e308
        assert math.isfinite(Coupling(top).z)
        with pytest.raises(ValueError, match=r"z = \(pi/2\)\*lambda overflows binary64") as err:
            Coupling(math.nextafter(top, math.inf))
        assert f"lambda={math.nextafter(top, math.inf)!r}" in str(err.value)

    def test_coupling_z_once_and_not_compared(self):
        c, fresh = Coupling(1.5), Coupling(1.5)
        assert c.z is c.z  # computed on the first read, then kept
        assert c == fresh and hash(c) == hash(fresh)
        assert repr(c) == repr(fresh) == "Coupling(lam=1.5)"


class TestLambert:
    def test_w0_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-15)
        # oracle: bisection on w*exp(w) = 1
        assert lambert_w0(1.0) == pytest.approx(0.567143290409783873, rel=1e-14)
        assert lambert_w0(1.0) == pytest.approx(bisect_w0(1.0), rel=1e-13)

    def test_w0_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)

    def test_w0_domain(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.3679)
        with pytest.raises(ValueError):
            lambert_w0(math.nan)

    def test_w0_rejects_infinity_by_name(self):
        # the guard names lambert_w0 and y, not the wright_omega it calls
        with pytest.raises(ValueError, match=r"^lambert_w0 needs finite y >= -1/e, got inf$"):
            lambert_w0(math.inf)

    def test_wm1_values(self):
        assert lambert_wm1(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)
        # oracles: bisection on w*exp(w) = y for w <= -1
        assert lambert_wm1(-0.1) == pytest.approx(-3.5771520639572972184, rel=1e-13)
        assert lambert_wm1(-0.2) == pytest.approx(-2.5426413577735264243, rel=1e-13)
        assert lambert_wm1(-0.1) == pytest.approx(bisect_wm1(-0.1), rel=1e-12)
        assert lambert_wm1(-0.2) == pytest.approx(bisect_wm1(-0.2), rel=1e-12)

    def test_wm1_residuals(self):
        for y in (-0.36, -0.3, -0.2, -0.1, -0.05, -1e-3, -1e-6, -1e-12):
            w = lambert_wm1(y)
            assert w <= -1.0
            assert abs(w * math.exp(w) - y) <= 1e-13 * abs(y), y

    def test_wm1_domain(self):
        for bad in (-0.38, 0.0, 0.5, math.nan):
            with pytest.raises(ValueError):
                lambert_wm1(bad)

    def test_wm1_sweep(self):
        # y log-spaced towards the branch point, log-spaced towards 0, and uniform
        n = 6700
        near = [_BRANCH_POINT + 10.0 ** (-16 + i * (16 - 1 / math.log(10)) / (n - 1)) for i in range(n)]
        small = [-(10.0 ** (math.log10(0.37) - i * (300 + math.log10(0.37)) / (n - 1))) for i in range(n)]
        rng = random.Random(7)
        uniform = [rng.uniform(_BRANCH_POINT, 0.0) for _ in range(n)]
        ys = [y for y in near + small + uniform if _BRANCH_POINT <= y < 0.0]
        assert len(ys) > 20_000
        for y in ys:
            w = lambert_wm1(y)
            assert w <= -1.0, y
            assert abs(w * math.exp(w) - y) < 1e-13 * abs(y), y

    def test_wm1_subnormal_against_mpmath(self):
        # below the smallest normal double e^w underflows, so w is found in log
        # space; each y is held to 1e-15 relative of mpmath's W_{-1}
        mp = pytest.importorskip("mpmath")
        tiny = sys.float_info.min
        ys = [-tiny, -math.nextafter(tiny, 0.0), -1e-310, -1e-315, -1e-320, -5e-324, -1e-323]
        ys += [-(10.0 ** -(307.66 + 15.6 * i / 400)) for i in range(401)]
        with mp.workdps(40):
            for y in ys:
                w = lambert_wm1(y)
                assert abs(w / mp.lambertw(y, -1).real - 1) <= 1e-15, y

    def test_wm1_off_branch_raises(self, monkeypatch):
        # a root of the shared loop on the principal branch is reported, not repaired
        fsc = specialfn._fsc
        monkeypatch.setattr(specialfn, "_fsc", lambda y, v, t0: -0.5)
        with pytest.raises(NotConvergedError, match="secondary branch"):
            lambert_wm1(-0.2)
        # below the smallest normal double the residual is checked in log space
        monkeypatch.setattr(specialfn, "_fsc", lambda y, v, t0: 1.001 * fsc(y, v, t0))
        with pytest.raises(NotConvergedError, match="secondary branch"):
            lambert_wm1(-1e-310)

    def test_both_branches_against_mpmath(self):
        # within eps*kappa of a 50-digit W, kappa = 1 + 1/|1 + W| being W's
        # condition number in y: small positive y (which W0 solves from y
        # itself, not from log(y)), uniform negative y, y near -1/e and y
        # towards 0 on both branches
        mp = pytest.importorskip("mpmath")
        eps = 2.0**-52
        rng = random.Random(43)
        n = 500
        pos = [10.0 ** rng.uniform(-307.0, -2.0 / math.log(10.0)) for _ in range(n)]
        pos += [1e-307, 1e-300, 1.2e-285, math.exp(-2.0), math.nextafter(math.exp(-2.0), 1.0)]
        neg = [rng.uniform(_BRANCH_POINT, 0.0) for _ in range(n)]
        neg += [_BRANCH_POINT + 10.0 ** -rng.uniform(1.0, 16.0) for _ in range(n)]
        neg += [-(10.0 ** -rng.uniform(0.44, 307.5)) for _ in range(n)]
        neg = [y for y in neg if _BRANCH_POINT <= y < 0.0] + [_BRANCH_POINT]
        worst = {}
        with mp.workdps(50):
            for name, solve, branch, ys in (("W0", lambert_w0, 0, pos + neg), ("W-1", lambert_wm1, -1, neg)):
                worst[name] = (0.0, 0.0)
                for y in ys:
                    ref = mp.lambertw(y, branch).real
                    kappa = float(1 + 1 / abs(1 + ref))
                    worst[name] = max(worst[name], (float(abs(solve(y) / ref - 1)) / (eps * kappa), y))
        assert worst["W0"][0] <= 1.0 and worst["W-1"][0] <= 1.0, worst


class TestWrightOmega:
    def test_fixed_points(self):
        assert wright_omega(1.0) == 1.0
        assert wright_omega(0.0) == pytest.approx(0.567143290409783873, rel=1e-14)

    def test_overflow_range(self):
        # e^1300 overflows binary64; the log-space path must still converge
        om = wright_omega(1300.0)
        assert abs(om + math.log(om) - 1300.0) < 1e-11

    def test_residual_grid(self):
        for t in (-10.0, -5.0, -1.0, -0.1, 0.5, 2.0, 20.0, 709.0, 5e3, 1e5, 1e6):
            om = wright_omega(t)
            assert om > 0.0
            assert abs(om + math.log(om) - t) <= 1e-12 * (1.0 + abs(t)), t

    @given(st.floats(min_value=-30.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=80)
    def test_residual_random(self, t):
        om = wright_omega(t)
        assert abs(om + math.log(om) - t) <= 1e-12 * (1.0 + abs(t))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            wright_omega(math.inf)

    # Inputs on which a 1e-16 relative step test alone never fires: the
    # iterate hops between neighbouring doubles.  The first three are
    # tabulate grid values on which an earlier Newton omega hopped so; the
    # last two sit just above -1/e on each Lambert branch, where an earlier
    # Halley solver hopped so.
    STALLING_T = (294.22594339693416, 11.458169053626433, -2.5782866577630204)
    STALLING_Y = (-0.3678794393298839, -0.36787943933064693)

    def test_iterations_bounded(self, monkeypatch):
        class CountingMath:
            # one log per step of the shared loop, plus a few for seed,
            # Newton step and residual
            calls = 0

            def __getattr__(self, name):
                return getattr(math, name)

            def exp(self, x):
                CountingMath.calls += 1
                return math.exp(x)

            def log(self, x):
                CountingMath.calls += 1
                return math.log(x)

        monkeypatch.setattr(specialfn, "math", CountingMath())
        solves = [(wright_omega, t) for t in self.STALLING_T]
        solves += [(lambert_w0, self.STALLING_Y[0]), (lambert_wm1, self.STALLING_Y[1])]
        for solve, arg in solves:
            CountingMath.calls = 0
            solve(arg)
            assert CountingMath.calls <= 12, (solve.__name__, arg, CountingMath.calls)

    @pytest.mark.parametrize("cap", [1, 2, 3, specialfn._MAX_ITER])
    def test_relative_accuracy_against_mpmath(self, monkeypatch, cap):
        # within 8 eps of a 50-digit omega on t in [-700, 1.7e308], at the
        # default cap and at caps down to one step, which the seeds make the
        # only one; non-finite t raise ValueError at any cap
        mp = pytest.importorskip("mpmath")
        eps = 2.0**-52
        rng = random.Random(41)
        ts = [rng.uniform(-700.0, 60.0) for _ in range(1500)] + [rng.uniform(-3.0, 3.0) for _ in range(300)]
        ts += [10.0 ** rng.uniform(0.0, 308.2) for _ in range(600)]
        # the ends of the seed pieces, the old solver's stalling inputs and huge t
        ts += [-2.0, math.nextafter(-2.0, -3.0), -0.5, 1.5, 5.0, 15.0, 50.0, math.nextafter(50.0, 51.0)]
        ts += [-1.0, 2.0, math.nextafter(2.0, 3.0), 1e160, 1e300, 1.7e308, *self.STALLING_T]
        monkeypatch.setattr(specialfn, "_MAX_ITER", cap)
        worst = (0.0, -math.inf)
        with mp.workdps(50):
            for t in ts:
                err = float(abs(wright_omega(t) / mp_omega(mp, t) - 1)) / eps
                worst = max(worst, (err, t))
        assert worst[0] <= 8.0, worst
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="wright_omega needs finite t"):
                wright_omega(bad)

    def test_underflow_range_is_exp(self):
        # below t = -37.5, omega = e^(t - omega) is e^t to the last bit: it
        # turns subnormal below -708 and is 0.0 below about -745.13
        want = {-745.0: "0x0.0000000000001p-1022", -745.13: "0x0.0000000000001p-1022", -745.14: "0x0.0p+0"}
        want.update({t: "0x0.0p+0" for t in (-745.2, -746.0, -800.0, -1e5, -1.7e308)})
        assert {t: wright_omega(t).hex() for t in want} == want
        rng = random.Random(3)
        ts = [rng.uniform(-746.0, -37.5) for _ in range(3000)] + [rng.uniform(-746.0, -708.0) for _ in range(3000)]
        assert [t for t in ts if wright_omega(t) != math.exp(t)] == []

    def test_iteration_cap_raises(self, monkeypatch):
        # seeds 1-5 % off still converge, in more than one step, so a cap
        # of one step raises on each seed region that reads a table
        fits = tuple((hi, centre, 1.05 * c0, *c) for hi, centre, c0, *c in specialfn._OMEGA_FITS)
        monkeypatch.setattr(specialfn, "_OMEGA_FITS", fits)
        monkeypatch.setattr(specialfn, "_OMEGA_SMALL", (0.5, 0.0, 0.0))
        for t in (-5.0, 0.5, 3.0, 40.0):
            assert wright_omega(t) == pytest.approx(bisect_w0(math.exp(t)), rel=1e-13)
        monkeypatch.setattr(specialfn, "_MAX_ITER", 1)
        for t in (-5.0, 0.5, 3.0, 40.0):
            with pytest.raises(NotConvergedError, match="did not converge in 1 steps"):
                wright_omega(t)
        with pytest.raises(NotConvergedError):
            lambert_w0(-0.3)
        with pytest.raises(NotConvergedError):
            lambert_wm1(-0.2)


class TestShiftAndSolution:
    def test_shift_vanishes_at_origin(self):
        for lam in (0.01, 0.5, 3.0, 10.0):
            assert abs(g_shift(0.0, Coupling(lam))) <= 1e-15

    def test_shift_value_z1(self):
        # g(1, z=1) = W(e^2) - 2, W(e^2) = 1.5571455989976114169 (bisection)
        c = Coupling.from_z(1.0)
        assert g_shift(1.0, c) == pytest.approx(-0.4428544010023886, rel=1e-13)
        assert g_shift(1.0, c) == pytest.approx(bisect_w0(math.e**2) - 2.0, rel=1e-12)

    def test_shift_small_coupling_limit(self):
        # g -> -lambda*(pi/2)*log(1+x1^2) + O(lambda^2) -> 0
        for x1 in (0.5, 1.0, 2.0):
            lam = 1e-6
            g = g_shift(x1, Coupling(lam))
            lead = -lam * (math.pi / 2) * math.log(1 + x1 * x1)
            assert g == pytest.approx(lead, rel=1e-5)

    def test_shift_domain(self):
        with pytest.raises(ValueError):
            g_shift(-1.0, Coupling(1.0))

    @pytest.mark.parametrize("x1", [-1.0, math.nan, math.inf])
    def test_dressed_mass_rejects_raw_x1(self, x1):
        # dressed_mass is public and takes a bare float, not a checked Point3
        with pytest.raises(ValueError, match=re.escape(f"x1 must be finite and >= 0, got {x1!r}")):
            dressed_mass(x1, Coupling(1.0))

    def test_g2_free_at_x1_zero(self):
        for lam in (0.01, 0.5, 3.0):
            p = Point3(0, 0.7, 1.3)
            free = 1.0 / (1.0 + p.norm2)
            assert g2_exact(p, Coupling(lam)) == pytest.approx(free, rel=1e-15)

    def test_g2_value(self):
        # 1/(2 + W(e^2)) frozen from a 50-digit evaluation
        got = g2_exact(Point3(1, 1, 1), Coupling.from_z(1.0))
        assert got == pytest.approx(0.28112428130065740633, rel=1e-14)

    def test_g2_approaches_free_propagator(self):
        x = Point3(1, 2, 0.5)
        free = 1.0 / (1.0 + x.norm2)
        diffs = [abs(g2_exact(x, Coupling(lam)) - free) for lam in (1e-2, 1e-4, 1e-6)]
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 1e-6

    def test_first_order_slope(self):
        x = Point3(1, 1, 1)
        lam = 1e-6
        slope = (g2_exact(x, Coupling(lam)) - 0.25) / lam
        g1 = eval_series(perturbative_order(1), x)
        assert abs(slope - g1) / abs(g1) < 1e-5

    def test_partial_sums_consistent(self):
        x = Point3(1, 1, 1)
        lam = 0.1
        exact = g2_exact(x, Coupling(lam))
        e4 = abs(eval_partial_sum(4, x, lam) - exact)
        e8 = abs(eval_partial_sum(8, x, lam) - exact)
        assert e8 < e4
        assert e8 < 1e-6


class TestAlgebraicResidual:
    def test_trivial_at_origin(self):
        assert abs(sde_residual_algebraic(0.0, Coupling(0.3))) <= 1e-14

    @given(
        st.floats(min_value=-3.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=8.0),
    )
    @settings(max_examples=60)
    def test_residual_random(self, log10_lam, x1):
        c = Coupling(10.0**log10_lam)
        assert abs(sde_residual_algebraic(x1, c)) < 1e-11

    def test_residual_sees_a_perturbed_mass(self, monkeypatch):
        # from M >= 2 on the shift is -z*log(M) and carries any error of M
        # into the residual (below 2 it is re-solved from the fixed-point
        # equation itself), so the residual is not zero by construction
        points = [(0.01, 2.0), (0.1, 5.0), (1.0, 5.0), (10.0, 100.0), (1e3, 1e4)]
        assert all(dressed_mass(x1, Coupling(lam)) >= 2.0 for lam, x1 in points)
        masses = specialfn._masses
        monkeypatch.setattr(specialfn, "_masses", lambda x1s, c: [m * (1.0 + 1e-9) for m in masses(x1s, c)])
        for lam, x1 in points:
            assert abs(sde_residual_algebraic(x1, Coupling(lam))) > 1e-12, (lam, x1)

    def test_rounding_floor_over_domain(self):
        # 1 + x1^2 + g cancels down to M, so the residual's rounding floor
        # scales with |g|*(1 + z/M); the z term covers 1 + x1^2 + g within
        # an ulp of 1, as at lambda = 1e6, x1 = 1e-8
        eps = 2.0**-52
        rng = random.Random(11)
        points = [(10.0 ** rng.uniform(-4, 6), 10.0 ** rng.uniform(-8, 8)) for _ in range(3000)]
        for lam, x1 in points + [(1e6, 1e-8)]:
            c = Coupling(lam)
            g, _, residual = specialfn.exact_record(Point3(x1, 0.0, 0.0), c)
            floor = eps * (abs(g) * (1.0 + c.z / dressed_mass(x1, c)) + c.z)
            assert abs(residual) <= 32 * floor, (lam, x1, residual)

    def test_no_record_raises_over_the_domain(self):
        # log-uniform draws inside the Coupling and _masses domain, and three
        # points where z >> x1^2 >> 1: the residual is nan exactly where
        # 1 + x1^2 + g rounds to <= 0, and g and G2 are still returned
        rng = random.Random(7)
        points = [(10.0 ** rng.uniform(0, 300), 10.0 ** rng.uniform(-3, 150)) for _ in range(2000)]
        cancelling = [(1e25, 1e8), (1e30, 1e10), (1e200, 1e10)]
        nans = []
        for lam, x1 in points + cancelling:
            g, g2, residual = exact_record(Point3(x1, 0.0, 0.0), Coupling(lam))
            # G2 = 1/M <= 1: M >= 1 holds in binary64 too, since M carries
            # no error of order |t|*eps that could take it below 1
            assert math.isfinite(g) and 0.0 < g2 <= 1.0, (lam, x1)
            assert math.isnan(residual) == (1.0 + x1 * x1 + g <= 0.0), (lam, x1)
            if math.isnan(residual):
                nans.append((lam, x1))
        assert set(cancelling) < set(nans)


class TestExactRecords:
    """``exact_records``, one coupling row of ``exact_record``."""

    X1S = (0.0, -0.0, 1e-12, 1e-8, 1e-5, 0.3, 1.0, 30.0, 1e4, 1e8)

    def test_matches_plain_record_bit_for_bit(self):
        rng = random.Random(16)
        lams = [1e-4, 1e6, 1e300] + [10.0 ** rng.uniform(-4, 6) for _ in range(40)]
        x1s = list(self.X1S) + [10.0 ** rng.uniform(-12, 8) for _ in range(40)]
        branches = set()
        for lam in lams:
            c = Coupling(lam)
            x2, x3 = rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)
            row = exact_records(x1s, x2, x3, c)
            assert len(row) == len(x1s)
            for x1, got in zip(x1s, row):
                want = plain_exact_record(Point3(x1, x2, x3), c)
                assert [v.hex() for v in got] == [v.hex() for v in want], (lam, x1, x2, x3)
                mass = dressed_mass(x1, c)
                if mass >= 2.0:
                    branches.add("M >= 2")
                elif mass - 1.0 >= 1e-8:
                    branches.add("M < 2, d >= 1e-8")
                else:
                    tiny = x1 * x1 / (1.0 + c.z) < sys.float_info.min
                    branches.add("M < 2, subnormal d" if tiny else "M < 2, d < 1e-8")
                if x1 != 0.0:
                    t = (1.0 + x1 * x1) / c.z - math.log(c.z)
                    branches.add("t < 0" if t < 0.0 else "t >= 0")
        want = {"M >= 2", "M < 2, d >= 1e-8", "M < 2, d < 1e-8", "M < 2, subnormal d", "t < 0", "t >= 0"}
        assert branches == want

    def test_wrappers_are_one_row(self):
        c = Coupling(0.7)
        for x1 in self.X1S:
            x = Point3(x1, 0.25, 1.5)
            assert exact_record(x, c) == exact_records((x1,), 0.25, 1.5, c)[0]
            assert dressed_mass(x1, c) == specialfn._masses((x1,), c)[0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_x1_raises_dressed_mass_message(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"x1 must be finite and >= 0, got {bad!r}")):
            exact_records([0.5, bad, 2.0], 0.5, 0.5, Coupling(1.0))

    @pytest.mark.parametrize("x2, x3, name", [(-1.0, 0.5, "x2"), (0.5, math.nan, "x3"), (0.5, math.inf, "x3")])
    def test_bad_transverse_raises_point3_message(self, x2, x3, name):
        bad = x2 if name == "x2" else x3
        with pytest.raises(ValueError, match=re.escape(f"momentum component {name}={bad!r} must be finite and >= 0")):
            exact_records([0.5, 1.0], x2, x3, Coupling(1.0))

    def test_mass_overflow_names_first_x1_and_keeps_earlier_rows(self):
        # at lambda = 1e-300, (1+x1^2)/z first overflows at x1 = 1e5, and
        # again at 1e100; the rows of the earlier couplings are whole
        x1s = [1.0, 1e5, 1e100]
        rows = {}
        message = "(1+x1^2)/z must be finite, got x1=100000.0, lambda=1e-300"
        with pytest.raises(ValueError, match=re.escape(message)):
            for lam in (1.0, 0.5, 1e-300):
                rows[lam] = exact_records(x1s, 0.5, 0.5, Coupling(lam))
        assert list(rows) == [1.0, 0.5]
        for lam, row in rows.items():
            assert row == [exact_record(Point3(x1, 0.5, 0.5), Coupling(lam)) for x1 in x1s]

    def test_empty_row(self):
        assert exact_records([], 0.5, 0.5, Coupling(1.0)) == []

    def test_generator_is_read_once(self):
        c = Coupling(3.0)
        want = exact_records(list(self.X1S), 0.5, 0.25, c)
        assert exact_records((x1 for x1 in self.X1S), 0.5, 0.25, c) == want


class TestRelativeAccuracy:
    """g and G2 against a 40-digit oracle over the validated domain.

    Adds a relative bound to the absolute 1e-12 residual checks above.
    """

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = random.Random(6)
        worst_g = worst_g2 = 0.0
        with mp.workdps(40):
            for _ in range(1000):
                lam, x1 = 10.0 ** rng.uniform(-4, 6), 10.0 ** rng.uniform(-8, 8)
                x2, x3 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
                z, a = mp.pi / 2 * lam, 1 + mp.mpf(x1) ** 2
                mass = z * mp.lambertw(mp.exp(a / z - mp.log(z))).real
                g, g2 = mass - a, 1 / (mass + mp.mpf(x2) ** 2 + mp.mpf(x3) ** 2)
                c = Coupling(lam)
                worst_g = max(worst_g, float(abs(g_shift(x1, c) / g - 1)))
                worst_g2 = max(worst_g2, float(abs(g2_exact(Point3(x1, x2, x3), c) / g2 - 1)))
        assert worst_g <= 1e-13 and worst_g2 <= 1e-13, (worst_g, worst_g2)

    def test_x1_zero(self):
        # g vanishes there, so it is checked absolutely
        for lam in (1e-4, 1e-2, 1.0, 1e2, 1e6):
            c = Coupling(lam)
            assert abs(g_shift(0.0, c)) <= 1e-13
            assert g2_exact(Point3(0.0, 0.5, 2.0), c) == pytest.approx(1.0 / 5.25, rel=1e-13)


class TestMassAccuracySweep:
    """M, g and G2 over the whole domain, relative to M's condition number.

    kappa = 1 + a/(M + z), a = 1 + x1^2, is the condition number of M in a:
    the rounding of a alone moves M by eps*kappa.  The oracle is Newton on
    M + z*log(M) = a at 60 + 2*log10(1 + x1) digits (``mp_mass``).
    """

    CORNERS = [(lam, x1) for lam in (1e-4, 1.0, 1e150, 1e300) for x1 in (0.0, 1e-9, 1e-8, 1.0, 1e150)]
    # where the old mass lost 255 eps and the old g 2.7e-10 (relative)
    CORNERS += [(7.6e250, 5.8e11), (7.1e299, 1.6e-8)]

    def points(self):
        rng = random.Random(27)
        points = [(10.0 ** rng.uniform(-4, 300), 10.0 ** rng.uniform(-9, 150)) for _ in range(1300)]
        points += [(10.0 ** rng.uniform(-4, 300), 0.0) for _ in range(20)]
        return [(lam, x1) for lam, x1 in points + self.CORNERS if (1.0 + x1 * x1) / Coupling(lam).z < math.inf]

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        eps = 2.0**-52
        rng = random.Random(28)
        worst = {"M": (0.0, ()), "g": (0.0, ()), "G2": (0.0, ())}
        regions = set()
        for lam, x1 in self.points():
            c = Coupling(lam)
            x2, x3 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            mass = dressed_mass(x1, c)
            g, g2, _ = exact_record(Point3(x1, x2, x3), c)
            if x1 == 0.0:
                assert mass == 1.0 and g == 0.0 and math.copysign(1.0, g) == 1.0, lam
                continue
            regions.add("t < 0" if (1.0 + x1 * x1) / c.z < math.log(c.z) else "t >= 0")
            regions.add("M >= 2" if mass >= 2.0 else "M < 2")
            ref, a, z = mp_mass(mp, lam, x1)
            with mp.workdps(mass_digits(x1)):
                kappa = float(1 + a / (ref + z))
                errs = {
                    "M": abs(mass / ref - 1),
                    "g": abs(g / (ref - a) - 1),
                    "G2": abs(g2 * (ref + mp.mpf(x2) ** 2 + mp.mpf(x3) ** 2) - 1),
                }
                for name, err in errs.items():
                    worst[name] = max(worst[name], (float(err) / (eps * kappa), (lam, x1)))
        assert regions == {"t < 0", "t >= 0", "M >= 2", "M < 2"}
        assert worst["M"][0] <= 2.0 and worst["G2"][0] <= 2.0 and worst["g"][0] <= 4.0, worst

    def test_masses_match_the_paper_lambert_form(self):
        # the paper's M = z*W(e^(a/z)/z) through lambert_w0, wherever that
        # argument is a finite normal double
        eps = 2.0**-52
        rng = random.Random(29)
        checked = 0
        for _ in range(3000):
            c, x1 = Coupling(10.0 ** rng.uniform(-4, 300)), 10.0 ** rng.uniform(-9, 150)
            ratio = (1.0 + x1 * x1) / c.z
            y = math.exp(ratio) / c.z if ratio < 709.0 else math.inf
            if not sys.float_info.min <= y < math.inf:
                continue
            checked += 1
            mass, paper = specialfn._masses([x1], c)[0], c.z * lambert_w0(y)
            kappa = 1.0 + (1.0 + x1 * x1) / (mass + c.z)
            assert abs(mass / paper - 1) <= 2 * eps * (kappa + 1.0), (c.lam, x1)
        assert checked > 1000


"""Aggregated verification suites behind the ``verify`` CLI command.

Each suite returns a list of named checks; informational lines (like the
printed-form status of identities known to disagree with their own
derivation) carry ``passed=None`` and never fail a suite.  Each check
imports the layers it reads when it runs, so a suite loads only its own
(the load rule in ``cli``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

from .errors import NotConvergedError, ShapeMismatchError, _record

if TYPE_CHECKING:
    from . import specialfn


@_record
class Check:
    name: str
    passed: Optional[bool]  # None marks an informational line
    detail: str = ""

    def line(self) -> str:
        tag = "INFO" if self.passed is None else ("PASS" if self.passed else "FAIL")
        return f"[{tag}] {self.name}" + (f": {self.detail}" if self.detail else "")


def orders_match_closed_form(max_order: int) -> List[Check]:
    """Recursion vs closed form, exactly, for orders 1..max_order.

    Both routes hold order n as a denominator D and integer columns, each
    reduced by one gcd, so equal tuples are equal orders.
    """
    from . import series

    checks: List[Check] = []
    for n in range(1, max_order + 1):
        same = series._order(n) == series._ansatz(n)
        detail = "exact term multisets" if same else "term mismatch"
        checks.append(Check(f"order {n}: recursion equals closed form", same, detail))
    return checks


def coefficient_routes_agree(max_order: int) -> List[Check]:
    """Extracted vs closed-form vs recurrence a(n,k,m), for orders 2..max_order.

    The row extracted from order n's columns holds num/D, and each route's
    columns B = k! a, so every entry agrees when num k! == D B for both.
    A row that does not fit the closed form's shape fails its order.
    """
    from . import combinatorics as comb, series

    routes = [comb._columns(max_order, row) for row in (comb._closed_row, comb._recur_row)]
    f = comb._factorials(max_order)
    checks: List[Check] = []
    for n in range(2, max_order + 1):
        name = f"order {n}: extracted = closed = recurrence coefficients"
        den, cols = series._order(n)
        try:
            row = series._extract(n, series._terms(n, cols), den)
        except ShapeMismatchError as exc:
            checks.append(Check(name, False, str(exc)))
            continue
        ok = all(
            row.get((k, m), 0) * f[k] == den * col[k][m][n]
            for col in routes
            for k in range(1, n)
            for m in range(1, k + 1)
        )
        checks.append(Check(name, ok, f"{len(row)} entries"))
    return checks


def suite_coeffs() -> List[Check]:
    return orders_match_closed_form(_MAX_ORDER) + coefficient_routes_agree(_MAX_ORDER)


def _exact_check(name: str, results: Mapping[tuple, tuple]) -> Check:
    """PASS when every derived identity holds; FAIL names the first failing indices.

    ``results`` maps each index to its (derived, printed) integer sides.
    """
    bad = [index for index, ((lhs, rhs, _), _) in results.items() if lhs != rhs]
    return Check(name, not bad, "exact" if not bad else f"fails at {bad[:3]}")


def _bounded(name: str, worst: float, bound: float) -> Check:
    """PASS when the worst measured value lies below its bound."""
    return Check(name, worst < bound, f"worst {worst:.2e}")


def suite_identities() -> List[Check]:
    # the sides of each identity as integers over one denominator, from its
    # core comb._*_sides, so no Fraction is made
    from . import combinatorics as comb

    harmonics = {(n, k): comb._harmonic_sides(n, k) for n in range(1, _MAX_N + 1) for k in range(1, n + 1)}
    stirling = {(n, k): comb._stirling_621_sides(n, k) for n in range(4, _MAX_N + 1) for k in range(1, n - 2)}
    big = {
        (n, k, m): comb._big_stirling_sides(n, k, m)
        for n in range(5, _MAX_N_BIG + 1)
        for k in range(2, n - 2)
        for m in range(2, k + 1)
    }

    checks = [
        _exact_check(f"harmonic identity, all 1 <= k <= n <= {_MAX_N}", harmonics),
        _exact_check(f"Stirling sum identity (corrected form), 4 <= n <= {_MAX_N}", stirling),
    ]
    printed_bad = [(index, printed) for index, (_, printed) in stirling.items() if printed[0] != printed[1]]
    if printed_bad:
        (n, k), (lhs, rhs, den) = printed_bad[0]
        checks.append(
            Check(
                "Stirling sum identity as printed",
                None,
                f"disagrees at {len(printed_bad)} indices; first (n,k)=({n},{k}): "
                f"{comb._ratio_str(lhs, den)} vs {comb._ratio_str(rhs, den)}",
            )
        )
    checks.append(_exact_check(f"generic recurrence on coefficient values, n <= {_MAX_N_BIG}", big))
    printed_big = sum(lhs == rhs for _, (lhs, rhs, _) in big.values())
    checks.append(
        Check("big Stirling identity as printed", None, f"matches at {printed_big}/{len(big)} generic indices")
    )
    return checks


def suite_lambert() -> List[Check]:
    from . import specialfn

    worst_w0 = 0.0
    grid = [-0.99 / math.e + i * (0.99 / math.e - 0.01) / 19 for i in range(20)]
    grid += [10.0 ** (-2 + 10 * i / 50) for i in range(51)]
    for w in grid:
        if w <= 700.0:
            got = specialfn.lambert_w0(w * math.exp(w))
        else:
            # w*e^w overflows binary64; same code path, argument in log space
            got = specialfn.wright_omega(w + math.log(w))
        worst_w0 = max(worst_w0, abs(got - w) / (1.0 + abs(w)))

    worst_wm1 = 0.0
    for y in [-1.0 / math.e + 1e-12, -0.36, -0.3, -0.2, -0.1, -0.05, -1e-3, -1e-6, -1e-8]:
        w = specialfn.lambert_wm1(y)
        worst_wm1 = max(worst_wm1, abs(w * math.exp(w) - y) / abs(y))

    worst_omega = 0.0
    tgrid = [-10.0, -2.0, -1.0, -0.5, 0.0, 1.0, 2.0, 10.0, 100.0, 709.0, 800.0, 1300.0, 1e4, 1e5, 1e6]
    for t in tgrid:
        om = specialfn.wright_omega(t)
        worst_omega = max(worst_omega, abs(om + math.log(om) - t) / (1.0 + abs(t)))

    return [
        _bounded("principal branch round trip on [-0.99/e, 1e8]", worst_w0, 1e-13),
        _bounded("secondary branch defining residual on [-1/e, 0)", worst_wm1, 1e-13),
        _bounded("omega defining residual up to t = 1e6 (incl. exp overflow range)", worst_omega, 1e-12),
    ]


# the ranges each suite runs: orders 1..9 (coeffs), identities to n = 20
# and the big Stirling identity to n = 12 (identities), and the sde grid
_MAX_ORDER, _MAX_N, _MAX_N_BIG = 9, 20, 12
_SDE_LAMBDAS = (0.01, 0.1, 1.0, 10.0)
_SDE_X1S = (0.0, 0.5, 1.0, 2.0, 5.0)


def fixed_point_algebraic(lams: Sequence[float], x1s: Sequence[float]) -> List[Check]:
    """Algebraic fixed-point residual of the exact solution over a (lambda, x1) grid.

    The 1e-12 bound is absolute, so a large z fails it falsely: 6.15e-09
    at lambda = 1e6, x1 = 10, at any tol (ROADMAP.md, "Checks that state
    their own error budget").  A nan
    residual (its log argument rounded to <= 0) is the worst and fails.
    """
    from . import specialfn

    rows = [specialfn.exact_records(x1s, 0.0, 0.0, specialfn.Coupling(lv)) for lv in lams]
    residuals = [abs(residual) for row in rows for _, _, residual in row]
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)  # max may drop a nan
    return [_bounded("algebraic fixed-point residual < 1e-12 on grid", worst, 1e-12)]


def fixed_point_numeric(lam: float, x: specialfn.Point3, tol: float) -> List[Check]:
    """Quadrature residuals of the SDE and of its integrated identity at one point.

    The SDE residual scales the quadrature error by about 2*lambda*G2^2
    (8.9e5 at lambda = 1e6, x = (10, 0.5, 0.5)) but is held to an absolute
    1e-6 (ROADMAP.md, "Checks that state their own error budget").  It
    passes there at tol 1e-8 (4.59e-10) only because the radial
    quadrature's actual error lies far below its tol; a residual bound
    scaled by that factor is still to come.
    """
    from . import quadrature, specialfn

    sde_name = f"numeric SDE residual at lambda={lam}, x=({x.x1},{x.x2},{x.x3})"
    identity_name = f"integrated-identity residual at lambda={lam}, x1={x.x1}"
    try:
        sde, identity = quadrature.fixed_point_residuals(x, specialfn.Coupling(lam), abs_tol=tol)
    except NotConvergedError as exc:
        detail = f"not converged: {exc}"
        return [Check(sde_name, False, detail), Check(identity_name, False, detail)]
    return [
        Check(sde_name, abs(sde) < 1e-6, f"residual {sde:.2e} at abs_tol {tol:g}, converged"),
        Check(identity_name, abs(identity) < 1e-6, f"residual {identity:.2e}, converged"),
    ]


def suite_sde(lam: Optional[float], x: Optional[specialfn.Point3], tol: float, numeric: bool) -> List[Check]:
    from . import specialfn

    checks = fixed_point_algebraic(
        _SDE_LAMBDAS if lam is None else (lam,), _SDE_X1S if x is None else (x.x1,)
    )
    if numeric:
        x_n = specialfn.Point3(1.0, 0.5, 0.5) if x is None else x
        checks += fixed_point_numeric(0.5 if lam is None else lam, x_n, tol)
    return checks


def suite_greens() -> List[Check]:
    from . import greens, specialfn

    c = specialfn.Coupling(0.4)
    p = specialfn.Point3(1.0, 0.5, 2.0)
    single = greens.connected_2k(greens.PointTuple((p,)), c)
    pts = greens.PointTuple((specialfn.Point3(1.0, 2.0, 3.0), specialfn.Point3(2.0, 1.0, 1.0)))
    ratios = [greens.connected_2k(pts, specialfn.Coupling(lv)) / lv for lv in (1e-4, 1e-5)]
    rel = abs(ratios[0] - ratios[1]) / abs(ratios[1])
    resid = greens.disconnected_4pt_residual(p, specialfn.Point3(2.0, 1.0, 3.0), c)
    return [
        Check("2-point recursion base equals exact solution", single == specialfn.g2_exact(p, c)),
        Check("4-point value scales linearly in the coupling", rel < 5e-3, f"slope drift {rel:.2e}"),
        Check("disconnected 4-point self-check", resid == 0.0, f"residual {resid!r}"),
    ]

"""Adaptive 2-D quadrature over the quarter plane [0, inf)^2.

Each semi-infinite axis is mapped to the unit interval with the rational
map q = u/(1-u); the integral is then done with product 8-point
Gauss-Legendre rules under dyadic adaptive refinement.  A panel's value
is the sum of the rules on its four half-size quarters, and its error
estimate is the difference from the single rule on the whole panel.  The
worst panel is split until the summed estimate meets the tolerance or
the evaluation budget runs out.

The rules are batched: each split of the worst panel evaluates the 16
quarter rules of its four children in one call of the integrand on a
(16, 8, 8) array of nodes, and each rule is summed as its own 64-point
row.  A child's single rule is never evaluated again: its rectangle is
one of the parent's quarters, whose rule values the panel carries on the
heap.  Only the initial panels need their own single rule; all of them
and their quarters are done in one further call.

Integrands are called as f(q2, q3) with broadcastable numpy arrays and
must decay at least like |q|^-4 (after any subtraction, which therefore
has to happen inside the integrand, never as a difference of divergent
integrals).  Tail correctness is checked by comparing the integral
restricted to q <= Q against q <= 2Q for an intermediate cutoff Q; the
initial panel grid is aligned with both cutoffs so the restricted sums
are exact panel aggregates.

The map, breakpoints and cutoffs suit integrands that vary on the length
scale 1.  The Schwinger-Dyson integrand 1/(M + q^2) - 1/(1 + q^2), with
the dressed mass M, varies on the scale sqrt(M), so it is integrated in
p = q/sqrt(M); in q its far-field mass ~ (M-1)/q^4 would fall in a few
wide panels whose two rules agree and are both wrong.

Everything is evaluated in a fixed order, so results are deterministic
for a given (integrand, tolerance, budget).

numpy is imported, and the Gauss nodes and weights are computed, on the
first rule evaluated, so importing melontft does not load numpy.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, List, Sequence, Tuple

from .errors import NotConvergedError
from .specialfn import Coupling, Point3, dressed_mass, g2_from_mass

__all__ = [
    "QuadResult",
    "integrate_quarter_plane",
    "fixed_point_residuals",
    "sde_residual_numeric",
    "integrated_identity_residual",
]

_RULE_EVALS = 64  # integrand points per product rule, 8 x 8 Gauss nodes
# a split evaluates the four quarter rules of each of the four children
_SPLIT_EVALS = 16 * _RULE_EVALS

# intermediate tail cutoffs Q = 1e5 and 2Q, mapped to the unit interval
_U_CUT = 1.0e5 / (1.0 + 1.0e5)
_U_CUT2 = 2.0e5 / (1.0 + 2.0e5)

Rect = Tuple[float, float, float, float]  # (a, b, c, d) = [a, b] x [c, d] in (u, v)


@cache
def _gauss_rule():
    import numpy as np

    return np.polynomial.legendre.leggauss(8)


def _map_rational(u):
    w = 1.0 - u
    return u / w, 1.0 / (w * w)


@dataclass(frozen=True)
class QuadResult:
    """Outcome of one adaptive integral, with what it took to get there.

    ``panels`` counts the final panels, ``stuck_panels`` those too thin
    to split further.  ``inside_cut`` and ``inside_cut2`` are the panel
    sums restricted to q2, q3 <= 1e5 and <= 2e5, which the tail check
    compares with each other and with ``value``.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    panels: int
    stuck_panels: int
    inside_cut: float
    inside_cut2: float


def _quarters(a: float, b: float, c: float, d: float) -> Tuple[Rect, Rect, Rect, Rect]:
    mu, mv = 0.5 * (a + b), 0.5 * (c + d)
    return (a, mu, c, mv), (mu, b, c, mv), (a, mu, mv, d), (mu, b, mv, d)


def _rules(f: Callable, rects: Sequence[Rect]) -> List[float]:
    """Product Gauss-Legendre on each (u, v) rectangle, one integrand call."""
    import numpy as np

    nodes, weights = _gauss_rule()
    a, b, c, d = np.array(rects).T
    u = 0.5 * (b - a)[:, None] * nodes + 0.5 * (a + b)[:, None]
    v = 0.5 * (d - c)[:, None] * nodes + 0.5 * (c + d)[:, None]
    qu, ju = _map_rational(u)
    qv, jv = _map_rational(v)
    vals = f(qu[:, :, None], qv[:, None, :]) * (ju * weights)[:, :, None] * (jv * weights)[:, None, :]
    return (vals.reshape(len(rects), -1).sum(axis=1) * 0.25 * (b - a) * (d - c)).tolist()


def integrate_quarter_plane(
    f: Callable,
    abs_tol: float = 1.0e-8,
    max_evals: int = 10_000_000,
) -> QuadResult:
    """Integrate f(q2, q3) over the quarter plane to absolute tolerance.

    ``max_evals`` bounds the integrand points evaluated; it must cover
    the initial panel grid.
    """
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol}")

    breaks = sorted({0.0, 0.25, 0.5, 0.75, _U_CUT, _U_CUT2, 1.0})
    edges = list(zip(breaks[:-1], breaks[1:]))
    initial = [(a, b, c, d) for a, b in edges for c, d in edges]
    # each initial panel needs its single rule besides its four quarters
    rects = [r for panel in initial for r in (panel, *_quarters(*panel))]
    if max_evals < len(rects) * _RULE_EVALS:
        raise ValueError(f"max_evals must be >= {len(rects) * _RULE_EVALS}, the initial panels' cost")

    heap = []  # (-err, counter, rect, value, quarter rule values)
    counter = itertools.count()

    def push(rect: Rect, coarse: float, quarters: List[float]) -> float:
        value = quarters[0] + quarters[1] + quarters[2] + quarters[3]
        err = abs(value - coarse)
        heapq.heappush(heap, (-err, next(counter), rect, value, quarters))
        return err

    values = _rules(f, rects)
    evals = len(rects) * _RULE_EVALS
    total_err = 0.0
    for i, panel in enumerate(initial):
        total_err += push(panel, values[5 * i], values[5 * i + 1 : 5 * i + 5])

    stuck = []  # (rect, value) of panels too thin to split further
    while total_err > abs_tol and heap and evals + _SPLIT_EVALS <= max_evals:
        neg_err, _, rect, value, quarters = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err
        a, b, c, d = rect
        if b - a < 1e-13 or d - c < 1e-13:
            # too thin to split; keep its error counted but stop refining it
            stuck.append((rect, value))
            total_err -= neg_err
            continue
        children = _quarters(a, b, c, d)
        values = _rules(f, [r for child in children for r in _quarters(*child)])
        evals += _SPLIT_EVALS
        for j, child in enumerate(children):
            total_err += push(child, quarters[j], values[4 * j : 4 * j + 4])

    panels = [(rect, value) for _, _, rect, value, _ in heap] + stuck
    value = math.fsum(v for _, v in panels)
    inside_cut = math.fsum(v for (_, b, _, d), v in panels if b <= _U_CUT and d <= _U_CUT)
    inside_cut2 = math.fsum(v for (_, b, _, d), v in panels if b <= _U_CUT2 and d <= _U_CUT2)

    tail_tol = max(10.0 * abs_tol, 4.0 * total_err)
    tail_ok = (
        abs(inside_cut2 - inside_cut) <= tail_tol
        and abs(value - inside_cut2) <= tail_tol
    )
    converged = total_err <= abs_tol and tail_ok
    return QuadResult(
        value, total_err, evals, converged, len(panels), len(stuck), inside_cut, inside_cut2
    )


def _subtracted_integrand(mass: float) -> Callable:
    # G2(x1, q2, q3) - free(q2, q3) in p = q/sqrt(M), times the Jacobian M:
    # a rational function of rho^2 = p2^2 + p3^2 whose tail, about
    # -(M-1)/(M rho^4), no longer grows with M
    def f(p2, p3):
        rho2 = p2 * p2 + p3 * p3
        return 1.0 / (1.0 + rho2) - mass / (1.0 + mass * rho2)

    return f


def fixed_point_residuals(
    x: Point3, coupling: Coupling, abs_tol: float = 1.0e-8
) -> Tuple[float, float]:
    """Both quadrature residuals at x from one transverse integral.

    Returns (SDE residual, integrated-identity residual), as computed by
    ``sde_residual_numeric`` and ``integrated_identity_residual``.  The
    integral depends on x1 and the coupling only, through the dressed
    mass, which is solved once.
    """
    mass = dressed_mass(x.x1, coupling)
    res = integrate_quarter_plane(_subtracted_integrand(mass), abs_tol)
    if not res.converged:
        raise NotConvergedError(
            f"transverse quadrature did not converge at x1={x.x1}, lambda={coupling.lam}",
            result=res,
        )
    sde = g2_from_mass(mass, x.x2, x.x3) - 1.0 / (1.0 + x.norm2 + 2.0 * coupling.lam * res.value)
    return sde, res.value + 0.25 * math.pi * math.log(mass)


def sde_residual_numeric(x: Point3, coupling: Coupling, abs_tol: float = 1.0e-8) -> float:
    """Exact solution minus the quadrature-evaluated SDE right-hand side.

    The right-hand side is (1+|x|^2 + 2*lambda*I)^{-1} with I the
    subtracted transverse integral of the exact 2-point function itself;
    small residuals certify the fixed point with an integration routine
    that knows nothing about Lambert functions.
    """
    return fixed_point_residuals(x, coupling, abs_tol)[0]


def integrated_identity_residual(
    x1: float, coupling: Coupling, abs_tol: float = 1.0e-8
) -> float:
    """Quadrature minus closed form for the integrated solution.

    The subtracted transverse integral of the exact 2-point function
    equals -(pi/4) log(1+x1^2+g) in closed form.
    """
    return fixed_point_residuals(Point3(x1, 0.0, 0.0), coupling, abs_tol)[1]

"""Adaptive quadrature of transverse integrals over the quarter plane [0, inf)^2.

Every transverse integrand the model produces is a function of
rho^2 = q2^2 + q3^2 alone: the self-energy depends on x1 only, so the
Schwinger-Dyson equation closes on such integrands.  The integrand is
therefore passed as f(rho2), one function of one Python float rho2 >= 0,
and its quarter-plane integral is one radial integral,

    int_0^inf int_0^inf f(q2^2 + q3^2) dq2 dq3 = (pi/2) int_0^inf f(rho^2) rho drho.

The semi-infinite axis is mapped to the unit interval with the rational
map rho = u/(1-u), and the integral is done with 8-point Gauss-Legendre
rules, written out as literal nodes and weights, under dyadic adaptive
refinement.  A panel's value is the sum of the rules on its two halves,
and its error estimate is the difference from the single rule on the
whole panel.  The worst panel is split until the summed estimate meets
the tolerance or the evaluation budget runs out.  A child's single rule
is never evaluated again: it is one of the parent's halves, whose rule
values the panel carries on the heap.

Integrands must decay at least like |q|^-4 (after any subtraction, which
therefore has to happen inside the integrand, never as a difference of
divergent integrals).  Tail correctness is checked by comparing the
integral restricted to rho <= R against rho <= 2R for an intermediate
cutoff R; the initial panels are aligned with both cutoffs so the
restricted sums are exact panel aggregates.

The map, breakpoints and cutoffs suit integrands that vary on the length
scale 1.  The Schwinger-Dyson integrand 1/(M + q^2) - 1/(1 + q^2), with
the dressed mass M, varies on the scale sqrt(M), so it is integrated in
p = q/sqrt(M); in q its far-field mass ~ (M-1)/q^4 would fall in a few
wide panels whose two rules agree and are both wrong.

Everything is evaluated in a fixed order, so results are deterministic
for a given (integrand, tolerance).  The module is pure Python.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Tuple

from .errors import NotConvergedError, _check_abs_tol, _record
from .specialfn import Coupling, Point3, dressed_mass, g2_from_mass

# the 8-point Gauss-Legendre rule on [-1, 1], nodes ascending: the
# correctly rounded binary64 values
_NODES = (
    -0.9602898564975363, -0.7966664774136267, -0.525532409916329, -0.1834346424956498,
    0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363,
)
_WEIGHTS = (
    0.10122853629037626, 0.22238103445337448, 0.31370664587788727, 0.362683783378362,
    0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626,
)
# breakpoints in u: three unit-scale panels, then the tail cut at the
# intermediate cutoffs R = 1e5 and 2R
_U_CUT = 1.0e5 / (1.0 + 1.0e5)
_U_CUT2 = 2.0e5 / (1.0 + 2.0e5)
_BREAKS = (0.0, 0.25, 0.5, 0.75, _U_CUT, _U_CUT2, 1.0)
# an initial panel evaluates its own rule and its two halves'; a split
# evaluates the two halves of each of its two children
_INITIAL_EVALS = (len(_BREAKS) - 1) * 3 * len(_NODES)
_SPLIT_EVALS = 4 * len(_NODES)
# the budget of integrand points per integral; refinement stops before a
# split would pass it
_MAX_EVALS = 1_000_000


def _rule(f: Callable, a: float, b: float) -> float:
    """Gauss-Legendre on [a, b] in u of (pi/2) f(rho^2) rho, rho = u/(1-u)."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    total = 0.0
    for x, w in zip(_NODES, _WEIGHTS):
        u = mid + half * x
        v = 1.0 - u
        rho = u / v
        total += w * rho * f(rho * rho) / (v * v)
    return 0.5 * math.pi * half * total


@_record
class QuadResult:
    """Outcome of one adaptive integral, with what it took to get there.

    ``panels`` counts the final radial panels, ``stuck_panels`` those
    too thin to split further.  ``inside_cut`` and ``inside_cut2`` are
    the panel sums restricted to the quarter discs |q| <= 1e5 and
    <= 2e5, which the tail check compares with each other and with
    ``value``.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    panels: int
    stuck_panels: int
    inside_cut: float
    inside_cut2: float


def integrate_quarter_plane(f: Callable, abs_tol: float) -> QuadResult:
    """Integrate f(q2^2 + q3^2) over the quarter plane to absolute tolerance.

    ``f`` takes one Python float, rho2 = q2^2 + q3^2 >= 0 (module
    docstring).  The initial panels evaluate 144 points; a panel is then
    split only while the total stays within ``_MAX_EVALS`` points.
    """
    _check_abs_tol(abs_tol)

    heap = []  # (-err, counter, a, b, value, (left half rule, right half rule))
    counter = itertools.count()

    def push(a: float, b: float, coarse: float) -> float:
        mid = 0.5 * (a + b)
        halves = (_rule(f, a, mid), _rule(f, mid, b))
        value = halves[0] + halves[1]
        err = abs(value - coarse)
        heapq.heappush(heap, (-err, next(counter), a, b, value, halves))
        return err

    total_err = 0.0
    for a, b in zip(_BREAKS, _BREAKS[1:]):
        total_err += push(a, b, _rule(f, a, b))
    evals = _INITIAL_EVALS

    stuck = []  # (b, value) of panels too thin to split further
    while total_err > abs_tol and heap and evals + _SPLIT_EVALS <= _MAX_EVALS:
        neg_err, _, a, b, value, halves = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err
        if b - a < 1e-13 * b:
            # too thin for its place in u to split; keep its error counted but stop refining it
            stuck.append((b, value))
            total_err -= neg_err
            continue
        mid = 0.5 * (a + b)
        total_err += push(a, mid, halves[0])
        total_err += push(mid, b, halves[1])
        evals += _SPLIT_EVALS

    panels = [(b, value) for _, _, _, b, value, _ in heap] + stuck
    value = math.fsum(v for _, v in panels)
    inside_cut = math.fsum(v for b, v in panels if b <= _U_CUT)
    inside_cut2 = math.fsum(v for b, v in panels if b <= _U_CUT2)

    tail_tol = max(10.0 * abs_tol, 4.0 * total_err)
    tail_ok = abs(inside_cut2 - inside_cut) <= tail_tol and abs(value - inside_cut2) <= tail_tol
    converged = total_err <= abs_tol and tail_ok
    return QuadResult(
        value, total_err, evals, converged, len(panels), len(stuck), inside_cut, inside_cut2
    )


def _subtracted_integrand(mass: float) -> Callable:
    # G2(x1, q2, q3) - free(q2, q3) in p = q/sqrt(M), times the Jacobian M:
    # a rational function of rho2 = p2^2 + p3^2 whose tail, about
    # -(M-1)/(M rho2^2), no longer grows with M; the free term as 1/(1/M + rho2),
    # since M/(1 + M rho2) overflows to 0 once M rho2 passes 1.8e308
    inv = 1.0 / mass

    def f(rho2):
        return 1.0 / (1.0 + rho2) - 1.0 / (inv + rho2)

    return f


def fixed_point_residuals(x: Point3, coupling: Coupling, abs_tol: float) -> Tuple[float, float]:
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


def integrated_identity_residual(x1: float, coupling: Coupling, abs_tol: float) -> float:
    """Quadrature minus closed form for the integrated solution.

    The subtracted transverse integral of the exact 2-point function
    equals -(pi/4) log(1+x1^2+g) in closed form.
    """
    return fixed_point_residuals(Point3(x1, 0.0, 0.0), coupling, abs_tol)[1]

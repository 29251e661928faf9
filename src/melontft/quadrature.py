"""Adaptive 2-D quadrature over the quarter plane [0, inf)^2.

Each semi-infinite axis is mapped to the unit interval with the rational
map q = u/(1-u); the integral is then done with product 8-point
Gauss-Legendre panels under dyadic adaptive refinement.  A panel's error
is estimated by comparing the single-panel rule against the sum of its
four half-size subpanels, and the worst panel is split until the summed
estimate meets the tolerance or the evaluation budget runs out.

Integrands are called as f(q2, q3) with broadcastable numpy arrays and
must decay at least like |q|^-4 (after any subtraction, which therefore
has to happen inside the integrand, never as a difference of divergent
integrals).  Tail correctness is checked by comparing the integral
restricted to q <= Q against q <= 2Q for an intermediate cutoff Q; the
initial panel grid is aligned with both cutoffs so the restricted sums
are exact panel aggregates.

Everything is evaluated in a fixed order, so results are deterministic
for a given (integrand, tolerance, budget).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import NotConvergedError
from .specialfn import Coupling, Point3, g2_exact, g_shift

__all__ = [
    "QuadResult",
    "integrate_quarter_plane",
    "fixed_point_residuals",
    "sde_residual_numeric",
    "integrated_identity_residual",
]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)

# intermediate tail cutoffs Q = 1e5 and 2Q, mapped to the unit interval
_U_CUT = 1.0e5 / (1.0 + 1.0e5)
_U_CUT2 = 2.0e5 / (1.0 + 2.0e5)


def _map_rational(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    w = 1.0 - u
    return u / w, 1.0 / (w * w)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _panel_rule(f: Callable, a: float, b: float, c: float, d: float) -> float:
    """Product Gauss-Legendre on one (u, v) rectangle."""
    u = 0.5 * (b - a) * _NODES + 0.5 * (a + b)
    v = 0.5 * (d - c) * _NODES + 0.5 * (c + d)
    qu, ju = _map_rational(u)
    qv, jv = _map_rational(v)
    vals = f(qu[:, None], qv[None, :]) * (ju * _WEIGHTS)[:, None] * (jv * _WEIGHTS)[None, :]
    return float(np.sum(vals)) * 0.25 * (b - a) * (d - c)


def _refined_panel(f, a, b, c, d) -> Tuple[float, float, int]:
    """Panel value from 2x2 subpanels plus a coarse-vs-fine error estimate."""
    coarse = _panel_rule(f, a, b, c, d)
    mu, mv = 0.5 * (a + b), 0.5 * (c + d)
    fine = (
        _panel_rule(f, a, mu, c, mv)
        + _panel_rule(f, mu, b, c, mv)
        + _panel_rule(f, a, mu, mv, d)
        + _panel_rule(f, mu, b, mv, d)
    )
    return fine, abs(fine - coarse), 5 * _NODES.size**2


def integrate_quarter_plane(
    f: Callable,
    abs_tol: float = 1.0e-8,
    max_evals: int = 10_000_000,
) -> QuadResult:
    """Integrate f(q2, q3) over the quarter plane to absolute tolerance."""
    if abs_tol <= 0:
        raise ValueError("abs_tol must be > 0")

    breaks = sorted({0.0, 0.25, 0.5, 0.75, _U_CUT, _U_CUT2, 1.0})
    edges = list(zip(breaks[:-1], breaks[1:]))

    evals = 0
    counter = 0
    heap = []  # (-err, counter, a, b, c, d, value)
    total_err = 0.0
    for a, b in edges:
        for c, d in edges:
            value, err, cost = _refined_panel(f, a, b, c, d)
            evals += cost
            heapq.heappush(heap, (-err, counter, a, b, c, d, value))
            counter += 1
            total_err += err

    stuck = []  # panels too thin to split further
    while total_err > abs_tol and heap and evals + 4 * 5 * _NODES.size**2 <= max_evals:
        neg_err, _, a, b, c, d, value = heapq.heappop(heap)
        total_err += neg_err  # neg_err = -err
        if b - a < 1e-13 or d - c < 1e-13:
            # too thin to split; keep its error counted but stop refining it
            stuck.append((-neg_err, a, b, c, d, value))
            total_err -= neg_err
            continue
        mu, mv = 0.5 * (a + b), 0.5 * (c + d)
        for aa, bb, cc, dd in (
            (a, mu, c, mv),
            (mu, b, c, mv),
            (a, mu, mv, d),
            (mu, b, mv, d),
        ):
            value, err, cost = _refined_panel(f, aa, bb, cc, dd)
            evals += cost
            heapq.heappush(heap, (-err, counter, aa, bb, cc, dd, value))
            counter += 1
            total_err += err

    panels = [(a, b, c, d, value) for (neg, _, a, b, c, d, value) in heap]
    panels += [(a, b, c, d, value) for (err, a, b, c, d, value) in stuck]
    panels.sort()
    value = math.fsum(p[4] for p in panels)
    inside_cut = math.fsum(p[4] for p in panels if p[1] <= _U_CUT and p[3] <= _U_CUT)
    inside_cut2 = math.fsum(p[4] for p in panels if p[1] <= _U_CUT2 and p[3] <= _U_CUT2)

    tail_tol = max(10.0 * abs_tol, 4.0 * total_err)
    tail_ok = (
        abs(inside_cut2 - inside_cut) <= tail_tol
        and abs(value - inside_cut2) <= tail_tol
    )
    converged = total_err <= abs_tol and tail_ok
    return QuadResult(value, total_err, evals, converged)


def _subtracted_integrand(x1: float, coupling: Coupling) -> Callable:
    # G2(x1, q2, q3) - free(q2, q3); the shift g depends on x1 only, so the
    # integrand is an explicit rational function of rho^2 = q2^2 + q3^2
    c1 = 1.0 + x1 * x1 + g_shift(x1, coupling)

    def f(q2, q3):
        rho2 = q2 * q2 + q3 * q3
        return 1.0 / (c1 + rho2) - 1.0 / (1.0 + rho2)

    return f


def fixed_point_residuals(
    x: Point3, coupling: Coupling, abs_tol: float = 1.0e-8
) -> Tuple[float, float]:
    """Both quadrature residuals at x from one transverse integral.

    Returns (SDE residual, integrated-identity residual), as computed by
    ``sde_residual_numeric`` and ``integrated_identity_residual``.  The
    integral depends on x1 and the coupling only.
    """
    res = integrate_quarter_plane(_subtracted_integrand(x.x1, coupling), abs_tol)
    if not res.converged:
        raise NotConvergedError(
            f"transverse quadrature did not converge at x1={x.x1}, lambda={coupling.lam}"
        )
    sde = g2_exact(x, coupling) - 1.0 / (1.0 + x.norm2 + 2.0 * coupling.lam * res.value)
    closed = -0.25 * math.pi * math.log(1.0 + x.x1 * x.x1 + g_shift(x.x1, coupling))
    return sde, res.value - closed


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

"""Seeded inputs for the benchmark workloads.

Every input a pass receives is generated here from the workload seed, with
the standard library only, so the same seed always gives the same inputs.

* ``grid``: one ``tabulate`` call on a 300 x 300 (lambda, x1) grid plus
  ``connected_2k`` on seeded tuples with k = 2..8.
* ``exact``: fixed exact-arithmetic CLI calls; the seed is unused.
* ``certify``: ``verify all``, quadrature residuals at a fixed (lambda, x1)
  design with seeded transverse momenta, and seeded partial sums.
"""

from __future__ import annotations

import math
import random

GRID_SIZE = 300
GRID_ZERO_X1 = 30  # grid x1 values that are exactly 0
CONNECTED_KS = tuple(range(2, 9))
TUPLES_PER_K = 4
PARTIAL_SUM_ORDER = 20
PARTIAL_SUM_POINTS = 48
PARTIAL_SUM_ZERO_X1 = 6
QUAD_TOLS = (1e-8, 1e-10)

# Quadrature design for ``certify``: one lambda per decade of [1e-3, 1e3],
# paired with x1 = 0 and one x1 per decade of [1e-3, 1e2].  It is fixed
# rather than drawn because a non-converging integral costs 1-5 s while a
# converging one costs about 10 ms: a random draw would move the pass time
# by whole seconds from seed to seed.  The design keeps a known defect in
# view: at tol 1e-10 the x1 = 10 point does not converge.
QUAD_DESIGN = (
    (1e-3, 0.0),
    (1e-2, 1e-3),
    (1e-1, 10.0),
    (1e0, 1e-2),
    (1e1, 1e-1),
    (1e2, 1.0),
    (1e3, 31.6),
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _x1_values(rng: random.Random, n: int, zeros: int, lo: float, hi: float) -> list:
    values = [0.0] * zeros + [_log_uniform(rng, lo, hi) for _ in range(n - zeros)]
    rng.shuffle(values)
    return values


def grid(seed: int) -> dict:
    rng = random.Random(seed)
    lams = [_log_uniform(rng, 1e-4, 1e6) for _ in range(GRID_SIZE)]
    x1s = _x1_values(rng, GRID_SIZE, GRID_ZERO_X1, 1e-6, 1e8)
    x2, x3 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
    tuples = []
    for k in CONNECTED_KS:
        for _ in range(TUPLES_PER_K):
            points = [[rng.uniform(0.0, 5.0) for _ in range(3)] for _ in range(k)]
            tuples.append({"lam": _log_uniform(rng, 1e-4, 1e6), "points": points})
    return {"lams": lams, "x1s": x1s, "x2": x2, "x3": x3, "tuples": tuples}


def exact(seed: int) -> dict:
    return {}


def certify(seed: int) -> dict:
    rng = random.Random(seed)
    quad = [
        {"lam": lam, "x": [x1, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)], "tol": tol}
        for lam, x1 in QUAD_DESIGN
        for tol in QUAD_TOLS
    ]
    x1s = _x1_values(rng, PARTIAL_SUM_POINTS, PARTIAL_SUM_ZERO_X1, 1e-3, 1e2)
    sums = [
        {"lam": _log_uniform(rng, 1e-3, 1e3), "x": [x1, rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)]}
        for x1 in x1s
    ]
    return {"quad": quad, "partial_order": PARTIAL_SUM_ORDER, "sums": sums}


WORKLOADS = {"grid": grid, "exact": exact, "certify": certify}

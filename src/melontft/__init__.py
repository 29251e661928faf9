"""Exact solution of the one-pillow rank-3 tensor field theory 2-point function.

The package reproduces, verifies and evaluates the closed 2-point
Schwinger-Dyson equation of the melonic model with a single quartic
interaction: exact symbolic perturbative orders with rational
coefficients, the Stirling-number coefficient family and its identity
suite, the Lambert-W resummed non-perturbative solution, adaptive
quadrature residual checks and the recursion for higher-point functions.
"""

from .combinatorics import (
    CoeffTable,
    a_closed,
    a_recur,
    binomial,
    check_identity_big_stirling,
    check_identity_harmonic,
    check_identity_stirling_621,
    harmonic,
    rational_str,
    stirling_first_signed,
    stirling_first_unsigned,
)
from .errors import (
    CoincidentCoordinatesError,
    DivergentIntegralError,
    EvaluationDomainError,
    MelonTFTError,
    NotConvergedError,
    ShapeMismatchError,
)
from .greens import PointTuple, connected_2k, disconnected_4pt, disconnected_4pt_residual
from .quadrature import (
    QuadResult,
    integrate_quarter_plane,
    integrated_identity_residual,
    sde_residual_numeric,
)
from .series import (
    LogSeries,
    LogTerm,
    ansatz_order,
    eval_partial_sum,
    eval_series,
    eval_series_transverse,
    extract_coefficients,
    free_propagator,
    integrate_transverse,
    perturbative_order,
    series_mul,
    three_colour_low_order,
)
from .specialfn import (
    Coupling,
    Point3,
    g2_exact,
    g_shift,
    lambert_w0,
    lambert_wm1,
    sde_residual_algebraic,
    wright_omega,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # combinatorics
    "CoeffTable",
    "a_closed",
    "a_recur",
    "binomial",
    "check_identity_big_stirling",
    "check_identity_harmonic",
    "check_identity_stirling_621",
    "harmonic",
    "rational_str",
    "stirling_first_signed",
    "stirling_first_unsigned",
    # series
    "LogSeries",
    "LogTerm",
    "ansatz_order",
    "eval_partial_sum",
    "eval_series",
    "eval_series_transverse",
    "extract_coefficients",
    "free_propagator",
    "integrate_transverse",
    "perturbative_order",
    "series_mul",
    "three_colour_low_order",
    # special functions / exact solution
    "Coupling",
    "Point3",
    "g2_exact",
    "g_shift",
    "lambert_w0",
    "lambert_wm1",
    "sde_residual_algebraic",
    "wright_omega",
    # quadrature
    "QuadResult",
    "integrate_quarter_plane",
    "integrated_identity_residual",
    "sde_residual_numeric",
    # higher-point functions
    "PointTuple",
    "connected_2k",
    "disconnected_4pt",
    "disconnected_4pt_residual",
    # errors
    "MelonTFTError",
    "DivergentIntegralError",
    "ShapeMismatchError",
    "EvaluationDomainError",
    "NotConvergedError",
    "CoincidentCoordinatesError",
]

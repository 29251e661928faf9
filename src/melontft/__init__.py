"""Exact solution of the one-pillow rank-3 tensor field theory 2-point function.

The package reproduces, verifies and evaluates the closed 2-point
Schwinger-Dyson equation of the melonic model with a single quartic
interaction: exact symbolic perturbative orders with rational
coefficients, the Stirling-number coefficient family and its identity
suite, the Lambert-W resummed non-perturbative solution, adaptive
quadrature residual checks and the recursion for higher-point functions.

The exact layer computes on integers: each exact quantity is a numerator
over a denominator known in closed form, and a ``fractions.Fraction`` is
made only where a public function returns one.  The CLI prints every
"p/q" straight from those integers, and the identity suite compares
them, so neither makes a ``Fraction``.

Caching policy: a pure function of integer indices whose results are
immutable (unsigned Stirling rows, factorials, H_k over k!, the integer
columns of perturbative orders and tadpoles, and their float columns) is
memoised for the life of the process by ``functools.cache`` on a private
helper; no ``LogSeries`` is cached.  The integers k! a(n,k,m) of each
route, closed form and recurrences, live in one column table per route,
cached the same way, that only ever grows: it is filled bottom-up through
the largest order asked, one order at a time.  ``a_closed`` and
``ansatz_order`` recompute them from the cached Stirling rows.  The CLI
builds its argument parser once per process.  Public names stay plain
functions that check their arguments on every call and then delegate.  The
one other memo, ``connected_2k``'s over point subsets, is a per-call
``functools.cache``.

The value types are frozen records built from closures by one class
decorator, ``errors._record``, which compiles no code, so no module of the
package loads ``inspect`` or numpy.

Importing the package runs none of its modules.  ``_EXPORTS`` below is the
package's one list of names: it maps each submodule to the public names it
defines, no submodule keeps a list of its own, and ``__all__`` is
``__version__`` plus those names.  The first access to such a name, or to a
submodule such as ``melontft.series``, imports that submodule (PEP 562
``__getattr__``) and binds the value in the package, so a later lookup is
a plain attribute read.  The float path, ``specialfn`` and ``greens``,
loads neither the exact-arithmetic layer (``combinatorics``, ``series``,
and with them ``fractions``) nor ``quadrature`` (and ``heapq``).
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public functions and classes it defines, exactly, in the
# order of the package's ``__all__``
_EXPORTS = {
    "combinatorics": (
        "harmonic", "a_closed", "CoeffTable", "IdentityCheck", "check_identity_stirling_621",
        "check_identity_harmonic", "check_identity_big_stirling", "rational_str",
    ),
    "series": (
        "LogTerm", "LogSeries", "perturbative_order", "ansatz_order", "extract_coefficients",
        "eval_series", "eval_partial_sum",
    ),
    "specialfn": (
        "Point3", "Coupling", "lambert_w0", "lambert_wm1", "wright_omega", "dressed_mass",
        "g2_from_mass", "g2_exact", "exact_record", "exact_records",
    ),
    "quadrature": (
        "QuadResult", "integrate_quarter_plane", "fixed_point_residuals", "sde_residual_numeric",
        "integrated_identity_residual",
    ),
    "greens": ("PointTuple", "connected_2k", "disconnected_4pt", "disconnected_4pt_residual"),
    "errors": ("MelonTFTError", "ShapeMismatchError", "NotConvergedError", "CoincidentCoordinatesError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Exact solution of the one-pillow rank-3 tensor field theory 2-point function.

The package reproduces, verifies and evaluates the closed 2-point
Schwinger-Dyson equation of the melonic model with a single quartic
interaction: exact symbolic perturbative orders with rational
coefficients, the Stirling-number coefficient family and its identity
suite, the Lambert-W resummed non-perturbative solution, adaptive
quadrature residual checks and the recursion for higher-point functions.

Caching policy: a pure function of integer indices whose results are
immutable (Stirling rows, the (num, den) pairs of a(n,k,m), the integer
columns of perturbative orders and tadpoles, and their float columns) is
memoised for the life of the process by ``functools.cache`` on a private
helper; no ``LogSeries`` is cached.  Public names stay plain functions
that check their arguments on every call and then delegate.  The one
other memo, ``connected_2k``'s over point subsets, is a per-call ``functools.cache``.

The value types are frozen records built from closures by one class
decorator, ``errors._record``, which compiles no code, so importing the
package loads neither ``inspect`` nor numpy: only standard modules that
its numerical code uses (``fractions``, ``decimal``, ``heapq``).

The top-level names are the union of the ``__all__`` lists of the
modules imported below.
"""

from . import combinatorics, errors, greens, quadrature, series, specialfn
from .combinatorics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .greens import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .specialfn import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (combinatorics, series, specialfn, quadrature, greens, errors)
    for name in module.__all__
]

"""What every layer of the package shares, so that no layer loads another for it.

The exception types, each raised by some path: ``ShapeMismatchError`` by
coefficient extraction, ``NotConvergedError`` by the iterations and the
quadrature, ``CoincidentCoordinatesError`` by ``connected_2k``; ``_HUGE``,
the range bound of every float input; ``_check_abs_tol``, the one rule
for a tolerance; and ``_record``, the decorator that makes every value
type of the package a frozen record.
"""

from __future__ import annotations

import sys
from operator import attrgetter

# largest finite double: a number from outside is range-tested against it,
# a test that NaN and a Python int beyond the double range also fail
_HUGE = sys.float_info.max


def _check_abs_tol(abs_tol: float) -> None:
    # the one rule for a tolerance: the quadrature's and verify --tol's
    if not 0.0 < abs_tol <= _HUGE:
        raise ValueError(f"abs_tol must be finite and > 0, got {abs_tol}")


class MelonTFTError(Exception):
    """Base class for package-specific failures."""


class ShapeMismatchError(MelonTFTError):
    """A generated series contains a term outside the closed-form shape.

    Raised by coefficient extraction.  The closed form is a theorem (the
    Lagrange-Buermann coefficient), so hitting this means a defect in the
    series that was read, not a recoverable condition.
    """


class NotConvergedError(MelonTFTError):
    """An iteration or a quadrature did not converge within its budget.

    ``result`` holds the unconverged quadrature result when one raised it
    (a ``QuadResult``), else None.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class CoincidentCoordinatesError(MelonTFTError):
    """Two external momenta share a component of the same colour.

    The higher-point recursion divides by differences of squared
    first-colour components, so equal squares count as coincident too;
    such configurations are excluded, not handled by taking limits.
    """


def _record(cls):
    """Make ``cls`` a frozen value type over its annotated fields.

    The fields are the class's annotations, in order, and a class
    attribute of a field's name is its default.  The class gains an
    __init__ that takes positional or keyword arguments and then runs the
    class's __post_init__, if it has one; __eq__ and __hash__ over the
    tuple of field values, equal only to an instance of the same class; a
    ``Name(field=value, ...)`` repr; and __setattr__ and __delattr__ that
    raise ``AttributeError``.  The values live in the instance __dict__ in
    field order, so ``vars`` of a record without a cached property is its
    fields as a dict, and ``cached_property``, which writes that dict
    directly, still works.  The methods are closures: defining a record
    compiles no code.
    """
    names = tuple(cls.__annotations__)
    field_set = set(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    qualname = cls.__qualname__

    def bind(args, kwargs):
        # the field values in order, for any call a def with the fields as
        # parameters would accept
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        twice = not kwargs.keys().isdisjoint(names[: len(args)])
        if len(args) > len(names) or twice or values.keys() != field_set:
            given = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
            raise TypeError(f"{qualname}() takes ({', '.join(names)}), got ({given})")
        return [values[name] for name in names]

    # the tuple of field values; attrgetter gives a bare value for one name
    get = attrgetter(*names)
    fields = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{qualname}({', '.join(f'{name}={value!r}' for name, value in zip(names, fields(self)))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {qualname}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {qualname}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls

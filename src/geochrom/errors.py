"""Exception hierarchy shared across the package, and the base of its records.

`_Record` is the one immutable-record idiom: Point, GeometricGraph,
CrossingStructure, Coloring, VertexMap, XResult, LiftReport,
DistinctnessGraph, CatalogEntry and CliqueCatalog derive from it. It lives
here, in the leaf module every other one may import, and has no public
name. It gives what @dataclass(frozen=True) would, without importing
dataclasses (which loads inspect, ast and dis) or generating methods as
each module loads: both are costs that every `geochrom` process would pay
before its verb runs.
"""


class GeochromError(Exception):
    """Base class for all domain errors raised by this package."""


class SharedEndpoint(GeochromError):
    """Two segments or label pairs share an endpoint where disjointness is required."""


class GraphFormatError(GeochromError):
    """A graph (or related) JSON document violates the expected schema."""


class SizeUnsupported(GeochromError):
    """Clique size outside the range the structure enumerator supports."""


class CatalogMissing(GeochromError):
    """A required clique catalog is unavailable and may not be built here."""


class NotProperColoring(GeochromError):
    """A coloring handed to a lifting algorithm is not proper on the graph."""


class DistanceTooSmall(GeochromError):
    """Some pair of crossings is closer than the method's distance hypothesis."""


class CrossingsNotIndependent(GeochromError):
    """Two crossings share a vertex, violating the independence hypothesis."""


class CollapsedCrossingPair(GeochromError):
    """A crossing has both edges mapped to the same target edge by the coloring."""


class ChiOutOfRange(GeochromError):
    """The small-chi lift only accepts colorings with 2 or 3 colors."""


class UnknownFigure(GeochromError):
    """Unrecognized figure tag passed to the figure generator."""


class LiftInternalError(GeochromError):
    """A lift produced a map that fails verification.

    The underlying theorems guarantee success, so this indicates a bug in the
    case dispatch, never a property of the input. Surfaced loudly on purpose.
    """


class _Record:
    """An immutable record whose equality, hash and repr read the fields named in `_fields`.

    Each subclass writes its own __init__, which checks its arguments and
    stores each field with object.__setattr__; assigning or deleting an
    attribute afterwards raises AttributeError. Records of one class are
    equal when their field tuples are, hash as that tuple, and compare
    NotImplemented against any other class; the repr is
    `Name(field=value, ...)`. cached_property still works, since it writes
    to the instance __dict__ directly.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

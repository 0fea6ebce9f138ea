"""Exception hierarchy shared across the package."""


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

"""Exact planar primitives: orientation, proper segment crossing, convex rules.

Every answer here is exact, from integer arithmetic. No epsilons: crossing
relations are combinatorial facts and the rest of the package relies on these
predicates being exact. The one float, a slope in _distinct_slopes, is
correctly rounded and read only where it proves two slopes distinct.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import SharedEndpoint, _Record

# Keeps 3x3 orientation determinants inside 64-bit signed range so the data
# format stays portable to fixed-width implementations.
COORD_BOUND = 1 << 30


@total_ordering
class Point(_Record):
    """Immutable exact grid point, ordered by x, then y."""

    __slots__ = ("x", "y")
    _fields = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        for c in (x, y):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coordinates must be int, got {type(c).__name__}")
            if abs(c) > COORD_BOUND:
                raise ValueError(f"coordinate {c} exceeds the +-2^30 bound")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __lt__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.x, self.y) < (other.x, other.y)
        return NotImplemented

    def __reduce__(self):
        # Slots hold the fields, and unpickling would set them through the refusing __setattr__.
        return Point, (self.x, self.y)


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact turn of the ordered triple (p, q, r): 1 counterclockwise, -1 clockwise, 0 collinear.

    The sign of the determinant |q-p, r-p| (twice the signed triangle area).
    """
    d = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    return (d > 0) - (d < 0)


def segments_cross(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """True iff the open segments (a1,a2) and (b1,b2) cross properly.

    Proper means: exactly one interior intersection point. Touching
    configurations (an endpoint on the other segment, collinear overlap)
    return False; they cannot occur under the general-position guarantee
    enforced upstream but are still answered deterministically.
    """
    if len({a1, a2, b1, b2}) != 4:
        raise SharedEndpoint("segments must have four pairwise distinct endpoints")
    d1 = orientation(a1, a2, b1)
    d2 = orientation(a1, a2, b2)
    d3 = orientation(b1, b2, a1)
    d4 = orientation(b1, b2, a2)
    return d1 * d2 < 0 and d3 * d4 < 0


def is_general_position(points: Sequence[Point]) -> bool:
    """True iff all points are distinct and no three are collinear.

    O(n^2), on exact ints. With the distinct points sorted by (x, y), each
    point and two later ones are collinear exactly when _distinct_slopes
    finds a repeat among the slopes to its later points, so every collinear
    triple is seen from its least point.
    """
    pts = sorted({(p.x, p.y) for p in points})
    if len(pts) != len(points):
        return False
    return all(_distinct_slopes(px, py, pts[i + 1:]) for i, (px, py) in enumerate(pts))


def _distinct_slopes(px: int, py: int, others: Sequence[tuple[int, int]]) -> bool:
    """True iff no two of the points `others`, none of them (px, py), are collinear with (px, py).

    Two of them are collinear with p exactly when their directions from p are
    parallel, that is when their slopes dy/dx from p are equal or both dx = 0.
    A direction and its reverse have one slope, so the points may lie on any
    side of p. So a slope key, with None for dx = 0, repeats exactly when p is
    collinear with two of them.

    The float dy / dx comes first. Int true division is correctly rounded, so
    a slope, a rational, has one float, whatever dy and dx name it: equal
    slopes give equal floats, and distinct floats are distinct slopes. So p
    is settled when no float repeats. Distinct slopes can share a float,
    though, so a repeat falls back to exact keys, floor(dy * 2^64 / dx),
    (dy << 64) // dx.
    Equal slopes give equal keys. Distinct ones differ by at least
    1 / |dx1 * dx2| >= 2^-62, since COORD_BOUND keeps |dx| and |dy| at most
    2^31. Scaled by 2^64 they differ by at least 4, so their floors differ by
    more than 3: no two distinct slopes share a key.
    """
    if len({(qy - py) / (qx - px) if qx != px else None for qx, qy in others}) == len(others):
        return True
    return len({((qy - py) << 64) // (qx - px) if qx != px else None for qx, qy in others}) == len(others)


def convex_crossing_rule(n: int, e1: Iterable[int], e2: Iterable[int]) -> bool:
    """Label-only crossing test for the convex n-clique.

    Vertices 1..n sit in convex position in hull order; disjoint edges cross
    exactly when their labels alternate around the hull, i.e. (after
    normalizing a1 < a2, b1 < b2, a1 < b1) when a1 < b1 < a2 < b2.
    """
    if n < 4:
        raise ValueError(f"convex crossing rule needs n >= 4, got {n}")
    a1, a2 = sorted(e1)
    b1, b2 = sorted(e2)
    for lab in (a1, a2, b1, b2):
        if not 1 <= lab <= n:
            raise ValueError(f"label {lab} outside 1..{n}")
    if a1 == a2 or b1 == b2 or {a1, a2} & {b1, b2}:
        raise SharedEndpoint(f"edges {{{a1},{a2}}} and {{{b1},{b2}}} are not disjoint")
    if b1 < a1:
        a1, a2, b1, b2 = b1, b2, a1, a2
    return a1 < b1 < a2 < b2


def regular_polygon_points(n: int) -> tuple[Point, ...]:
    """Integer-rounded regular n-gon in counterclockwise hull order.

    Vertex i sits at angle 2*pi*i/n. If rounding ever breaks general
    position the radius is bumped until it holds (never triggers for the
    sizes used here, but cheap insurance). n = 0 gives no points, the empty K_0.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    r = 10**6
    while True:
        pts = tuple(
            Point(round(r * math.cos(2 * math.pi * i / n)), round(r * math.sin(2 * math.pi * i / n)))
            for i in range(n)
        )
        if is_general_position(pts):
            return pts
        r += 1

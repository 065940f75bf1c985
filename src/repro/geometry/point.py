"""Points on the Manhattan plane and the 45-degree rotation trick.

The rotation ``(x, y) -> (x + y, y - x)`` maps the Manhattan (L1) metric onto
the Chebyshev (L-inf) metric: for any two points ``p`` and ``q``,

    manhattan(p, q) == rotate45(p).chebyshev_to(rotate45(q)).

DME merging-region arithmetic is carried out in rotated space because the
L-inf ball is an axis-aligned square, which keeps every region in this
package an axis-aligned rectangle (see :mod:`repro.geometry.segment`).
Note the rotation scales distances by exactly 1 (not sqrt(2)) because we do
not divide by 2; ``unrotate45`` restores original coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point with float coordinates in micrometres."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def manhattan_to(self, other: "Point") -> float:
        return abs(self.x - other.x) + abs(self.y - other.y)

    def chebyshev_to(self, other: "Point") -> float:
        return max(abs(self.x - other.x), abs(self.y - other.y))

    def is_close(self, other: "Point", tol: float = 1e-9) -> bool:
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol


def manhattan(p: Point, q: Point) -> float:
    """Manhattan (L1) distance between two points."""
    return abs(p.x - q.x) + abs(p.y - q.y)


def rotate45(p: Point) -> Point:
    """Map to rotated space where L1 becomes L-inf (distance preserved)."""
    return Point(p.x + p.y, p.y - p.x)


def unrotate45(p: Point) -> Point:
    """Inverse of :func:`rotate45`."""
    return Point((p.x - p.y) / 2.0, (p.x + p.y) / 2.0)


def manhattan_center(points: list[Point]) -> Point:
    """A point minimising the maximum Manhattan distance to ``points``.

    Computed in rotated space, where the 1-centre under L-inf is the centre
    of the bounding box.  Used to seed clock-tree roots and H-tree trunks.
    """
    if not points:
        raise ValueError("manhattan_center() requires at least one point")
    rotated = [rotate45(p) for p in points]
    umin = min(r.x for r in rotated)
    umax = max(r.x for r in rotated)
    vmin = min(r.y for r in rotated)
    vmax = max(r.y for r in rotated)
    return unrotate45(Point((umin + umax) / 2.0, (vmin + vmax) / 2.0))

"""Reference hull kernels the production ones must reproduce.

``convex_hull`` and ``points_on_hull`` are the ``Point``-based
implementations that ``repro.geometry.hull`` replaced with a tuple
kernel (inlined cross products, per-edge band and bounding box computed
once per call), kept verbatim as test oracles: production must return
the same hull vertices and the same boundary indices, ties, duplicates,
signed zeros and tolerance-band edge cases included.
"""

from __future__ import annotations

from repro.geometry.point import Point


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def convex_hull(points: list[Point]) -> list[Point]:
    """Convex hull in counter-clockwise order (Andrew monotone chain).

    Collinear boundary points are dropped.  Degenerate inputs (<= 2 distinct
    points, or all collinear) return the distinct extreme points.
    """
    unique = sorted(set((p.x, p.y) for p in points))
    pts = [Point(x, y) for x, y in unique]
    if len(pts) <= 2:
        return pts

    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear
        return [pts[0], pts[-1]]
    return hull


def points_on_hull(points: list[Point], tol: float = 1e-9) -> list[int]:
    """Indices of input points lying on the convex hull boundary.

    This is the candidate set for an SA boundary move: instances "located at
    the boundary (convex hull)" of a net, in the paper's wording.  Unlike
    :func:`convex_hull` it keeps collinear boundary points, because those are
    equally movable.
    """
    hull = convex_hull(points)
    if len(hull) == 1:
        return [i for i, p in enumerate(points) if p.is_close(hull[0], tol)]
    on_boundary: list[int] = []
    edges = list(zip(hull, hull[1:] + hull[:1]))
    for i, p in enumerate(points):
        for a, b in edges:
            if abs(_cross(a, b, p)) > tol * max(1.0, a.manhattan_to(b)):
                continue
            if (
                min(a.x, b.x) - tol <= p.x <= max(a.x, b.x) + tol
                and min(a.y, b.y) - tol <= p.y <= max(a.y, b.y) + tol
            ):
                on_boundary.append(i)
                break
    return on_boundary

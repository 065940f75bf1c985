"""Convex-hull membership, bounding boxes and HPWL of pin sets.

The simulated-annealing partition refinement (paper Fig. 4) moves instances
that lie on the *convex hull boundary* of a net, so hull membership is the
workhorse here.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.geometry.point import Point


def _hull_vertices(
    pts: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Convex hull vertices of ``(x, y)`` tuples, counter-clockwise
    (Andrew monotone chain)."""
    unique = sorted(set(pts))
    if len(unique) <= 2:
        return unique
    hull = _chain(unique)[:-1] + _chain(reversed(unique))[:-1]
    if len(hull) < 2:  # all points collinear
        return [unique[0], unique[-1]]
    return hull


def _chain(pts) -> list[tuple[float, float]]:
    """One monotone chain: pop while the last turn is not a strict left
    turn (cross product inlined)."""
    chain: list[tuple[float, float]] = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def points_on_hull(points: Iterable, tol: float = 1e-9) -> list[int]:
    """Indices of input points lying on the convex hull boundary.

    This is the candidate set for an SA boundary move: instances "located at
    the boundary (convex hull)" of a net, in the paper's wording.  Unlike
    the hull's vertex list it keeps collinear boundary points, because
    those are equally movable.  ``points`` may be :class:`Point` objects or
    ``(x, y)`` tuples (the SA kernel passes tuples).

    A point is on the boundary when some hull edge ``a -> b`` has it
    within the band ``|cross(a, b, p)| <= tol * max(1, |ab|_1)`` and
    inside the edge's bounding box grown by ``tol``.  Each edge's
    direction, band and box are computed once per call, with the same
    float expressions as the per-point form, so membership is the same
    bit for bit (``tests/geometry/hull_oracle.py``).
    """
    pts = [tuple(p) for p in points]
    hull = _hull_vertices(pts)
    if len(hull) == 1:
        (hx, hy), = hull
        return [i for i, (x, y) in enumerate(pts)
                if abs(x - hx) <= tol and abs(y - hy) <= tol]
    edges = [
        (ax, ay, bx - ax, by - ay,
         tol * max(1.0, abs(ax - bx) + abs(ay - by)),
         min(ax, bx) - tol, max(ax, bx) + tol,
         min(ay, by) - tol, max(ay, by) + tol)
        for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1])
    ]
    on_boundary: list[int] = []
    for i, (px, py) in enumerate(pts):
        for ax, ay, dx, dy, band, xlo, xhi, ylo, yhi in edges:
            # the box test first: it rejects most interior points sooner
            if (xlo <= px <= xhi and ylo <= py <= yhi
                    and not abs(dx * (py - ay) - dy * (px - ax)) > band):
                on_boundary.append(i)
                break
    return on_boundary


def bounding_box(points: list[Point]) -> tuple[Point, Point]:
    """Axis-aligned bounding box as (lower-left, upper-right)."""
    if not points:
        raise ValueError("bounding_box() requires at least one point")
    return (
        Point(min(p.x for p in points), min(p.y for p in points)),
        Point(max(p.x for p in points), max(p.y for p in points)),
    )


def half_perimeter(points: list[Point]) -> float:
    """Half-perimeter wirelength (HPWL) of the bounding box."""
    if len(points) < 2:
        return 0.0
    lo, hi = bounding_box(points)
    return (hi.x - lo.x) + (hi.y - lo.y)

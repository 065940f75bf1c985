"""Unit and property tests for points and the 45-degree rotation."""

import math

from hypothesis import given, strategies as st

from repro.geometry import (
    Point,
    manhattan,
    manhattan_center,
    rotate45,
    unrotate45,
)

coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


def test_manhattan_basic():
    assert manhattan(Point(0, 0), Point(3, 4)) == 7
    assert manhattan(Point(-1, -1), Point(1, 1)) == 4


def test_chebyshev_basic():
    assert Point(0, 0).chebyshev_to(Point(3, 4)) == 4


def test_point_arithmetic():
    assert Point(1, 2) + Point(3, 4) == Point(4, 6)
    assert Point(3, 4) - Point(1, 2) == Point(2, 2)


def test_point_iter_unpacks():
    x, y = Point(5, 7)
    assert (x, y) == (5, 7)


@given(points, points)
def test_rotation_preserves_metric(p, q):
    """manhattan(p, q) == chebyshev(rot(p), rot(q)) — the core DME identity."""
    rp, rq = rotate45(p), rotate45(q)
    assert math.isclose(
        manhattan(p, q),
        max(abs(rp.x - rq.x), abs(rp.y - rq.y)),
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@given(points)
def test_rotation_involution(p):
    back = unrotate45(rotate45(p))
    assert back.is_close(p, tol=1e-6)


@given(st.lists(points, min_size=1, max_size=30))
def test_manhattan_center_is_1_center(pts):
    """The returned point minimises the max Manhattan distance (radius)."""
    c = manhattan_center(pts)
    radius = max(manhattan(c, p) for p in pts)
    # compare against the optimum implied by the rotated bounding box
    ru = [rotate45(p).x for p in pts]
    rv = [rotate45(p).y for p in pts]
    optimal = max(max(ru) - min(ru), max(rv) - min(rv)) / 2.0
    assert radius <= optimal + 1e-6


def test_manhattan_center_empty():
    try:
        manhattan_center([])
    except ValueError:
        return
    raise AssertionError("expected ValueError for empty input")

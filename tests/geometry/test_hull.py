"""Tests for convex hull vertices, boundary membership and HPWL."""

from hypothesis import given, strategies as st

from repro.geometry import Point
from repro.geometry.hull import (
    _hull_vertices,
    bounding_box,
    half_perimeter,
    points_on_hull,
)

coords = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


def test_hull_square():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = _hull_vertices(pts)
    assert len(hull) == 4
    assert (1, 1) not in hull


def test_hull_collinear():
    hull = _hull_vertices([(0, 0), (1, 1), (2, 2)])
    assert set(hull) == {(0, 0), (2, 2)}


def test_hull_duplicates():
    pts = [(0, 0)] * 5 + [(1, 0)] * 3
    assert len(_hull_vertices(pts)) == 2


def test_points_on_hull_square():
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2),
           Point(1, 1), Point(1, 0)]
    idx = points_on_hull(pts)
    assert 4 not in idx          # interior point excluded
    assert 5 in idx              # collinear boundary point included
    assert set(idx) >= {0, 1, 2, 3}


def test_points_on_hull_single():
    assert points_on_hull([Point(1, 1)]) == [0]


@given(st.lists(points, min_size=3, max_size=25))
def test_hull_contains_extremes(pts):
    hull = _hull_vertices([(p.x, p.y) for p in pts])
    hull_set = set(hull)
    xs = [p.x for p in pts]
    leftmost = min(pts, key=lambda p: (p.x, p.y))
    rightmost = max(pts, key=lambda p: (p.x, p.y))
    assert (leftmost.x, leftmost.y) in hull_set
    assert (rightmost.x, rightmost.y) in hull_set
    assert min(xs) == min(x for x, _ in hull)


def test_bounding_box_and_hpwl():
    pts = [Point(0, 1), Point(3, 5), Point(-1, 2)]
    lo, hi = bounding_box(pts)
    assert lo == Point(-1, 1)
    assert hi == Point(3, 5)
    assert half_perimeter(pts) == 8


def test_hpwl_degenerate():
    assert half_perimeter([Point(1, 1)]) == 0.0

"""Tests for rotated-space rectangle (merging region) arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect

coords = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw):
    ulo = draw(coords)
    uhi = ulo + draw(st.floats(min_value=0, max_value=100))
    vlo = draw(coords)
    vhi = vlo + draw(st.floats(min_value=0, max_value=100))
    return Rect(ulo, uhi, vlo, vhi)


def test_from_point_is_degenerate():
    r = Rect.from_point(Point(1, 2))
    assert r.width == r.height == 0
    assert r.center == Point(1, 2)


def test_negative_extent_rejected():
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 1)


def test_negative_inflate_rejected():
    with pytest.raises(ValueError):
        Rect(0, 1, 0, 1).inflate(-1)


def test_inflate_and_shrink_roundtrip():
    r = Rect(0, 4, 1, 3)
    assert r.inflate(2).shrink(2) == r


def test_overshrink_clamps_to_center():
    r = Rect(0, 2, 0, 2).shrink(5)
    assert r.width == r.height == 0
    assert r.center == Point(1, 1)


def test_distance_between_disjoint_rects():
    a = Rect(0, 1, 0, 1)
    b = Rect(5, 6, 0, 1)
    assert a.distance(b) == 4
    assert a.gap(b) == (4, 0)


def test_distance_overlapping_is_zero():
    a = Rect(0, 3, 0, 3)
    b = Rect(2, 5, 2, 5)
    assert a.distance(b) == 0


def test_intersect_disjoint_returns_none():
    assert Rect(0, 1, 0, 1).intersect(Rect(3, 4, 3, 4)) is None


def test_intersect_shared_edge():
    r = Rect(0, 2, 0, 2).intersect(Rect(2, 4, 0, 2))
    assert r is not None
    assert r.width == pytest.approx(0)


def test_nearest_point_clamps():
    r = Rect(0, 2, 0, 2)
    assert r.nearest_point(Point(5, 1)) == Point(2, 1)
    assert r.nearest_point(Point(1, 1)) == Point(1, 1)
    assert r.nearest_point(Point(-3, -3)) == Point(0, 0)


@given(rects(), st.floats(min_value=0, max_value=50))
def test_inflation_radius_matches_distance(r, radius):
    """Every point of inflate(r, d) is within L-inf distance d of r."""
    inflated = r.inflate(radius)
    for corner in [
        Point(inflated.ulo, inflated.vlo),
        Point(inflated.uhi, inflated.vhi),
        Point(inflated.ulo, inflated.vhi),
        Point(inflated.uhi, inflated.vlo),
    ]:
        assert r.distance_to_point(corner) <= radius + 1e-6


@given(rects(), rects())
def test_merging_identity(a, b):
    """inflate(a, da) and inflate(b, db) with da+db = dist(a,b) must touch.

    This is the invariant zero-skew DME merging relies on.
    """
    d = a.distance(b)
    da = d * 0.37
    db = d - da
    overlap = a.inflate(da).intersect(b.inflate(db))
    assert overlap is not None
    # the overlap must be degenerate along the axis realising the distance
    du, dv = a.gap(b)
    if d > 1e-9:
        if du >= dv:
            assert overlap.width <= 1e-6
        else:
            assert overlap.height <= 1e-6


@given(rects(), st.floats(min_value=-200, max_value=200),
       st.floats(min_value=-200, max_value=200))
def test_nearest_point_is_optimal(r, px, py):
    p = Point(px, py)
    np_ = r.nearest_point(p)
    assert r.ulo <= np_.x <= r.uhi and r.vlo <= np_.y <= r.vhi
    assert math.isclose(
        max(abs(np_.x - p.x), abs(np_.y - p.y)),
        r.distance_to_point(p),
        abs_tol=1e-6,
    )

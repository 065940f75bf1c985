"""Property test: the tuple hull kernel is *identical* to the
``Point``-based reference (``hull_oracle``) — same hull vertices, same
boundary indices, bit for bit.

The claim (docs/ALGORITHMS.md): the monotone chain makes the same pops
on the same float cross products, and each edge's band and grown box
are the same float expressions, computed once per call instead of once
per point.  Hypothesis hunts on the inputs where that could break: tie-
heavy lattices, duplicate locations, signed zeros, collinear sets, and
points offset 1e-10 (inside), 1e-9 (exactly on) and 1e-8 (outside) the
tolerance band of an edge.
"""

from hypothesis import example, given, settings, strategies as st

from repro.geometry import Point
from repro.geometry.hull import _hull_vertices, points_on_hull
from tests.geometry import hull_oracle

#: Offsets around the boundary test's 1e-9 tolerance band.
BAND_OFFSETS = (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8, -1e-8)

_lattice = st.integers(0, 4).map(float)
_offset = st.sampled_from(BAND_OFFSETS)

#: (x, y) families, one per drawn set, so ties stay dense in each.
FAMILIES = {
    "lattice": st.tuples(_lattice, _lattice),
    "band": st.builds(lambda x, y, dx, dy: (x + dx, y + dy),
                      _lattice, _lattice, _offset, _offset),
    "zeros": st.tuples(st.sampled_from((0.0, -0.0, 1.0)),
                       st.sampled_from((0.0, -0.0, 2.0))),
    "collinear": st.builds(lambda t, d: (t, 2.0 * t + 1.0 + d),
                           st.integers(-3, 3).map(float), _offset),
    "free": st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
}


@st.composite
def point_sets(draw, max_size=30):
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    pts = draw(st.lists(family, max_size=max_size))
    if pts and draw(st.booleans()):
        pts += pts[: draw(st.integers(1, len(pts)))]  # duplicate locations
    return pts


def _exact(points):
    """Coordinates with their sign of zero (``repr`` tells -0.0 apart)."""
    return [(repr(p.x), repr(p.y)) for p in points]


@given(coords=point_sets())
@settings(max_examples=300, deadline=None)
# a point 1e-9 inside the bottom edge of a square: exactly on the band,
# so a ">=" band test drops it
@example(coords=[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0),
                 (2.0, 1e-9)])
def test_points_on_hull_matches_oracle(coords):
    points = [Point(x, y) for x, y in coords]
    assert points_on_hull(points) == hull_oracle.points_on_hull(points)
    assert _exact(Point(x, y) for x, y in _hull_vertices(coords)) == \
        _exact(hull_oracle.convex_hull(points))

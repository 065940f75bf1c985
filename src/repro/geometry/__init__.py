"""Planar geometry substrate for rectilinear clock routing.

All clock-tree algorithms in this package work on the Manhattan (L1) plane.
The deferred-merge-embedding (DME) algorithms additionally work in the
45-degree rotated plane, where Manhattan distance becomes Chebyshev (L-inf)
distance and Manhattan arcs become axis-aligned segments; :mod:`segment`
provides the rectangle arithmetic used for merging regions there.
"""

from repro.geometry.point import (
    Point,
    manhattan,
    manhattan_center,
    rotate45,
    unrotate45,
)
from repro.geometry.segment import Rect
from repro.geometry.hull import (
    bounding_box,
    half_perimeter,
    points_on_hull,
)

__all__ = [
    "Point",
    "Rect",
    "bounding_box",
    "half_perimeter",
    "manhattan",
    "manhattan_center",
    "points_on_hull",
    "rotate45",
    "unrotate45",
]

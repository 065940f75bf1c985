"""Axis-aligned rectangles in the 45-degree rotated plane.

In rotated space (see :mod:`repro.geometry.point`) the set of points within
L-inf distance ``r`` of an axis-aligned rectangle is again an axis-aligned
rectangle — the original inflated by ``r`` on every side.  DME merging
regions in this package are therefore represented by :class:`Rect`:

* a *Manhattan arc* (segment of slope +-1 in original space) is a degenerate
  rectangle (zero extent along one axis) in rotated space;
* a single point is a doubly degenerate rectangle;
* bounded-skew merging regions are general rectangles.

This rectangle family is closed under inflation and intersection, which makes
bottom-up merging exact for zero-skew DME and conservative (never violating
the skew bound, possibly using slightly more wire) for bounded-skew DME.
The restriction relative to the full polygon set of Cong et al. is recorded
in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.point import Point, unrotate45


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle ``[ulo, uhi] x [vlo, vhi]`` in rotated space."""

    ulo: float
    uhi: float
    vlo: float
    vhi: float

    def __post_init__(self) -> None:
        if self.ulo > self.uhi + 1e-9 or self.vlo > self.vhi + 1e-9:
            raise ValueError(f"degenerate Rect with negative extent: {self}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(p: Point) -> "Rect":
        """Doubly degenerate rectangle at a rotated-space point."""
        return Rect(p.x, p.x, p.y, p.y)

    @staticmethod
    def from_points(points: list[Point]) -> "Rect":
        """Bounding rectangle of rotated-space points."""
        if not points:
            raise ValueError("from_points() requires at least one point")
        return Rect(
            min(p.x for p in points),
            max(p.x for p in points),
            min(p.y for p in points),
            max(p.y for p in points),
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.uhi - self.ulo

    @property
    def height(self) -> float:
        return self.vhi - self.vlo

    @property
    def center(self) -> Point:
        return Point((self.ulo + self.uhi) / 2.0, (self.vlo + self.vhi) / 2.0)

    def is_point(self, tol: float = 1e-9) -> bool:
        return self.width <= tol and self.height <= tol

    def is_segment(self, tol: float = 1e-9) -> bool:
        """Degenerate along exactly one axis — a Manhattan arc originally."""
        return (self.width <= tol) != (self.height <= tol)

    # ------------------------------------------------------------------
    # Metric operations (all in L-inf)
    # ------------------------------------------------------------------
    def inflate(self, r: float) -> "Rect":
        """All points within L-inf distance ``r`` of this rectangle."""
        if r < 0:
            raise ValueError(f"cannot inflate by negative radius {r}")
        return Rect(self.ulo - r, self.uhi + r, self.vlo - r, self.vhi + r)

    def shrink(self, r: float) -> "Rect":
        """Inverse of inflate; clamps to the centre if over-shrunk."""
        ulo, uhi = self.ulo + r, self.uhi - r
        vlo, vhi = self.vlo + r, self.vhi - r
        if ulo > uhi:
            ulo = uhi = (self.ulo + self.uhi) / 2.0
        if vlo > vhi:
            vlo = vhi = (self.vlo + self.vhi) / 2.0
        return Rect(ulo, uhi, vlo, vhi)

    def gap(self, other: "Rect") -> tuple[float, float]:
        """Per-axis separation (0 when projections overlap)."""
        du = max(0.0, max(self.ulo, other.ulo) - min(self.uhi, other.uhi))
        dv = max(0.0, max(self.vlo, other.vlo) - min(self.vhi, other.vhi))
        return du, dv

    def distance(self, other: "Rect") -> float:
        """Minimum L-inf distance between the two rectangles."""
        du, dv = self.gap(other)
        return max(du, dv)

    def distance_to_point(self, p: Point) -> float:
        """L-inf distance from a rotated-space point to this rectangle."""
        du = max(self.ulo - p.x, p.x - self.uhi, 0.0)
        dv = max(self.vlo - p.y, p.y - self.vhi, 0.0)
        return max(du, dv)

    def contains(self, p: Point, tol: float = 1e-9) -> bool:
        return (
            self.ulo - tol <= p.x <= self.uhi + tol
            and self.vlo - tol <= p.y <= self.vhi + tol
        )

    def intersect(self, other: "Rect") -> "Rect | None":
        """Intersection rectangle, or None when disjoint."""
        ulo = max(self.ulo, other.ulo)
        uhi = min(self.uhi, other.uhi)
        vlo = max(self.vlo, other.vlo)
        vhi = min(self.vhi, other.vhi)
        if ulo > uhi + 1e-9 or vlo > vhi + 1e-9:
            return None
        return Rect(ulo, min(uhi, max(ulo, uhi)), vlo, max(vlo, vhi))

    def nearest_point(self, p: Point) -> Point:
        """Rotated-space point of this rectangle nearest to ``p``.

        Coordinate-wise clamping minimises both L-inf and L1 distance.
        """
        return Point(
            min(max(p.x, self.ulo), self.uhi),
            min(max(p.y, self.vlo), self.vhi),
        )

    # ------------------------------------------------------------------
    # Conversions back to the original plane
    # ------------------------------------------------------------------
    def corners_original(self) -> list[Point]:
        """Corners mapped back to original (unrotated) coordinates."""
        corners = [
            Point(self.ulo, self.vlo),
            Point(self.uhi, self.vlo),
            Point(self.uhi, self.vhi),
            Point(self.ulo, self.vhi),
        ]
        return [unrotate45(c) for c in corners]

"""Balanced K-means for clock-node clustering (paper Section 3.2).

``kmeans`` is a deterministic numpy Lloyd's algorithm with k-means++
seeding; ``balanced_kmeans`` caps cluster sizes (the fanout constraint) by
re-assigning points through :func:`repro.partition.mcf.balanced_assign`,
following Han et al.'s K-means + min-cost-flow recipe the paper builds on
(the capacitated assignment is that min-cost flow, solved exactly).
Inputs larger than :data:`_BLOCK` points are first bisected into spatial
blocks, each clustered on its own, so every assignment stays small
enough to solve exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import Point
from repro.obs.metrics import METRICS
from repro.partition.mcf import balanced_assign
from repro.partition.nearest import dense_row, nearest_candidates

#: Most points one exact k-means + assignment solve takes.  A block of
#: n points expands to an n x n assignment matrix (about 1 M entries
#: here), and Lloyd plus k-means++ cost O(n * k) per pass, so blocks
#: keep the whole partition near-linear in the level size.
_BLOCK = 1024

#: Nearest centers fetched per point for Lloyd labelling.  Two settle
#: almost every row; the third lets a two-way tie at the minimum resolve
#: inside the window instead of through the dense row.
_LABEL_CANDIDATES = 3


def _nearest_center_labels(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center (Manhattan), lowest on ties.

    Exactly ``argmin`` over the dense n x k distance matrix, without
    building it: the kd candidates carry the same distance values, so a
    row whose minimum is provably below every non-candidate takes the
    lowest candidate index at that minimum.  Rows where that cannot be
    proven (ties or near-ties reaching the window edge) run the dense
    argmin for that row alone.
    """
    k = len(centers)
    cx, cy = centers[:, 0], centers[:, 1]
    idx, dist, limit = nearest_candidates(
        coords[:, 0], coords[:, 1], cx, cy, _LABEL_CANDIDATES
    )
    best = dist[:, 0]
    labels = np.where(dist == best[:, None], idx, k).min(axis=1)
    undecided = np.flatnonzero(best >= limit)
    for i in undecided.tolist():
        labels[i] = np.argmin(dense_row(coords[i, 0], coords[i, 1], cx, cy))
    if undecided.size:
        METRICS.inc("partition.exact_fallback_rows", undecided.size)
    return labels


def _group_medians(
    coords: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Coordinate-wise median of each label group; empty groups keep
    their previous center.

    One lexsort per axis orders every group's values at once, and the
    median is the mean of the two middle order statistics (one, twice,
    for odd sizes) — the same ``(a + b) / 2`` ``np.median`` evaluates,
    so each value matches ``np.median(coords[labels == j], axis=0)`` bit
    for bit.
    """
    out = centers.copy()
    counts = np.bincount(labels, minlength=len(centers))
    present = np.flatnonzero(counts)
    start = np.cumsum(counts)[present] - counts[present]
    lo = start + (counts[present] - 1) // 2
    hi = start + counts[present] // 2
    for axis in (0, 1):
        values = coords[np.lexsort((coords[:, axis], labels)), axis]
        out[present, axis] = (values[lo] + values[hi]) / 2
    return out


def kmeans(
    points: list[Point],
    k: int,
    max_iters: int = 50,
    seed: int = 0,
) -> tuple[list[Point], list[int]]:
    """Plain K-means (Manhattan-flavoured: medians as centers).

    Returns (centers, label per point).  Deterministic for a given seed.
    """
    n = len(points)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n == 0:
        raise ValueError("kmeans() requires at least one point")
    k = min(k, n)
    coords = np.array([[p.x, p.y] for p in points])
    centers = _kmeans_pp_init(coords, k, seed)

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        new_labels = _nearest_center_labels(coords, centers)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        # the L1 centroid is the coordinate-wise median
        centers = _group_medians(coords, labels, centers)
    return [Point(float(c[0]), float(c[1])) for c in centers], [int(l) for l in labels]


def _kmeans_pp_init(coords: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(coords)
    centers = np.empty((k, 2))
    x, y = coords[:, 0].copy(), coords[:, 1].copy()
    centers[0] = coords[rng.integers(n)]
    closest = np.abs(x - centers[0, 0]) + np.abs(y - centers[0, 1])
    for j in range(1, k):
        weights = closest * closest
        total = weights.sum()
        if total <= 0:
            centers[j] = coords[rng.integers(n)]
        else:
            centers[j] = coords[rng.choice(n, p=weights / total)]
        np.minimum(closest, np.abs(x - centers[j, 0]) + np.abs(y - centers[j, 1]),
                   out=closest)
    return centers


def _spatial_blocks(
    coords: np.ndarray, idx: np.ndarray, max_size: int
) -> list[np.ndarray]:
    """Input indices of each spatial block of ``coords[idx]``, in order.

    A set of more than ``_BLOCK`` (and more than ``max_size``) points is
    ordered along its wider axis (by that coordinate, then the other
    one, then input index) and cut in two.  The cut sits at the multiple
    of ``max_size`` nearest half the set (ties to even, at least
    ``max_size``), so every block but one holds whole clusters.  A
    block lists its indices in the order of its last cut.  Blocks depend
    on the points and ``max_size`` alone.
    """
    n = len(idx)
    if n <= _BLOCK or n <= max_size:
        return [idx]
    xy = coords[idx]
    extent = xy.max(axis=0) - xy.min(axis=0)
    axis = 0 if extent[0] >= extent[1] else 1
    order = idx[np.lexsort((idx, xy[:, 1 - axis], xy[:, axis]))]
    cut = max_size * max(1, round(n / (2 * max_size)))
    return (_spatial_blocks(coords, order[:cut], max_size)
            + _spatial_blocks(coords, order[cut:], max_size))


def balanced_kmeans(
    points: list[Point],
    max_size: int,
    seed: int = 0,
    slack: float = 1.0,
) -> tuple[list[Point], list[int]]:
    """K-means whose clusters never exceed ``max_size`` members.

    The cluster count is ceil(n / (max_size * utilisation)); after Lloyd
    converges, points are re-assigned under capacity by exact capacitated
    assignment.  ``slack`` < 1 leaves headroom in each cluster (useful
    before SA refinement moves nodes).  More than ``_BLOCK`` points are
    split by :func:`_spatial_blocks` and each block is clustered alone
    with the same seed; a block's labels follow the centers of the
    blocks before it.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    if not 0 < slack <= 1:
        raise ValueError(f"slack must be in (0, 1], got {slack}")
    n = len(points)
    coords = np.array([[p.x, p.y] for p in points])
    centers: list[Point] = []
    labels = [0] * n
    for block in _spatial_blocks(coords, np.arange(n), max_size):
        block = block.tolist()
        block_centers, block_labels = _balanced_block(
            [points[i] for i in block], max_size, seed, slack
        )
        for i, label in zip(block, block_labels):
            labels[i] = label + len(centers)
        centers.extend(block_centers)
    return centers, labels


def _balanced_block(
    points: list[Point], max_size: int, seed: int, slack: float
) -> tuple[list[Point], list[int]]:
    """Balanced K-means on one spatial block: Lloyd, then exact
    capacitated assignment if any cluster overruns ``max_size``."""
    n = len(points)
    target = max(1, int(max_size * slack))
    k = max(1, math.ceil(n / target))
    centers, labels = kmeans(points, k, seed=seed)

    counts = np.bincount(labels, minlength=k)
    if counts.max() <= max_size:
        return centers, labels
    assignment = balanced_assign(points, centers, capacity=max_size)
    # recentre once after rebalancing to keep centers honest
    coords = np.array([[p.x, p.y] for p in points])
    old = np.array([[c.x, c.y] for c in centers])
    med = _group_medians(coords, np.array(assignment), old)
    return [Point(float(c[0]), float(c[1])) for c in med], assignment

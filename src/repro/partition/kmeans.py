"""Balanced K-means for clock-node clustering (paper Section 3.2).

``balanced_kmeans`` runs a deterministic numpy Lloyd's algorithm with
k-means++ seeding, then caps cluster sizes (the fanout constraint) by
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
from repro.partition.mcf import balanced_assign

#: Most points one exact k-means + assignment solve takes.  A block of
#: n points expands to an n x n assignment matrix (about 1 M entries
#: here), and Lloyd plus k-means++ cost O(n * k) per pass, so blocks
#: keep the whole partition near-linear in the level size.
_BLOCK = 1024

#: Most entries of one point x center distance chunk: 32 K float64s
#: (256 KB) stay in a core's cache.  At 112 centers per 896-point block
#: (``max_size`` 8) that labelled 1.4-1.8x faster than one whole-block
#: matrix.
_CHUNK_ELEMS = 32_768


def _nearest_center_labels(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center (Manhattan), lowest on ties:
    ``argmin`` over the dense distance matrix, built a row chunk at a
    time with in-place arithmetic."""
    n, k = len(coords), len(centers)
    labels = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // k)
    cx, cy = centers[None, :, 0], centers[None, :, 1]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = coords[lo:hi, None, 0] - cx
        np.abs(d, out=d)
        dy = coords[lo:hi, None, 1] - cy
        np.abs(dy, out=dy)
        d += dy
        labels[lo:hi] = np.argmin(d, axis=1)
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


def _lloyd(coords: np.ndarray, k: int, seed: int,
           max_iters: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding, then Lloyd with L1 medians, on ``k <= n``
    points; returns the center array and the label array."""
    centers = _kmeans_pp_init(coords, k, seed)
    labels = np.zeros(len(coords), dtype=np.int64)
    for _ in range(max_iters):
        new_labels = _nearest_center_labels(coords, centers)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        # the L1 centroid is the coordinate-wise median
        centers = _group_medians(coords, labels, centers)
    return centers, labels


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
    mapper=map,
) -> tuple[list[Point], list[int]]:
    """K-means whose clusters never exceed ``max_size`` members.

    The cluster count is ceil(n / max_size); after Lloyd converges,
    points are re-assigned under capacity by exact capacitated
    assignment.  More than ``_BLOCK`` points are split by
    :func:`_spatial_blocks` and each block is clustered alone with the
    same seed; a block's labels follow the centers of the blocks before
    it.

    ``mapper(fn, tasks)`` solves the blocks: it must return
    ``fn(task)`` for every task, in task order.  The builtin ``map``
    solves them here; the hierarchical flow passes its worker pool's
    ``map`` for a level of several blocks.  Blocks are independent, so
    the result is the same either way.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    n = len(points)
    coords = np.array([[p.x, p.y] for p in points])
    blocks = _spatial_blocks(coords, np.arange(n), max_size)
    solved = mapper(_balanced_block,
                    [(coords[block], max_size, seed) for block in blocks])
    centers: list[np.ndarray] = []
    labels = np.empty(n, dtype=np.int64)
    offset = 0
    for block, (block_centers, block_labels) in zip(blocks, solved):
        labels[block] = block_labels + offset
        centers.append(block_centers)
        offset += len(block_centers)
    return ([Point(x, y) for x, y in np.concatenate(centers).tolist()],
            labels.tolist())


def _balanced_block(
    task: tuple[np.ndarray, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced K-means on one spatial block ``(coords, max_size,
    seed)``: Lloyd, then exact capacitated assignment if any cluster
    overruns ``max_size``.  Returns the block's center and label
    arrays: a picklable task and a slim outcome, so a worker pool can
    solve it (see :func:`balanced_kmeans`)."""
    coords, max_size, seed = task
    n = len(coords)
    if n == 0:
        raise ValueError("balanced_kmeans() requires at least one point")
    k = max(1, math.ceil(n / max_size))
    centers, labels = _lloyd(coords, k, seed)

    counts = np.bincount(labels, minlength=k)
    if counts.max() <= max_size:
        return centers, labels
    labels = balanced_assign(coords, centers, capacity=max_size)
    # recentre once after rebalancing to keep centers honest
    return _group_medians(coords, labels, centers), labels

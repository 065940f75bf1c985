"""Dense n x k reference kernels for the partition stage.

These are the straightforward full-matrix implementations the kd-tree
kernels in ``repro.partition`` replaced.  They are kept verbatim as
test oracles: the production kernels must reproduce their outputs byte
for byte, ties included.
"""

from __future__ import annotations

import numpy as np

#: Upper bound on the elements of any point x center distance block.
_CHUNK_ELEMS = 4_000_000


def dense_dists(px, py, cx, cy) -> np.ndarray:
    """The full point x center Manhattan distance matrix."""
    return np.abs(px[:, None] - cx[None, :]) + np.abs(py[:, None] - cy[None, :])


def nearest_center_labels(coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Row-chunked argmin over Manhattan distances to ``centers``."""
    n, k = len(coords), len(centers)
    labels = np.empty(n, dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // max(k, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = (
            np.abs(coords[lo:hi, None, 0] - centers[None, :, 0])
            + np.abs(coords[lo:hi, None, 1] - centers[None, :, 1])
        )
        labels[lo:hi] = np.argmin(d, axis=1)
    return labels


def group_medians(
    coords: np.ndarray, labels: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Coordinate-wise median of each label group; empty groups keep
    their previous center."""
    k = len(centers)
    out = centers.copy()
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        if hi > lo:
            out[j] = np.median(coords[order[lo:hi]], axis=0)
    return out


def kmeans_pp_init(coords: np.ndarray, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = len(coords)
    centers = np.empty((k, 2))
    centers[0] = coords[rng.integers(n)]
    closest = np.abs(coords - centers[0]).sum(axis=1)
    for j in range(1, k):
        weights = closest * closest
        total = weights.sum()
        if total <= 0:
            centers[j] = coords[rng.integers(n)]
        else:
            centers[j] = coords[rng.choice(n, p=weights / total)]
        closest = np.minimum(closest, np.abs(coords - centers[j]).sum(axis=1))
    return centers


def regret_greedy(dists: np.ndarray, capacity: int) -> list[int]:
    """Vectorised regret-ordered greedy with overflow spill."""
    n, k = dists.shape
    order_all = np.empty((n, k), dtype=np.int32)
    step = max(1, _CHUNK_ELEMS // max(k, 1))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        order_all[lo:hi] = np.argsort(dists[lo:hi], axis=1)
    rows = np.arange(n)
    best = dists[rows, order_all[:, 0]]
    second = dists[rows, order_all[:, min(1, k - 1)]]
    return _regret_scan(order_all, best, second, capacity)


def _regret_scan(
    order_all: np.ndarray, best: np.ndarray, second: np.ndarray,
    capacity: int,
) -> list[int]:
    n, k = order_all.shape
    regret_order = np.argsort(-(second - best))
    remaining = np.full(k, capacity, dtype=np.int64)
    assignment = [-1] * n
    for i in regret_order:
        row = order_all[i]
        chosen = -1
        for j in row[:64]:
            if remaining[j] > 0:
                chosen = int(j)
                break
        if chosen < 0:
            chosen = int(row[int(np.argmax(remaining[row] > 0))])
        assignment[int(i)] = chosen
        remaining[chosen] -= 1
    assert all(a >= 0 for a in assignment)
    return assignment

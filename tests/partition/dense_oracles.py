"""Dense n x k reference kernels for the partition stage.

These are the straightforward full-matrix implementations the kd-tree
kernels in ``repro.partition`` replaced.  They are kept verbatim as
test oracles: the production kernels must reproduce their outputs byte
for byte, ties included.  ``spatial_blocks`` restates the block rule of
``balanced_kmeans`` with plain Python sorts and integer arithmetic.
"""

from __future__ import annotations

import numpy as np

#: Upper bound on the elements of any point x center distance block.
_CHUNK_ELEMS = 4_000_000


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


def spatial_blocks(coords: np.ndarray, max_size: int, block: int) -> list[list[int]]:
    """The spatial block rule written out with Python sorts.

    A set of more than ``block`` (and more than ``max_size``) points is
    sorted along its wider axis (that coordinate, the other one, then
    input index) and cut at the multiple of ``max_size`` nearest half
    the set (ties to the even multiple, at least ``max_size``); each
    half is split again the same way.  Returns every block's input
    indices, in the order of its last cut.
    """
    pts = coords.tolist()

    def split(idx: list[int]) -> list[list[int]]:
        n = len(idx)
        if n <= block or n <= max_size:
            return [idx]
        xs = [pts[i][0] for i in idx]
        ys = [pts[i][1] for i in idx]
        axis = 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1
        ordered = sorted(idx, key=lambda i: (pts[i][axis], pts[i][1 - axis], i))
        # half the set is n / (2 * max_size) clusters: round that to the
        # nearest integer, a tie (remainder exactly max_size) to even
        whole, rest = divmod(n, 2 * max_size)
        count = whole + (rest > max_size or (rest == max_size and whole % 2))
        cut = max(1, count) * max_size
        return split(ordered[:cut]) + split(ordered[cut:])

    return split(list(range(len(pts))))

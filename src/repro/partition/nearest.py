"""Exact nearest-center candidates from a kd-tree (Manhattan metric).

The Lloyd labelling in :mod:`repro.partition.kmeans` only ever looks
at the few centers closest to each point, never at the whole n x k
distance matrix.  :func:`nearest_candidates` answers that with one
``cKDTree(centers)`` query and re-derives every candidate distance with
the same ``|x - cx| + |y - cy|`` float expression as :func:`dense_row`,
so a caller can prove, row by row, whether the candidates decide its
result exactly or the row has to be resolved densely.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

#: Relative slack on the candidate window edge.  The kd-tree prunes with
#: incrementally updated float bounds, so a center it skipped may sit a
#: few ulps of the coordinate span closer than the last candidate it
#: returned; 1e-9 of the span dwarfs that rounding.
_REL_MARGIN = 1e-9


def nearest_candidates(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray, m: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's ``min(m, k)`` nearest centers, sorted by distance.

    Returns ``(idx, dist, limit)``: ``idx`` and ``dist`` are ``(n, m)``
    center indices and their exact distances, ascending per row (equal
    distances in no particular order).  Every center outside row ``i``'s
    candidates is strictly farther from point ``i`` than ``limit[i]``
    (``inf`` when the candidates are all ``k`` centers), so any
    candidate distance below ``limit[i]`` is a proven row minimum
    prefix.
    """
    n, k = len(px), len(cx)
    m = min(m, k)
    tree = cKDTree(np.column_stack([cx, cy]))
    _, idx = tree.query(np.column_stack([px, py]), k=m, p=1)
    idx = idx.reshape(n, m)
    dist = np.abs(px[:, None] - cx[idx]) + np.abs(py[:, None] - cy[idx])
    order = np.argsort(dist, axis=1, kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    if m == k:
        limit = np.full(n, np.inf)
    else:
        span = max(np.abs(px).max(), np.abs(py).max(),
                   np.abs(cx).max(), np.abs(cy).max())
        limit = dist[:, -1] - _REL_MARGIN * (1.0 + span)
    return idx, dist, limit


def dense_row(x: float, y: float, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """One point's distances to every center: the exact fallback."""
    return np.abs(x - cx) + np.abs(y - cy)

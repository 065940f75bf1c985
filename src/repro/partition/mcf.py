"""Balanced assignment: the capacitated transportation problem behind
K-means + min-cost flow (paper Section 3.2).

``balanced_assign`` assigns points to capacitated centers at minimum
total Manhattan distance.  While the capacity-expanded cost matrix fits
``lsa_limit`` entries it is solved exactly by scipy's rectangular
assignment; beyond that a regret-greedy heuristic claims centers from
kd-tree candidates, as recorded in DESIGN.md.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.geometry import Point
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.partition.nearest import dense_row, nearest_candidates

_LOG = get_logger("partition")

#: Nearest centers fetched per point for the regret-greedy claims.  Rows
#: whose free centers all lie beyond the window (late points under tight
#: capacity) resolve through their dense row.
_CLAIM_CANDIDATES = 16


def balanced_assign(
    points: list[Point],
    centers: list[Point],
    capacity: int,
    lsa_limit: int = 40_000_000,
) -> list[int]:
    """Assign each point to a center; no center exceeds ``capacity``.

    Two tiers, both minimising total Manhattan distance:

    * exact rectangular assignment (scipy's Jonker-Volgenant) with
      capacity-duplicated center columns while the expanded cost matrix
      (n x k*capacity) fits ``lsa_limit`` entries;
    * regret-greedy on kd-tree candidates beyond that (documented in
      DESIGN.md); it never builds the n x k distance matrix.
    """
    n, k = len(points), len(centers)
    if n == 0:
        return []
    if k * capacity < n:
        raise ValueError(
            f"capacity infeasible: {k} centers x {capacity} < {n} points"
        )
    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    cx = np.array([c.x for c in centers])
    cy = np.array([c.y for c in centers])
    if n * k * capacity <= lsa_limit:
        dists = (np.abs(px[:, None] - cx[None, :])
                 + np.abs(py[:, None] - cy[None, :]))
        return _assign_lsa(dists, capacity)
    _LOG.debug("balanced_assign: %d x %d beyond LSA limit; regret-greedy",
               n, k)
    METRICS.inc("partition.assign_regret_greedy")
    return _regret_greedy_kd(px, py, cx, cy, capacity)


def _assign_lsa(dists: np.ndarray, capacity: int) -> list[int]:
    """Exact capacitated assignment via rectangular LSA on duplicated
    center columns."""
    METRICS.inc("partition.assign_lsa")
    expanded = np.repeat(dists, capacity, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    assignment = [-1] * dists.shape[0]
    total = 0.0
    for r, c in zip(rows, cols):
        assignment[int(r)] = int(c) // capacity
        total += float(expanded[r, c])
    METRICS.observe("partition.assign_cost_um", total)
    assert all(a >= 0 for a in assignment)
    return assignment


def _regret_greedy_kd(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
    capacity: int,
) -> list[int]:
    """Regret-ordered greedy with overflow spill, from kd candidates.

    Points with the most to lose (largest second-best minus best
    distance) claim first, each taking the first non-full center in its
    distance order (``np.argsort`` of its row); full centers are masked
    out as they saturate.  The result is bit for bit what that rule
    gives on the dense n x k matrix, which is never built:

    * best/second come from the candidates whenever the second is
      provably below every non-candidate;
    * a claim is decided by the candidates when the first free one is
      provably nearer than every non-candidate and no other free center
      ties it (equal distances have no defined argsort order).

    Any other row (a near-tie at the window edge, a tie between free
    centers, or a window whose centers are all full) sorts its dense
    row once, exactly as the dense kernel would.
    """
    n, k = len(px), len(cx)
    idx, dist, limit = nearest_candidates(px, py, cx, cy, _CLAIM_CANDIDATES)
    second_col = min(1, k - 1)
    best = dist[:, 0].copy()
    second = dist[:, second_col].copy()
    dense_orders: dict[int, np.ndarray] = {}

    def dense_order(i: int) -> tuple[np.ndarray, np.ndarray]:
        row = dense_row(px[i], py[i], cx, cy)
        order = dense_orders[i] = np.argsort(row)
        return row, order

    for i in np.flatnonzero(second >= limit).tolist():
        row, order = dense_order(i)
        best[i] = row[order[0]]
        second[i] = row[order[second_col]]
    regret_order = np.argsort(-(second - best))

    cand_idx, cand_dist, cand_limit = idx.tolist(), dist.tolist(), limit.tolist()
    remaining = np.full(k, capacity, dtype=np.int64)
    assignment = [-1] * n
    for i in regret_order.tolist():
        order = dense_orders.get(i)
        chosen = -1 if order is not None else _claim_from_window(
            cand_idx[i], cand_dist[i], cand_limit[i], remaining)
        if chosen < 0:
            if order is None:
                _, order = dense_order(i)
            # feasibility (k * capacity >= n) guarantees a free center
            free = remaining[order] > 0
            chosen = int(order[int(np.argmax(free))])
        assignment[i] = chosen
        remaining[chosen] -= 1
    if dense_orders:
        METRICS.inc("partition.exact_fallback_rows", len(dense_orders))
    return assignment


def _claim_from_window(
    row_idx: list[int], row_dist: list[float], limit: float,
    remaining: np.ndarray,
) -> int:
    """The row's first free candidate when the window decides the
    claim, else -1."""
    for p, j in enumerate(row_idx):
        if remaining[j] > 0:
            d = row_dist[p]
            if d >= limit:
                return -1  # a non-candidate center may be as near
            for q in range(p + 1, len(row_idx)):
                if row_dist[q] != d:
                    break
                if remaining[row_idx[q]] > 0:
                    return -1  # free centers tie: argsort order decides
            return j
    return -1  # every candidate is full

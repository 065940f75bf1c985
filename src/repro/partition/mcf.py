"""Min-cost flow (successive shortest paths) and balanced assignment.

The solver is written from scratch: residual graph in flat arrays,
Bellman-Ford for the first potential, then Dijkstra with Johnson
potentials per augmentation.  It is exact and fast enough for the
assignment instances the hierarchical flow produces at its upper levels
(hundreds of points, tens of clusters).

``balanced_assign`` is the user-facing entry point: assign points to
capacitated centers at minimum total distance.  Small instances run
this solver on nearest-candidate arcs (re-widening on infeasibility) or
scipy's exact rectangular assignment; beyond ``lsa_limit`` a
regret-greedy heuristic claims centers from kd-tree candidates, as
recorded in DESIGN.md.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.geometry import Point
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.partition.nearest import dense_row, nearest_candidates

_LOG = get_logger("partition")

_INF = float("inf")

#: Nearest centers fetched per point for the regret-greedy claims.  Rows
#: whose free centers all lie beyond the window (late points under tight
#: capacity) resolve through their dense row.
_CLAIM_CANDIDATES = 16


class _Graph:
    """Residual graph with paired forward/backward arcs."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cost: list[float] = []

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)
        self.cost.append(-cost)
        return idx


def min_cost_flow(
    num_nodes: int,
    edges: list[tuple[int, int, float, float]],
    source: int,
    sink: int,
    flow: float,
) -> tuple[float, list[float]]:
    """Send ``flow`` units from source to sink at minimum cost.

    ``edges`` are (u, v, capacity, cost).  Returns (total_cost, flow per
    input edge).  Raises ValueError when the requested flow is infeasible.
    """
    g = _Graph(num_nodes)
    ids = [g.add_edge(u, v, cap, cost) for u, v, cap, cost in edges]

    potential = _bellman_ford(g, source)
    remaining = flow
    total_cost = 0.0
    while remaining > 1e-12:
        dist, prev_edge = _dijkstra(g, source, potential)
        if dist[sink] == _INF:
            raise ValueError(
                f"min_cost_flow: only {flow - remaining} of {flow} units "
                "are routable"
            )
        for i in range(g.n):
            if dist[i] < _INF:
                potential[i] += dist[i]
        # find bottleneck along the augmenting path
        push = remaining
        v = sink
        while v != source:
            e = prev_edge[v]
            push = min(push, g.cap[e])
            v = g.to[e ^ 1]
        v = sink
        while v != source:
            e = prev_edge[v]
            g.cap[e] -= push
            g.cap[e ^ 1] += push
            total_cost += push * g.cost[e]
            v = g.to[e ^ 1]
        remaining -= push

    flows = [g.cap[i ^ 1] for i in ids]
    return total_cost, flows


def _bellman_ford(g: _Graph, source: int) -> list[float]:
    dist = [0.0] * g.n  # zero init handles disconnected nodes gracefully
    for _ in range(g.n - 1):
        changed = False
        for u in range(g.n):
            du = dist[u]
            for e in g.head[u]:
                if g.cap[e] > 1e-12 and du + g.cost[e] < dist[g.to[e]] - 1e-12:
                    dist[g.to[e]] = du + g.cost[e]
                    changed = True
        if not changed:
            break
    return dist


def _dijkstra(
    g: _Graph, source: int, potential: list[float]
) -> tuple[list[float], list[int]]:
    dist = [_INF] * g.n
    prev_edge = [-1] * g.n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u] + 1e-12:
            continue
        for e in g.head[u]:
            if g.cap[e] <= 1e-12:
                continue
            v = g.to[e]
            nd = d + g.cost[e] + potential[u] - potential[v]
            if nd < dist[v] - 1e-12:
                dist[v] = nd
                prev_edge[v] = e
                heapq.heappush(heap, (nd, v))
    return dist, prev_edge


# ----------------------------------------------------------------------
# Balanced assignment
# ----------------------------------------------------------------------
def balanced_assign(
    points: list[Point],
    centers: list[Point],
    capacity: int,
    candidates: int = 5,
    exact_limit: int = 4_000,
    lsa_limit: int = 40_000_000,
) -> list[int]:
    """Assign each point to a center; no center exceeds ``capacity``.

    Three tiers, all minimising total Manhattan distance:

    * exact min-cost flow on nearest-candidate arcs for small instances
      (the from-scratch solver in this module);
    * exact rectangular assignment (scipy's Jonker-Volgenant) with
      capacity-duplicated center columns while the expanded cost matrix
      fits ``lsa_limit`` entries;
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
    cand = min(max(candidates, 1), k)
    if n * cand <= exact_limit or n * k * capacity <= lsa_limit:
        dists = (np.abs(px[:, None] - cx[None, :])
                 + np.abs(py[:, None] - cy[None, :]))
        while n * cand <= exact_limit:
            assignment = _assign_mcf(dists, capacity, cand)
            if assignment is not None:
                METRICS.inc("partition.assign_mcf")
                return assignment
            METRICS.inc("partition.assign_mcf_widened")
            if cand == k:
                raise AssertionError("full candidate set must be feasible")
            cand = min(k, cand * 2)
        if n * k * capacity <= lsa_limit:
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


def _assign_mcf(
    dists: np.ndarray, capacity: int, cand: int
) -> list[int] | None:
    n, k = dists.shape
    nearest = np.argsort(dists, axis=1)[:, :cand]
    source = n + k
    sink = n + k + 1
    edges: list[tuple[int, int, float, float]] = []
    arc_meta: list[tuple[int, int]] = []
    for i in range(n):
        edges.append((source, i, 1.0, 0.0))
        arc_meta.append((-1, -1))
        for j in nearest[i]:
            edges.append((i, n + int(j), 1.0, float(dists[i, j])))
            arc_meta.append((i, int(j)))
    for j in range(k):
        edges.append((n + j, sink, float(capacity), 0.0))
        arc_meta.append((-1, -1))
    try:
        cost, flows = min_cost_flow(n + k + 2, edges, source, sink, float(n))
    except ValueError:
        return None  # candidate restriction infeasible; caller widens
    METRICS.observe("partition.assign_cost_um", cost)
    assignment = [-1] * n
    for (i, j), f in zip(arc_meta, flows):
        if i >= 0 and f > 0.5:
            assignment[i] = j
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

"""Spatial grid index over the edges of a routed tree.

The edge-reattachment refinement asks, for every node v, "which tree
edge passes closest to v?".  Brute force answers by scanning all edges
and rejecting most of them with a bounding-box distance lower bound;
this module buckets edge bounding boxes into a uniform grid so the scan
only touches edges whose boxes come near v.  The pruning is *exact*:
the candidate set returned by :meth:`EdgeGridIndex.candidates_within`
is a superset of every edge whose bbox lower bound beats the caller's
radius, so a caller that evaluates the returned candidates with the
same arithmetic as the brute-force scan — in ascending node-id order,
which is exactly the order ``RoutedTree.node_ids()`` yields — selects
the *identical* attachment, ties included.

Edges are keyed by their child node id.  Mutations during a refinement
pass (an edge is split, a node is re-homed) are handled by lazy
deletion: every (re-)insertion stamps the edge with a fresh epoch, and
stale grid entries are skipped at query time.  An edge whose bounding
box would cover more than :data:`_OVERSIZE_CELLS` cells is kept on an
"oversize" list that every query checks, which bounds the insertion
cost of pathological long diagonals without losing exactness.
"""

from __future__ import annotations

from repro.netlist.tree import RoutedTree

#: Insertion cap: edges covering more cells than this go on the
#: always-checked oversize list instead of being replicated per cell.
_OVERSIZE_CELLS = 64


class EdgeGridIndex:
    """Uniform grid over edge bounding boxes, built per refinement pass."""

    def __init__(self, tree: RoutedTree):
        self._tree = tree
        # bbox[cid] = (x1, y1, x2, y2) of the edge parent(cid) -> cid
        self.bbox: dict[int, tuple[float, float, float, float]] = {}
        # elen[cid] = cached edge_length(cid) (manhattan + detour)
        self.elen: dict[int, float] = {}
        self._epoch: dict[int, int] = {}
        self._cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._oversize: list[tuple[int, int]] = []
        # work counters, updated O(1) per query (never in the scan loops);
        # the refinement pass flushes them into repro.obs.METRICS
        self.n_queries = 0
        self.n_probed = 0   # distinct edges whose bbox bound was evaluated
        self.n_kept = 0     # of those, survivors returned to the caller

        xs: list[float] = []
        ys: list[float] = []
        for nid in tree.node_ids():
            loc = tree.node(nid).location
            xs.append(loc.x)
            ys.append(loc.y)
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
        n_edges = max(len(xs) - 1, 1)
        # ~1 edge per cell in expectation; never degenerate
        self.cell = max(span / max(n_edges ** 0.5, 1.0), 1e-6)
        for nid in tree.node_ids():
            if tree.node(nid).parent is not None:
                self.add_edge(nid)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add_edge(self, cid: int) -> None:
        """(Re-)index the edge parent(cid) -> cid after a mutation.

        The previous incarnation of the edge, if any, is invalidated by
        the epoch bump; its grid entries die lazily.
        """
        tree = self._tree
        node = tree.node(cid)
        parent = tree.node(node.parent)
        x1, x2 = ((parent.location.x, node.location.x)
                  if parent.location.x <= node.location.x
                  else (node.location.x, parent.location.x))
        y1, y2 = ((parent.location.y, node.location.y)
                  if parent.location.y <= node.location.y
                  else (node.location.y, parent.location.y))
        self.bbox[cid] = (x1, y1, x2, y2)
        self.elen[cid] = tree.edge_length(cid)
        epoch = self._epoch.get(cid, 0) + 1
        self._epoch[cid] = epoch
        c = self.cell
        ix1, ix2 = int(x1 // c), int(x2 // c)
        iy1, iy2 = int(y1 // c), int(y2 // c)
        if (ix2 - ix1 + 1) * (iy2 - iy1 + 1) > _OVERSIZE_CELLS:
            # compact on append: entries whose epoch went stale (the edge
            # was re-indexed, possibly as non-oversize) would otherwise
            # linger and be re-scanned with their current bbox forever
            eps = self._epoch
            self._oversize = [
                (oid, ep) for oid, ep in self._oversize if eps.get(oid) == ep
            ]
            self._oversize.append((cid, epoch))
            return
        entry = (cid, epoch)
        cells = self._cells
        for ix in range(ix1, ix2 + 1):
            for iy in range(iy1, iy2 + 1):
                bucket = cells.get((ix, iy))
                if bucket is None:
                    cells[(ix, iy)] = [entry]
                else:
                    bucket.append(entry)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def candidates_within(self, vx: float, vy: float,
                          radius: float) -> list[int]:
        """Child ids of every edge whose bbox lies within ``radius``
        (Manhattan) of (vx, vy), sorted ascending.

        Expands square rings of cells around the query point; ring r is
        provably at least (r-1)*cell away, so expansion stops as soon as
        no closer edge can exist.  The sorted order lets the caller
        replicate the brute-force scan's first-best tie-breaking.
        """
        self.n_queries += 1
        if radius <= 0.0:
            return []
        c = self.cell
        ivx, ivy = int(vx // c), int(vy // c)
        epoch = self._epoch
        bboxes = self.bbox
        seen: set[int] = set()
        probe: list[int] = []
        max_ring = int(radius / c) + 1
        for r in range(max_ring + 1):
            if r > 0 and (r - 1) * c >= radius:
                break
            for ix, iy in self._ring(ivx, ivy, r):
                bucket = self._cells.get((ix, iy))
                if bucket is None:
                    continue
                for cid, ep in bucket:
                    if cid in seen or epoch.get(cid) != ep:
                        continue
                    seen.add(cid)
                    probe.append(cid)
        for cid, ep in self._oversize:
            if cid in seen or epoch.get(cid) != ep:
                continue
            seen.add(cid)
            probe.append(cid)
        out = []
        for cid in probe:
            x1, y1, x2, y2 = bboxes[cid]
            dx = x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)
            dy = y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0)
            if dx + dy < radius:
                out.append(cid)
        self.n_probed += len(seen)
        self.n_kept += len(out)
        out.sort()
        return out

    @staticmethod
    def _ring(cx: int, cy: int, r: int):
        """Cells at Chebyshev distance exactly ``r`` from (cx, cy)."""
        if r == 0:
            yield (cx, cy)
            return
        for ix in range(cx - r, cx + r + 1):
            yield (ix, cy - r)
            yield (ix, cy + r)
        for iy in range(cy - r + 1, cy + r):
            yield (cx - r, iy)
            yield (cx + r, iy)

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
pass (an edge is split, a node is re-homed) re-index the edge: its old
entry leaves every cell that held it, so a query meets only live
edges.  Each entry carries the edge's bounding box, so the bound is
tested without a lookup.  An edge whose bounding box would cover more
than :data:`_OVERSIZE_CELLS` cells is kept on an "oversize" list that
every query checks, which bounds the insertion cost of pathological
long diagonals without losing exactness.
"""

from __future__ import annotations

from repro.netlist.tree import RoutedTree, TreeNode

#: Insertion cap: edges covering more cells than this go on the
#: always-checked oversize list instead of being replicated per cell.
_OVERSIZE_CELLS = 64


#: A grid entry: the edge's child id and its bounding box (x1, y1, x2, y2).
_Entry = tuple[int, float, float, float, float]


class EdgeGridIndex:
    """Uniform grid over edge bounding boxes, built per refinement pass.

    The grid is a dense ``nx x ny`` array of buckets spanning the nodes'
    bounding box at build time.  A reattachment pass never moves a node
    and only adds Steiner points on existing L-routes, so every edge it
    indexes later still fits; an edge that would not goes on the
    oversize list, which keeps the index exact for any input.

    Edge boxes and lengths are measured at build time, which the
    reattachment pass reaches only at its first evaluated node; the
    buckets are filled on the first query.
    """

    def __init__(self, tree: RoutedTree):
        self._tree = tree
        # bbox[cid] = (x1, y1, x2, y2) of the edge parent(cid) -> cid
        self.bbox: dict[int, tuple[float, float, float, float]] = {}
        # elen[cid] = cached edge_length(cid) (manhattan + detour)
        self.elen: dict[int, float] = {}
        # _cells[ix][iy]: entries of the edges whose bbox touches that
        # cell, indices offset by (_ix0, _iy0); None until the first query
        self._cells: list[list[list[_Entry]]] | None = None
        self._oversize: list[_Entry] = []
        # work counters, updated O(1) per query (never in the scan loops);
        # the refinement pass flushes them into repro.obs.METRICS
        self.n_queries = 0
        self.n_probed = 0   # distinct edges whose bbox bound was evaluated
        self.n_kept = 0     # of those, survivors returned to the caller

        nodes = [tree.node(nid) for nid in tree.node_ids()]
        xs = [node.location.x for node in nodes]
        ys = [node.location.y for node in nodes]
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
        span = max(xmax - xmin, ymax - ymin, 1e-6)
        n_edges = max(len(xs) - 1, 1)
        # ~1 edge per cell in expectation; never degenerate
        self.cell = c = max(span / max(n_edges ** 0.5, 1.0), 1e-6)
        self._ix0 = int(xmin // c)
        self._iy0 = int(ymin // c)
        self._nx = int(xmax // c) - self._ix0 + 1
        self._ny = int(ymax // c) - self._iy0 + 1
        self._measure([node for node in nodes if node.parent is not None])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add_edge(self, cid: int) -> None:
        """(Re-)index the edge parent(cid) -> cid after a mutation,
        replacing the edge's previous entry, if any."""
        filled = self._cells is not None
        if filled and cid in self.bbox:
            self._move(cid, list.remove)
        self._measure([self._tree.node(cid)])
        if filled:
            self._move(cid, list.append)

    def _measure(self, nodes: list[TreeNode]) -> None:
        """Record the bbox and length of the edge above each node."""
        node_of = self._tree.node
        bbox, elen = self.bbox, self.elen
        for node in nodes:
            loc = node.location
            ploc = node_of(node.parent).location
            px, py, lx, ly = ploc.x, ploc.y, loc.x, loc.y
            bbox[node.nid] = (px if px <= lx else lx, py if py <= ly else ly,
                              lx if px <= lx else px, ly if py <= ly else py)
            # RoutedTree.edge_length's arithmetic
            elen[node.nid] = (abs(lx - px) + abs(ly - py)) + node.detour

    def _fill(self) -> list[list[list[_Entry]]]:
        self._cells = [[[] for _ in range(self._ny)] for _ in range(self._nx)]
        for cid in self.bbox:
            self._move(cid, list.append)
        return self._cells

    def _move(self, cid: int, op) -> None:
        """Apply ``op`` (append or remove) with the edge's entry to every
        bucket its bbox touches, or to the oversize list."""
        x1, y1, x2, y2 = self.bbox[cid]
        entry = (cid, x1, y1, x2, y2)
        c = self.cell
        ix1, ix2 = int(x1 // c) - self._ix0, int(x2 // c) - self._ix0
        iy1, iy2 = int(y1 // c) - self._iy0, int(y2 // c) - self._iy0
        if ((ix2 - ix1 + 1) * (iy2 - iy1 + 1) > _OVERSIZE_CELLS
                or ix1 < 0 or iy1 < 0 or ix2 >= self._nx
                or iy2 >= self._ny):
            op(self._oversize, entry)  # or outside the build-time span
            return
        for column in self._cells[ix1:ix2 + 1]:
            for bucket in column[iy1:iy2 + 1]:
                op(bucket, entry)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def candidates_within(self, vx: float, vy: float,
                          radius: float) -> list[int]:
        """Child ids of every edge whose bbox lies within ``radius``
        (Manhattan) of (vx, vy), sorted ascending.

        Scans the square of cells within Chebyshev ring ``R`` of the
        query cell, where ``R`` is the last ring that can still hold a
        closer edge: ring r is provably at least (r-1)*cell away.  The
        bbox bound is applied as each distinct edge is met.  The sorted
        order lets the caller replicate the brute-force scan's
        first-best tie-breaking.
        """
        self.n_queries += 1
        if radius <= 0.0:
            return []
        c = self.cell
        max_ring = int(radius / c) + 1
        r = 0
        while r < max_ring and r * c < radius:
            r += 1
        ivx = int(vx // c) - self._ix0
        ivy = int(vy // c) - self._iy0
        y_lo = ivy - r if ivy > r else 0
        y_hi = ivy + r + 1
        cells = self._cells if self._cells is not None else self._fill()
        seen: set[int] = set()
        out: list[int] = []
        for column in cells[ivx - r if ivx > r else 0:ivx + r + 1]:
            for bucket in column[y_lo:y_hi]:
                for cid, x1, y1, x2, y2 in bucket:
                    if cid in seen:
                        continue
                    seen.add(cid)
                    dx = x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)
                    dy = y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0)
                    if dx + dy < radius:
                        out.append(cid)
        for cid, x1, y1, x2, y2 in self._oversize:
            if cid in seen:
                continue
            seen.add(cid)
            dx = x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)
            dy = y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0)
            if dx + dy < radius:
                out.append(cid)
        self.n_probed += len(seen)
        self.n_kept += len(out)
        out.sort()
        return out

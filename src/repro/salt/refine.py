"""Post-construction refinement of shallow-light trees.

The SALT code base applies three rectilinear refinements: *steinerisation*
(sharing common H/V runs between sibling edges), *L-shape flipping*
(choosing the bend of each L route to maximise overlap) and redundant-node
removal.  On the point-to-point tree representation used here, the first
two are subsumed by median steinerisation: the median of a node triple
lies on a shortest Manhattan path between every pair, so adopting it as a
Steiner point realises exactly the overlap an optimal L-flip would
expose, *never increasing any source-to-sink path length* — the property
that keeps the shallowness guarantee intact.  (The children-pair collapse
preserves path lengths exactly; the parent-child collapse can shorten
them, which the dirty-region bookkeeping below must account for.)

The edge-reattachment pass here is the flow's hottest loop (it runs on
every routed net, several times).  It is a grid-indexed scan: a spatial
hash over edge bounding boxes (:mod:`repro.salt.grid_index`), one
subtree set per evaluated mover for the ancestry test, and a
dirty-region worklist so later sweeps only revisit nodes near an edge
that changed.  Median steinerisation shares a *clean set* with it: a
node whose last median evaluation found nothing is skipped until a
mutation changes its parent or children.

The pass is *output-identical* to the published all-pairs scan — the
bbox-distance lower bound that the brute-force scan already uses for
rejection makes the pruning exact, and candidates are evaluated in the
same ascending-id order so ties break identically (see
docs/ALGORITHMS.md for the argument).  The brute-force scan lives on as
the test oracle in ``tests/salt/brute_oracle.py``, and the property test
``tests/salt/test_refine_property.py`` enforces the equivalence.
"""

from __future__ import annotations

import os

from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree
from repro.netlist.tree_ops import prune_redundant_steiner
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.rsmt.steinerize import median_steinerize
from repro.salt.grid_index import EdgeGridIndex

_LOG = get_logger("salt")

#: Debug switch: re-validate tree invariants after every ``refine`` call.
#: Off in the nominal flow (33+ O(n) walks per full-chip run); the test
#: suite turns it on via ``tests/conftest.py`` or ``REPRO_VALIDATE_REFINE``.
VALIDATE_REFINED = os.environ.get("REPRO_VALIDATE_REFINE", "") not in ("", "0")


class _RefineState:
    """Dirty-region tracking shared by the sweeps of one refinement run.

    ``events`` is an append-only log of bounding boxes of edges that
    changed (were created, re-routed, or had their subtree's path
    lengths / availability changed).  ``stamp[nid]`` is the event-log
    length when ``nid`` was last evaluated; a node may be skipped iff no
    event logged since then lies within its attachment radius.  Skipping
    is exact: a node whose neighbourhood is untouched since an evaluation
    that found no move still has no move (every input of the evaluation
    is covered by the event log — see docs/ALGORITHMS.md).

    ``clean`` holds the nodes whose last median evaluation found no
    gain (see :func:`repro.rsmt.steinerize.median_steinerize`); a
    reattachment discards every node whose parent or children it
    changes.
    """

    __slots__ = ("events", "stamp", "clean")

    def __init__(self) -> None:
        self.events: list[tuple[float, float, float, float]] = []
        self.stamp: dict[int, int] = {}
        self.clean: set[int] = set()


def refine(
    tree: RoutedTree, max_passes: int = 6, validate: bool | None = None
) -> float:
    """Refine in place; returns wirelength saved.

    Alternates median steinerisation (local triple sharing) with edge
    reattachment (global overlap discovery) until neither helps.  Both
    operations never increase any source-to-sink path length, so the
    shallowness guarantee of the caller survives refinement.

    ``validate`` gates the post-refinement invariant walk; it defaults
    to the module-level :data:`VALIDATE_REFINED` debug flag (off in the
    nominal flow, on under the test suite).
    """
    before = tree.wirelength()
    state = _RefineState()
    with TRACER.span("refine", nodes=len(tree)):
        for i in range(max_passes):
            with TRACER.span("pass", n=i):
                changes: list[tuple[float, float, float, float]] = []
                gained = median_steinerize(tree, changes=changes,
                                           clean=state.clean)
                state.events.extend(changes)
                gained += edge_reattach_pass(tree, state=state)
            if gained <= 1e-9:
                break
        prune_redundant_steiner(tree)
    if validate if validate is not None else VALIDATE_REFINED:
        tree.validate()
    else:
        _spot_check(tree)
    saved = before - tree.wirelength()
    METRICS.observe("salt.refine_gain_um", saved)
    _LOG.debug("refine: %.3f um saved over %d nodes", saved, len(tree))
    return saved


def _spot_check(tree: RoutedTree) -> None:
    """Constant-cost structural sanity check for the nominal path.

    The full ``validate()`` walk is gated behind :data:`VALIDATE_REFINED`
    (33+ O(n) walks per flow run); this touches only the root and its
    immediate children, so gross corruption — a lost root, broken
    reciprocal pointers at the top of the tree — still fails loudly in
    production instead of propagating silently through the flow.
    """
    root = tree.node(tree.root)
    if root.parent is not None:
        raise ValueError(
            f"refined tree root {tree.root} has parent {root.parent}"
        )
    for cid in root.children:
        parent = tree.node(cid).parent
        if parent != tree.root:
            raise ValueError(
                f"parent pointer of {cid} is {parent}, "
                f"expected root {tree.root}"
            )


def edge_reattach_pass(
    tree: RoutedTree,
    tol: float = 1e-9,
    *,
    state: _RefineState | None = None,
) -> float:
    """Re-home nodes onto nearby points of existing tree edges.

    For every non-root node v, find the point q on some tree edge's
    L-shaped route that is closest to v; if attaching v at q both saves
    wire and does not lengthen v's root path, split the edge at q with a
    Steiner node and reparent v there.  This is the overlap discovery the
    SALT code base performs via L-shape flipping: wirelength strictly
    decreases and every path length is non-increasing, so it is safe
    after any construction (SALT, CBS, RSMT).  Returns wire saved.

    ``state`` carries dirty-region knowledge across calls within one
    :func:`refine` run so converged regions are not re-scanned.
    """
    if state is None:
        state = _RefineState()
    total_gain = 0.0
    n_skips = 0
    n_moves = 0
    # path lengths and the edge index are built at the first node that
    # must be evaluated: a pass whose nodes are all clean needs neither
    pl: dict[int, float] = {}
    index: EdgeGridIndex | None = None
    events = state.events
    stamp = state.stamp
    clean = state.clean
    root = tree.root
    nodes = tree.nodes
    edge_length = tree.edge_length
    improved = True
    passes = 0
    while improved and passes < 8:
        improved = False
        passes += 1
        for vid in tree.preorder():
            if vid == root:
                continue
            v = nodes[vid]
            if v.detour > tol:
                continue
            s = stamp.get(vid)
            n_events = len(events)
            if s is not None:
                if s == n_events:
                    n_skips += 1
                    continue
                # dirty iff some changed region since the last evaluation
                # intrudes into v's attachment radius
                loc = v.location
                # the index measures edges with edge_length's arithmetic
                length = edge_length(vid) if index is None else elen[vid]
                if not _events_touch(events, s, n_events,
                                     loc.x, loc.y, length - tol):
                    stamp[vid] = n_events
                    n_skips += 1
                    continue
            if index is None:
                pl = tree.path_lengths()
                index = EdgeGridIndex(tree)
                bbox, elen = index.bbox, index.elen
            move = _best_attachment_indexed(tree, pl, vid, tol, index)
            stamp[vid] = len(events)
            if move is None:
                continue
            edge_child, q, gain, new_pl = move
            parent_of_edge = nodes[edge_child].parent
            clean.discard(v.parent)
            split = _split_edge(tree, edge_child, q, tol)
            tree.reparent(vid, split)
            clean.discard(vid)
            clean.discard(split)
            if split not in pl:
                pl[split] = pl[parent_of_edge] + tree.edge_length(split)
            index.add_edge(vid)
            if split != parent_of_edge and split != edge_child:
                clean.discard(parent_of_edge)
                clean.discard(edge_child)
                index.add_edge(split)
                index.add_edge(edge_child)
                events.append(bbox[split])
                events.append(bbox[edge_child])
            # only v's subtree shifts (by a non-positive delta); its edges
            # also change availability/path-length for other movers, so
            # each one is logged as a dirty region
            delta = new_pl - pl[vid]
            stack = [vid]
            while stack:
                nid = stack.pop()
                pl[nid] += delta
                events.append(bbox[nid])
                stack.extend(nodes[nid].children)
            total_gain += gain
            n_moves += 1
            improved = True
    # flush the locally-accumulated work counters in one registry visit
    # per call — the inner loops above never touch shared state
    METRICS.inc("salt.dirty_skips", n_skips)
    METRICS.inc("salt.reattach_moves", n_moves)
    queries, probed, kept = ((0, 0, 0) if index is None else
                             (index.n_queries, index.n_probed, index.n_kept))
    METRICS.inc("salt.grid.queries", queries)
    METRICS.inc("salt.grid.probed", probed)
    METRICS.inc("salt.grid.pruned", probed - kept)
    if total_gain > 0.0:
        METRICS.observe("salt.reattach_gain_um", total_gain)
    return total_gain


def _events_touch(
    events: list[tuple[float, float, float, float]],
    start: int,
    end: int,
    vx: float,
    vy: float,
    radius: float,
) -> bool:
    """True iff an event bbox in ``[start, end)`` intrudes into the
    Manhattan ``radius`` around (vx, vy)."""
    for x1, y1, x2, y2 in events[start:end]:
        dx = x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)
        dy = y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0)
        if dx + dy < radius:
            return True
    return False


def _best_attachment_indexed(
    tree: RoutedTree,
    pl: dict[int, float],
    vid: int,
    tol: float,
    index: EdgeGridIndex,
) -> tuple[int, Point, float, float] | None:
    nodes = tree.nodes
    v = nodes[vid]
    vx, vy = v.location.x, v.location.y
    current_cost = index.elen[vid]
    # An edge lies in v's subtree iff it is v's own edge or its parent is
    # in the subtree.  v's own edge and its children's edges are told
    # apart by id; deeper ones need the subtree set, built on first use
    # (a leaf never needs it).
    blocked: set[int] | None = None
    pl_budget = pl[vid] + tol
    best = None
    best_gain = tol
    bbox = index.bbox
    for cid in index.candidates_within(vx, vy, current_cost - tol):
        if cid == vid:
            continue
        child = nodes[cid]
        parent_id = child.parent
        if parent_id is None or parent_id == vid or child.detour > tol:
            continue
        x1, y1, x2, y2 = bbox[cid]
        lb = (x1 - vx if x1 > vx else (vx - x2 if vx > x2 else 0.0)) \
            + (y1 - vy if y1 > vy else (vy - y2 if vy > y2 else 0.0))
        if current_cost - lb <= best_gain:
            continue
        if v.children:
            if blocked is None:
                blocked = _subtree_of(tree, vid)
            if parent_id in blocked:
                continue
        ploc = nodes[parent_id].location
        cloc = child.location
        qx, qy, walk, d = _nearest_on_l(ploc.x, ploc.y, cloc.x, cloc.y,
                                        vx, vy)
        gain = current_cost - d
        if gain <= best_gain:
            continue
        new_pl = pl[parent_id] + walk + d
        if new_pl > pl_budget:
            continue  # would lengthen v's path: unsafe for shallowness
        best = (cid, qx, qy, gain, new_pl)
        best_gain = gain
    if best is None:
        return None
    cid, qx, qy, gain, new_pl = best
    return cid, Point(qx, qy), gain, new_pl


def _subtree_of(tree: RoutedTree, vid: int) -> set[int]:
    """Ids of ``vid`` and all its descendants."""
    nodes = tree.nodes
    seen = {vid}
    stack = list(nodes[vid].children)
    while stack:
        nid = stack.pop()
        seen.add(nid)
        stack.extend(nodes[nid].children)
    return seen


def _nearest_on_l(
    ax: float, ay: float, bx: float, by: float, tx: float, ty: float
) -> tuple[float, float, float, float]:
    """Closest point to (tx, ty) on either L-route (ax, ay) -> (bx, by).

    Returns ``(qx, qy, walk, d)``: the point, the walk distance from a
    to it along the route, and its Manhattan distance to the target.
    The four legs are tried in the order a -> (ax, by) -> b, then
    a -> (bx, ay) -> b; a leg replaces the best so far only when it is
    closer by more than 1e-12, so the first of near-equal legs wins.

    This is the reference's per-leg clamp (``tests/salt/brute_oracle.py``)
    with the shared work done once, and yields the same floats bit for
    bit: the varying coordinate of both legs parallel to an axis clamps
    to the same value, ``cx`` or ``cy``; the fixed coordinate of a leg
    clamps to the target's own value only when the two compare equal
    (``min``/``max`` keep their first argument on ties, which matters
    for signed zeros); and the zero terms the reference adds to a
    non-negative walk or distance are identities.
    """
    # min/max with Python's tie rule: the first argument wins
    xlo = bx if bx < ax else ax
    xhi = bx if bx > ax else ax
    ylo = by if by < ay else ay
    yhi = by if by > ay else ay
    m = xlo if xlo > tx else tx
    cx = xhi if xhi < m else m
    m = ylo if ylo > ty else ty
    cy = yhi if yhi < m else m
    dx_c = abs(cx - tx)
    dy_c = abs(cy - ty)
    qx, qy = ax, ay
    best_d = abs(ax - tx) + abs(ay - ty)
    walk = 0.0
    d = abs(ax - tx) + dy_c                       # leg a -> (ax, by)
    if d < best_d - 1e-12:
        qx, qy, best_d = (tx if tx == ax else ax), cy, d
        walk = abs(ay - cy)
    d = dx_c + abs(by - ty)                       # leg (ax, by) -> b
    if d < best_d - 1e-12:
        qx, qy, best_d = cx, (ty if ty == by else by), d
        walk = abs(ay - by) + abs(ax - cx)
    d = dx_c + abs(ay - ty)                       # leg a -> (bx, ay)
    if d < best_d - 1e-12:
        qx, qy, best_d = cx, (ty if ty == ay else ay), d
        walk = abs(ax - cx)
    d = abs(bx - tx) + dy_c                       # leg (bx, ay) -> b
    if d < best_d - 1e-12:
        qx, qy, best_d = (tx if tx == bx else bx), cy, d
        walk = abs(ax - bx) + abs(ay - cy)
    return qx, qy, walk, best_d


def _split_edge(tree: RoutedTree, child_id: int, q: Point, tol: float) -> int:
    """Insert a Steiner node at q on the edge parent(child) -> child.

    q must lie on a monotone (shortest) route between the endpoints, so
    the child's path length is unchanged.  Returns the new node's id (or
    an existing endpoint when q coincides with it).
    """
    child = tree.node(child_id)
    parent_id = child.parent
    assert parent_id is not None
    parent = tree.node(parent_id)
    if manhattan(q, parent.location) <= tol:
        return parent_id
    if manhattan(q, child.location) <= tol:
        return child_id
    split = tree.add_child(parent_id, q)
    tree.reparent(child_id, split)
    return split

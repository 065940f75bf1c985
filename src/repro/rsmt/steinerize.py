"""Median steinerisation of a routed tree.

Any three points u, v, w on the Manhattan plane have a unique median point
m = (median(x), median(y)) through which a Steiner topology connecting the
three is never longer than any two direct edges.  Replacing star patterns
around a node with median Steiner points is the classic cheap RSMT
improvement; applied to exhaustion it converts a rectilinear MST into a
Steiner tree typically within a few percent of optimal for clock-net sizes.
"""

from __future__ import annotations

from repro.geometry import Point
from repro.netlist.tree import RoutedTree
from repro.obs.metrics import METRICS


def _median(a: float, b: float, c: float) -> float:
    """Middle value of three, the element ``sorted((a, b, c))[1]`` picks.

    Decided by comparisons; on ties the stable sort's choice is kept,
    so signed zeros come out the same too.
    """
    if b < a:
        if c < b:
            return b
        return c if c < a else a
    if c < a:
        return a
    return c if c < b else b


def median_steinerize(
    tree: RoutedTree,
    tol: float = 1e-9,
    max_passes: int = 20,
    changes: list[tuple[float, float, float, float]] | None = None,
    clean: set[int] | None = None,
) -> float:
    """Insert median Steiner points in place; returns total length saved.

    Two patterns are collapsed greedily, best gain first within each pass:

    * two children c1, c2 of a common node u -> Steiner point
      m(u, c1, c2) adopted as a child of u with c1, c2 below it;
    * a node u with parent p and child c -> Steiner point m(p, u, c)
      spliced between p and the pair {u, c}.

    Passes repeat until a full pass yields no gain.  Only detour-free edges
    participate (detours encode deliberate snaking that must be preserved).

    ``changes``, when given, collects bounding boxes (x1, y1, x2, y2)
    of every edge a collapse created — the dirty regions the
    edge-reattachment pass uses to avoid re-scanning untouched parts of
    the tree.  The children-pair collapse changes no path length (the
    median lies on a shortest path from u to each child), so its single
    three-point box is exhaustive.  The parent-child collapse *shortens*
    the path to c and hence to c's whole subtree, making every edge of
    that subtree a potentially easier attachment target even though its
    geometry is untouched; each of those edges is therefore logged too.

    A node whose evaluation finds no gain joins the *clean* set and is
    skipped while it stays there.  Evaluating node u reads only u's
    parent, detour and children list, and the locations and detours of
    those nodes, so the skip is exact while none of these change.  Every
    collapse discards each node whose parent or children it changes, so
    within one call later passes only re-evaluate what a collapse
    touched.  ``clean``, when given, is the set itself, kept by a caller
    across calls; a caller that edits the tree between calls must
    discard the nodes whose inputs its edits change (for ``reparent``
    and ``add_child``, those whose parent or children change).  Skips
    are counted as ``salt.median_skips``.
    """
    if clean is None:
        clean = set()
    total_gain = 0.0
    skips = 0
    for _ in range(max_passes):
        gain, n = _one_pass(tree, tol, changes, clean)
        skips += n
        if gain <= tol:
            break
        total_gain += gain
    METRICS.inc("salt.median_skips", skips)
    return total_gain


def _one_pass(
    tree: RoutedTree,
    tol: float,
    changes: list[tuple[float, float, float, float]] | None,
    clean: set[int],
) -> tuple[float, int]:
    gain = 0.0
    skips = 0
    nodes = tree.nodes
    for nid in tree.preorder():
        if nid not in nodes:
            continue
        if nid in clean:
            skips += 1
            continue
        if not nodes[nid].children:
            # both patterns need a child: a leaf never gains
            clean.add(nid)
            continue
        pair_gain = _collapse_children_pairs(tree, nid, tol, changes, clean)
        gain += pair_gain
        pc_gain = _collapse_parent_child(tree, nid, tol, changes, clean)
        gain += pc_gain
        if pair_gain == 0.0 and pc_gain == 0.0:
            clean.add(nid)
    return gain, skips


def _note_change(
    changes: list[tuple[float, float, float, float]] | None,
    pts: tuple[Point, ...],
) -> None:
    if changes is not None:
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        changes.append((min(xs), min(ys), max(xs), max(ys)))


def _collapse_children_pairs(
    tree: RoutedTree,
    nid: int,
    tol: float,
    changes: list[tuple[float, float, float, float]] | None,
    clean: set[int],
) -> float:
    nodes = tree.nodes
    gain = 0.0
    improved = True
    while improved:
        improved = False
        node = nodes[nid]
        ux, uy = node.location.x, node.location.y
        kids = []
        for c in node.children:
            child = nodes[c]
            if child.detour <= tol:
                kids.append((c, child.location.x, child.location.y))
        best = None
        best_gain = tol
        for i in range(len(kids)):
            c1, x1, y1 = kids[i]
            d1 = abs(ux - x1) + abs(uy - y1)
            for j in range(i + 1, len(kids)):
                c2, x2, y2 = kids[j]
                mx = _median(ux, x1, x2)
                my = _median(uy, y1, y2)
                # summed per point pair, as manhattan() sums are, so the
                # floats are the reference's
                old = d1 + (abs(ux - x2) + abs(uy - y2))
                new = ((abs(ux - mx) + abs(uy - my))
                       + (abs(mx - x1) + abs(my - y1))
                       + (abs(mx - x2) + abs(my - y2)))
                if old - new > best_gain:
                    best_gain = old - new
                    best = (c1, c2, mx, my)
        if best is not None:
            c1, c2, mx, my = best
            steiner = tree.add_child(nid, Point(mx, my))
            tree.reparent(c1, steiner)
            tree.reparent(c2, steiner)
            clean.discard(nid)
            clean.discard(c1)
            clean.discard(c2)
            # the median lies inside the bbox of the three endpoints, so
            # this box covers all three new edges
            _note_change(changes, (node.location, nodes[c1].location,
                                   nodes[c2].location))
            gain += best_gain
            improved = True
    return gain


def _collapse_parent_child(
    tree: RoutedTree,
    nid: int,
    tol: float,
    changes: list[tuple[float, float, float, float]] | None,
    clean: set[int],
) -> float:
    nodes = tree.nodes
    node = nodes[nid]
    if node.parent is None or node.detour > tol:
        return 0.0
    parent = nodes[node.parent]
    px, py = parent.location.x, parent.location.y
    ux, uy = node.location.x, node.location.y
    d_pu = abs(px - ux) + abs(py - uy)
    best_gain = tol
    best = None
    for cid in node.children:
        child = nodes[cid]
        if child.detour > tol:
            continue
        cx, cy = child.location.x, child.location.y
        mx = _median(px, ux, cx)
        my = _median(py, uy, cy)
        old = d_pu + (abs(ux - cx) + abs(uy - cy))
        new = ((abs(px - mx) + abs(py - my))
               + (abs(mx - ux) + abs(my - uy))
               + (abs(mx - cx) + abs(my - cy)))
        if old - new > best_gain:
            best_gain = old - new
            best = (cid, mx, my)
    if best is None:
        return 0.0
    cid, mx, my = best
    steiner = tree.add_child(node.parent, Point(mx, my))
    clean.discard(node.parent)
    clean.discard(nid)
    clean.discard(cid)
    tree.reparent(nid, steiner)
    tree.reparent(cid, steiner)
    _note_change(changes, (parent.location, node.location,
                           nodes[cid].location))
    if changes is not None:
        # Unlike the children-pair pattern, this collapse *shortens* the
        # path to cid: the new route p -> m -> c replaces p -> u -> c and
        # is shorter by |m,u| plus the gain.  Every node below cid gets
        # the same reduction, so edges deep in cid's subtree — geometry
        # untouched — become easier attachment targets for movers whose
        # path-length budget test previously failed.  Flag each of them
        # so the reattachment pass's dirty-region skip stays exact.
        stack = list(nodes[cid].children)
        while stack:
            wid = stack.pop()
            w = nodes[wid]
            _note_change(changes, (nodes[w.parent].location, w.location))
            stack.extend(w.children)
    return best_gain

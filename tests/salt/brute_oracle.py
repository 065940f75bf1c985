"""Reference implementations the production refine must reproduce.

* The brute-force SALT edge reattachment: the published all-pairs scan
  — every node against every edge — that the grid-indexed pass in
  ``repro.salt.refine`` replaced, with its Point-based nearest point on
  an L-route and its edge split.
* Median steinerisation as it was before the clean set and the float
  arithmetic (``repro.rsmt.steinerize``): a full pass over every node,
  ``Point`` medians picked with ``sorted()``.

Both are kept verbatim as test oracles and share no arithmetic with
production: the production code must reproduce their trees and gains
byte for byte, ties included.
"""

from __future__ import annotations

from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree


def _edge_reattach_brute(tree: RoutedTree, tol: float) -> float:
    total_gain = 0.0
    improved = True
    passes = 0
    pl = tree.path_lengths()
    while improved and passes < 8:
        improved = False
        passes += 1
        for vid in list(tree.preorder()):
            if vid == tree.root or vid not in tree:
                continue
            v = tree.node(vid)
            if v.detour > tol:
                continue  # snaked edges encode deliberate delay
            move = _best_attachment(tree, pl, vid, tol)
            if move is None:
                continue
            edge_child, q, gain, new_pl = move
            parent_of_edge = tree.node(edge_child).parent
            split = _split_edge(tree, edge_child, q, tol)
            tree.reparent(vid, split)
            if split not in pl:
                pl[split] = pl[parent_of_edge] + tree.edge_length(split)
            # only v's subtree shifts (by a non-positive delta)
            delta = new_pl - pl[vid]
            stack = [vid]
            while stack:
                nid = stack.pop()
                pl[nid] += delta
                stack.extend(tree.node(nid).children)
            total_gain += gain
            improved = True
    return total_gain


def _best_attachment(
    tree: RoutedTree, pl: dict[int, float], vid: int, tol: float
) -> tuple[int, Point, float, float] | None:
    v = tree.node(vid)
    vx, vy = v.location.x, v.location.y
    current_cost = tree.edge_length(vid)
    blocked = _subtree_of(tree, vid)
    best = None
    best_gain = tol
    for cid in tree.node_ids():
        child = tree.node(cid)
        if child.parent is None or cid in blocked or child.detour > tol:
            continue
        if child.parent in blocked:
            continue
        p = tree.node(child.parent)
        # cheap reject: distance from v to the edge's bounding box lower-
        # bounds the distance to any L-route of the edge
        px, py = p.location.x, p.location.y
        cx, cy = child.location.x, child.location.y
        x1, x2 = (px, cx) if px <= cx else (cx, px)
        y1, y2 = (py, cy) if py <= cy else (cy, py)
        lb = max(x1 - vx, vx - x2, 0.0) + max(y1 - vy, vy - y2, 0.0)
        if current_cost - lb <= best_gain:
            continue
        q, walk = _nearest_on_l(p.location, child.location, v.location)
        d = manhattan(q, v.location)
        gain = current_cost - d
        if gain <= best_gain:
            continue
        new_pl = pl[child.parent] + walk + d
        if new_pl > pl[vid] + tol:
            continue  # would lengthen v's path: unsafe for shallowness
        best = (cid, q, gain, new_pl)
        best_gain = gain
    return best


def _subtree_of(tree: RoutedTree, vid: int) -> set[int]:
    seen = {vid}
    stack = [vid]
    while stack:
        nid = stack.pop()
        for c in tree.node(nid).children:
            seen.add(c)
            stack.append(c)
    return seen


def _nearest_on_l(a: Point, b: Point, target: Point) -> tuple[Point, float]:
    """Closest point to ``target`` on either L-route a -> b.

    Returns (point, walk distance from a to that point along the route).
    """
    best_q = a
    best_d = manhattan(a, target)
    best_walk = 0.0
    for corner in (Point(a.x, b.y), Point(b.x, a.y)):
        for seg_a, seg_b, walk0 in (
            (a, corner, 0.0),
            (corner, b, manhattan(a, corner)),
        ):
            qx = min(max(target.x, min(seg_a.x, seg_b.x)), max(seg_a.x, seg_b.x))
            qy = min(max(target.y, min(seg_a.y, seg_b.y)), max(seg_a.y, seg_b.y))
            q = Point(qx, qy)
            d = manhattan(q, target)
            if d < best_d - 1e-12:
                best_d = d
                best_q = q
                best_walk = walk0 + manhattan(seg_a, q)
    return best_q, best_walk


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


# ----------------------------------------------------------------------
# Median steinerisation, full passes
# ----------------------------------------------------------------------
def _median(a: Point, b: Point, c: Point) -> Point:
    return Point(
        sorted((a.x, b.x, c.x))[1],
        sorted((a.y, b.y, c.y))[1],
    )


def median_steinerize(
    tree: RoutedTree,
    tol: float = 1e-9,
    max_passes: int = 20,
    changes: list[tuple[float, float, float, float]] | None = None,
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
    """
    total_gain = 0.0
    for _ in range(max_passes):
        gain = _one_pass(tree, tol, changes)
        if gain <= tol:
            break
        total_gain += gain
    return total_gain


def _one_pass(
    tree: RoutedTree,
    tol: float,
    changes: list[tuple[float, float, float, float]] | None,
) -> float:
    gain = 0.0
    for nid in list(tree.preorder()):
        if nid not in tree:
            continue
        gain += _collapse_children_pairs(tree, nid, tol, changes)
        gain += _collapse_parent_child(tree, nid, tol, changes)
    return gain


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
    changes: list[tuple[float, float, float, float]] | None = None,
) -> float:
    gain = 0.0
    improved = True
    while improved:
        improved = False
        node = tree.node(nid)
        children = [c for c in node.children if tree.node(c).detour <= tol]
        best = None
        best_gain = tol
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                c1, c2 = children[i], children[j]
                p1 = tree.node(c1).location
                p2 = tree.node(c2).location
                m = _median(node.location, p1, p2)
                old = manhattan(node.location, p1) + manhattan(node.location, p2)
                new = (
                    manhattan(node.location, m)
                    + manhattan(m, p1)
                    + manhattan(m, p2)
                )
                if old - new > best_gain:
                    best_gain = old - new
                    best = (c1, c2, m)
        if best is not None:
            c1, c2, m = best
            steiner = tree.add_child(nid, m)
            tree.reparent(c1, steiner)
            tree.reparent(c2, steiner)
            # the median lies inside the bbox of the three endpoints, so
            # this box covers all three new edges
            _note_change(changes, (node.location, tree.node(c1).location,
                                   tree.node(c2).location))
            gain += best_gain
            improved = True
    return gain


def _collapse_parent_child(
    tree: RoutedTree,
    nid: int,
    tol: float,
    changes: list[tuple[float, float, float, float]] | None = None,
) -> float:
    node = tree.node(nid)
    if node.parent is None or node.detour > tol:
        return 0.0
    parent = tree.node(node.parent)
    best_gain = tol
    best = None
    for cid in node.children:
        child = tree.node(cid)
        if child.detour > tol:
            continue
        m = _median(parent.location, node.location, child.location)
        old = manhattan(parent.location, node.location) + manhattan(
            node.location, child.location
        )
        new = (
            manhattan(parent.location, m)
            + manhattan(m, node.location)
            + manhattan(m, child.location)
        )
        if old - new > best_gain:
            best_gain = old - new
            best = (cid, m)
    if best is None:
        return 0.0
    cid, m = best
    steiner = tree.add_child(node.parent, m)
    tree.reparent(nid, steiner)
    tree.reparent(cid, steiner)
    _note_change(changes, (parent.location, node.location,
                           tree.node(cid).location))
    if changes is not None:
        # Unlike the children-pair pattern, this collapse *shortens* the
        # path to cid: the new route p -> m -> c replaces p -> u -> c and
        # is shorter by |m,u| plus the gain.  Every node below cid gets
        # the same reduction, so edges deep in cid's subtree — geometry
        # untouched — become easier attachment targets for movers whose
        # path-length budget test previously failed.  Flag each of them
        # so the reattachment pass's dirty-region skip stays exact.
        stack = list(tree.node(cid).children)
        while stack:
            wid = stack.pop()
            w = tree.node(wid)
            _note_change(changes, (tree.node(w.parent).location,
                                   w.location))
            stack.extend(w.children)
    return best_gain

"""Brute-force reference for SALT edge reattachment.

This is the published all-pairs scan — every node against every edge —
that the grid-indexed pass in ``repro.salt.refine`` replaced.  It is
kept verbatim as the test oracle: the production pass must reproduce
its trees and gains byte for byte, ties included.
"""

from __future__ import annotations

from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree
from repro.salt.refine import _nearest_on_l, _split_edge


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

"""Tree surgery used by CBS and the hierarchical flow.

Paper Fig. 2 passes trees between BST and SALT as *topologies*; Step 2
eliminates redundant Steiner nodes and Step 4 legalises the tree so that
(1) it is binary and (2) load pins are leaf nodes.  Those operations live
here, together with rectilinearisation.
"""

from __future__ import annotations

from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree


def prune_redundant_steiner(
    tree: RoutedTree, preserve_length: bool = False, tol: float = 1e-9
) -> int:
    """Remove useless Steiner nodes in place; returns how many were removed.

    Always removes Steiner *leaves* (no sink, no buffer, no children).
    Pass-through Steiner nodes (exactly one child) are spliced out:

    * with ``preserve_length=False`` (topology extraction, CBS Step 2) every
      pass-through goes — path lengths may shrink, which is fine because the
      result is re-embedded afterwards;
    * with ``preserve_length=True`` (final cleanup, CBS Step 5) only nodes
      lying exactly on a shortest Manhattan path between their neighbours
      and carrying no detour are removed, so wirelength, path lengths and
      therefore skew are all untouched.
    """
    removed = 0
    changed = True
    while changed:
        changed = False
        for nid in tree.postorder():
            if nid == tree.root:
                continue
            node = tree.node(nid)
            if not node.is_steiner:
                continue
            if not node.children:
                tree.splice_out(nid)
                removed += 1
                changed = True
                continue
            if len(node.children) != 1:
                continue
            child = tree.node(node.children[0])
            parent = tree.node(node.parent)  # type: ignore[index]
            if preserve_length:
                on_path = (
                    abs(
                        manhattan(parent.location, node.location)
                        + manhattan(node.location, child.location)
                        - manhattan(parent.location, child.location)
                    )
                    <= tol
                )
                if not on_path or node.detour > tol:
                    continue
                # fold both detours onto the merged edge
                child.detour += node.detour
            tree.splice_out(nid)
            removed += 1
            changed = True
    return removed


def binarize(tree: RoutedTree) -> int:
    """Make every node have at most two children (CBS Step 4 rule 1).

    Extra children are pushed down through zero-length Steiner nodes at the
    same location, so geometry and delays are unchanged.  Returns the number
    of Steiner nodes added.
    """
    added = 0
    # snapshot ids first: we add nodes while iterating
    for nid in list(tree.preorder()):
        while len(tree.node(nid).children) > 2:
            node = tree.node(nid)
            aux = tree.add_child(nid, node.location)
            # move the last two children under the auxiliary node
            for child_id in node.children[-3:-1]:
                tree.reparent(child_id, aux, detour=tree.node(child_id).detour)
            added += 1
    return added


def sinks_to_leaves(tree: RoutedTree) -> int:
    """Ensure every sink is a leaf (CBS Step 4 rule 2).

    A sink node with children is turned into a Steiner node, and a new
    zero-length leaf at the same location takes over the sink.  Returns the
    number of sinks demoted.
    """
    demoted = 0
    for nid in list(tree.preorder()):
        node = tree.node(nid)
        if node.sink is None or not node.children:
            continue
        sink = node.sink
        node.sink = None
        tree.add_child(nid, node.location, sink=sink)
        demoted += 1
    return demoted


def rectilinear_segments(
    tree: RoutedTree,
) -> list[tuple[Point, Point]]:
    """Embed each edge as an L-shape; returns H/V segments for reporting.

    Detour wire (snaking) has no canonical geometric embedding, so detours
    are not drawn; wirelength accounting always uses
    :meth:`RoutedTree.wirelength`, which includes them.
    """
    segments: list[tuple[Point, Point]] = []
    for nid in tree.preorder():
        node = tree.node(nid)
        if node.parent is None:
            continue
        a = tree.node(node.parent).location
        b = node.location
        corner = Point(a.x, b.y)
        if corner.manhattan_to(a) > 1e-12:
            segments.append((a, corner))
        if corner.manhattan_to(b) > 1e-12:
            segments.append((corner, b))
    return segments


def realize_detours(tree: RoutedTree, tol: float = 1e-9) -> int:
    """Convert abstract detour lengths into explicit serpentine geometry.

    DME and skew repair record wire snaking as a per-edge ``detour``
    length; downstream consumers that care about *where* wire lies (the
    congestion router, SPEF sections keyed by segments, SVG plots) need
    real geometry.  Each snaked edge parent -> child is replaced by

        parent -> (parent.x, y*) -> (child.x, y*) -> child

    where y* overshoots the child's y by detour/2, so the realised length
    is exactly ``manhattan + detour``.  Elmore delay is preserved exactly:
    a distributed RC line's delay depends only on its length and endpoint
    loads, not its shape, and splitting a line into collinear segments is
    delay-neutral.  Returns the number of edges realised.
    """
    realized = 0
    for nid in list(tree.preorder()):
        node = tree.node(nid)
        if node.parent is None or node.detour <= tol:
            continue
        parent = tree.node(node.parent)
        over = node.detour / 2.0
        a, b = parent.location, node.location
        # overshoot on the y axis, away from the parent when possible
        direction = 1.0 if b.y >= a.y else -1.0
        y_star = b.y + direction * over
        n1 = tree.add_child(node.parent, Point(a.x, y_star))
        n2 = tree.add_child(n1, Point(b.x, y_star))
        tree.reparent(nid, n2, detour=0.0)
        realized += 1
    if realized:
        tree.validate()
    return realized


def tree_from_parent_map(
    root_location: Point,
    locations: list[Point],
    parents: list[int],
    sinks: dict[int, "object"] | None = None,
) -> RoutedTree:
    """Build a RoutedTree from parallel arrays (index -1 = the root).

    ``parents[i]`` is the index of node *i*'s parent within ``locations``,
    or -1 to attach directly to the root.  ``sinks`` optionally maps an
    index to its :class:`~repro.netlist.sink.Sink`.  Handy for algorithms
    (RSMT, SALT) that naturally produce parent arrays.
    """
    if len(locations) != len(parents):
        raise ValueError("locations and parents must have equal length")
    sinks = sinks or {}
    tree = RoutedTree(root_location)
    ids: dict[int, int] = {}

    def attach(i: int) -> int:
        if i in ids:
            return ids[i]
        parent_idx = parents[i]
        parent_id = tree.root if parent_idx < 0 else attach(parent_idx)
        ids[i] = tree.add_child(parent_id, locations[i], sink=sinks.get(i))
        return ids[i]

    for i in range(len(locations)):
        attach(i)
    return tree

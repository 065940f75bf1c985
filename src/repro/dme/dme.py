"""ZST / BST deferred-merge embedding over a merge topology.

``bst_dme(net, skew_bound)`` is the main entry point.  The skew bound's
unit follows the delay model: micrometres of path length for
:class:`~repro.dme.models.LinearDelay` (the default), picoseconds for
:class:`~repro.dme.models.ElmoreDelay`.  ``zst_dme`` is the zero-bound
special case; ``bst_dme_on_topology`` embeds a *fixed* topology — the mode
CBS Step 5 uses after extracting the SALT-relaxed topology.
"""

from __future__ import annotations

from typing import Callable

from repro.geometry import Point, rotate45, unrotate45
from repro.geometry.segment import Rect
from repro.netlist.net import ClockNet
from repro.netlist.sink import Sink
from repro.netlist.topology import TopologyNode
from repro.netlist.tree import RoutedTree
from repro.dme.merging import MergeSpec, merge_specs
from repro.dme.models import DelayModel, LinearDelay
from repro.dme.topology import TOPOLOGY_GENERATORS
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER


def bst_dme(
    net: ClockNet,
    skew_bound: float,
    model: DelayModel | None = None,
    topology: str | TopologyNode | Callable = "greedy_dist",
) -> RoutedTree:
    """Bounded-skew tree for ``net``.

    ``topology`` selects the merge order: a generator name from
    :data:`~repro.dme.topology.TOPOLOGY_GENERATORS`, a generator callable,
    or an explicit :class:`TopologyNode` tree over exactly the net's sinks.
    """
    topo = _resolve_topology(net, topology)
    model = model or LinearDelay()
    spec = build_merge_tree(topo, model, skew_bound)
    return embed(spec, net.source)


def zst_dme(
    net: ClockNet,
    model: DelayModel | None = None,
    topology: str | TopologyNode | Callable = "greedy_dist",
) -> RoutedTree:
    """Zero-skew tree: BST with a zero bound."""
    return bst_dme(net, skew_bound=0.0, model=model, topology=topology)


def bst_dme_on_topology(
    net: ClockNet,
    topology: TopologyNode,
    skew_bound: float,
    model: DelayModel | None = None,
) -> RoutedTree:
    """Embed a fixed merge topology under a skew bound (CBS Step 5)."""
    return bst_dme(net, skew_bound, model=model, topology=topology)


# ----------------------------------------------------------------------
# Bottom-up phase
# ----------------------------------------------------------------------
def build_merge_tree(
    topo: TopologyNode, model: DelayModel, skew_bound: float
) -> MergeSpec:
    """Run the bottom-up merging pass; returns the root MergeSpec."""
    # iterative postorder to survive deep topologies
    spec_of: dict[int, MergeSpec] = {}
    n_merges = 0
    with TRACER.span("merge_tree", skew_bound=skew_bound):
        stack: list[tuple[TopologyNode, bool]] = [(topo, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_leaf:
                spec_of[id(node)] = _leaf_spec(node.sink)  # type: ignore[arg-type]
                continue
            if not expanded:
                stack.append((node, True))
                stack.append((node.left, False))   # type: ignore[arg-type]
                stack.append((node.right, False))  # type: ignore[arg-type]
                continue
            spec = merge_specs(
                spec_of[id(node.left)],
                spec_of[id(node.right)],
                model,
                skew_bound,
            )
            spec_of[id(node)] = spec
            n_merges += 1
    METRICS.inc("dme.merges", n_merges)
    return spec_of[id(topo)]


def _leaf_spec(sink: Sink) -> MergeSpec:
    return MergeSpec(
        region=Rect.from_point(rotate45(sink.location)),
        lo=sink.subtree_delay,
        hi=sink.subtree_delay,
        cap=sink.cap,
        sink_ref=sink,
    )


# ----------------------------------------------------------------------
# Top-down phase
# ----------------------------------------------------------------------
def embed(spec: MergeSpec, source: Point, tol: float = 1e-6) -> RoutedTree:
    """Top-down embedding of a merge tree into a routed tree.

    Each node is placed at the point of its region nearest (Chebyshev, i.e.
    Manhattan originally) to its already-placed parent.  The realised edge
    length must land inside the arm window the bottom-up pass recorded: a
    shortfall against the window minimum becomes a detour (wire snaking),
    an overshoot of the maximum indicates a bug and raises.  The
    source-to-top edge carries no window — it adds common delay to every
    sink and no skew.
    """
    tree = RoutedTree(source)
    top_point = spec.region.nearest_point(rotate45(source))
    stack: list[tuple[MergeSpec, int, Point, tuple[float, float] | None]] = [
        (spec, tree.root, top_point, None)
    ]
    while stack:
        node_spec, parent_id, point_rot, window = stack.pop()
        parent_loc_rot = rotate45(tree.node(parent_id).location)
        dist = point_rot.chebyshev_to(parent_loc_rot)
        if window is None:
            detour = 0.0
        else:
            w_lo, w_hi = window
            if dist > w_hi + tol:
                raise RuntimeError(
                    f"embedding placed a node {dist:.6f} away but the arm "
                    f"window is [{w_lo:.6f}, {w_hi:.6f}]"
                )
            detour = max(w_lo - dist, 0.0)
        nid = tree.add_child(
            parent_id,
            unrotate45(point_rot),
            sink=node_spec.sink_ref,  # type: ignore[arg-type]
            detour=detour,
        )
        if not node_spec.is_leaf:
            left, right = node_spec.left, node_spec.right
            assert left is not None and right is not None
            stack.append(
                (left, nid, left.region.nearest_point(point_rot),
                 node_spec.win_left)
            )
            stack.append(
                (right, nid, right.region.nearest_point(point_rot),
                 node_spec.win_right)
            )
    tree.validate()
    return tree


def _resolve_topology(
    net: ClockNet, topology: str | TopologyNode | Callable
) -> TopologyNode:
    if isinstance(topology, TopologyNode):
        return topology
    if isinstance(topology, str):
        try:
            generator = TOPOLOGY_GENERATORS[topology]
        except KeyError:
            raise ValueError(
                f"unknown topology generator {topology!r}; "
                f"choose from {sorted(TOPOLOGY_GENERATORS)}"
            ) from None
        return generator(net.sinks)
    return topology(net.sinks)

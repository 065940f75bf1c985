"""Buffer insertion on routed trees.

Two operations the hierarchical flow composes:

* :func:`place_driver` — size and attach the net's driver buffer at the
  tree root (the cluster tap).  The driver is what the next level up sees
  as a sink;
* :func:`split_long_edges` — repeater chains on edges whose span exceeds
  a maximum (the Table 5 wirelength constraint, or the critical
  wirelength of the driving buffer).  Repeaters are placed at even
  spacing along each edge's L-shaped route; edges with detour wire are
  left alone, since snaking has no canonical geometry to place cells on.
"""

from __future__ import annotations

import math

from repro.geometry import Point
from repro.netlist.tree import RoutedTree
from repro.obs.metrics import METRICS
from repro.tech.buffer_library import BufferLibrary, BufferType
from repro.tech.technology import Technology
from repro.timing.elmore import downstream_stage_cap
from repro.buffering.estimation import driver_for_load


#: The driver covers its stage load with this much headroom.
DRIVER_HEADROOM = 1.2


def place_driver(
    tree: RoutedTree,
    lib: BufferLibrary,
    tech: Technology,
) -> BufferType:
    """Attach the minimum-area adequate driver at the tree root.

    The weakest buffer whose drive limit covers the load with
    :data:`DRIVER_HEADROOM` is used: clock distribution pays for
    oversized drivers twice, in area and in the input cap the level
    above must drive, so delay-optimal sizing is reserved for explicit
    calls to :func:`repro.buffering.estimation.driver_for_load`.
    """
    load = downstream_stage_cap(tree, tech)[tree.root]
    driver = lib.smallest_driving(load * DRIVER_HEADROOM)
    tree.set_buffer(tree.root, driver)
    METRICS.inc("buffer.drivers")
    METRICS.observe("buffer.driver_load_ff", load)
    return driver


def split_long_edges(
    tree: RoutedTree,
    lib: BufferLibrary,
    tech: Technology,
    max_span: float,
    slew_in: float = 10.0,
) -> int:
    """Insert repeater buffers so no buffer-free edge span exceeds
    ``max_span``.  Returns the number of buffers inserted."""
    if max_span <= 0:
        raise ValueError(f"max_span must be positive, got {max_span}")
    inserted = 0
    cap_below: dict[int, float] | None = None
    for nid in list(tree.preorder()):
        node = tree.node(nid)
        if node.parent is None or node.detour > 1e-9:
            continue
        length = tree.edge_length(nid)
        if length <= max_span + 1e-9:
            continue
        segments = int(math.ceil(length / max_span))
        parent_id = node.parent
        parent_loc = tree.node(parent_id).location
        if cap_below is None:
            # one walk serves every edge: preorder reaches an edge before
            # any edge below it, and repeaters go in only above the node
            # being split, so no later edge's stage changes
            cap_below = downstream_stage_cap(tree, tech)
        downstream = cap_below[nid]
        # place repeaters at even fractions along the L-route parent->node
        current_parent = parent_id
        for i in range(1, segments):
            frac = i / segments
            loc = _along_l_route(parent_loc, node.location, frac)
            rep_id = tree.add_child(current_parent, loc)
            stage_cap = tech.wire_cap(length / segments) + (
                downstream if i == segments - 1 else 0.0
            )
            tree.set_buffer(rep_id, driver_for_load(lib, stage_cap, slew_in))
            current_parent = rep_id
            inserted += 1
        if current_parent != parent_id:
            tree.reparent(nid, current_parent)
    if inserted:
        tree.validate()
        METRICS.inc("buffer.repeaters", inserted)
    return inserted


def _along_l_route(a: Point, b: Point, frac: float) -> Point:
    """Point at ``frac`` of the way along the L-path a -> corner -> b,
    with the corner at (a.x, b.y)."""
    leg1 = abs(b.y - a.y)
    leg2 = abs(b.x - a.x)
    total = leg1 + leg2
    if total <= 0:
        return a
    walked = frac * total
    if walked <= leg1:
        step = walked if b.y >= a.y else -walked
        return Point(a.x, a.y + step)
    rest = walked - leg1
    step = rest if b.x >= a.x else -rest
    return Point(a.x + step, b.y)

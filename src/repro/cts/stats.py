"""Structural statistics of routed clock trees.

Quality debugging needs more than the scalar Table 6 columns: how deep is
the buffer hierarchy, how balanced are the stage loads, how much wire is
deliberate snaking versus distance.  ``tree_statistics`` computes that
digest; the CLI's ``flow`` command prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.tree import RoutedTree
from repro.tech.technology import Technology
from repro.timing.elmore import downstream_stage_cap


@dataclass(frozen=True, slots=True)
class TreeStatistics:
    """Structural digest of one routed clock tree."""

    num_nodes: int
    num_sinks: int
    num_steiner: int
    num_buffers: int
    max_depth: int                 # tree edges from root to deepest node
    max_buffer_levels: int         # buffers on the deepest buffered path
    total_wirelength: float        # um, detours included
    detour_wirelength: float       # um of deliberate snaking
    stage_loads: dict[int, float]  # fF driven per stage root
    max_fanout: int                # largest child count

    @property
    def detour_fraction(self) -> float:
        if self.total_wirelength <= 0:
            return 0.0
        return self.detour_wirelength / self.total_wirelength

    @property
    def max_stage_load(self) -> float:
        return max(self.stage_loads.values()) if self.stage_loads else 0.0


def tree_statistics(tree: RoutedTree, tech: Technology) -> TreeStatistics:
    """Compute the digest in two linear passes."""
    num_sinks = num_steiner = num_buffers = 0
    total_wl = detour_wl = 0.0
    max_fanout = 0
    depth: dict[int, int] = {}
    buffer_levels: dict[int, int] = {}
    max_depth = 0
    max_buf_levels = 0

    for nid in tree.preorder():
        node = tree.node(nid)
        max_fanout = max(max_fanout, len(node.children))
        if node.is_sink:
            num_sinks += 1
        elif node.is_buffer:
            num_buffers += 1
        elif nid != tree.root:
            num_steiner += 1
        if node.parent is None:
            depth[nid] = 0
            buffer_levels[nid] = 1 if node.is_buffer else 0
        else:
            depth[nid] = depth[node.parent] + 1
            buffer_levels[nid] = buffer_levels[node.parent] + (
                1 if node.is_buffer else 0
            )
            total_wl += tree.edge_length(nid)
            detour_wl += node.detour
        max_depth = max(max_depth, depth[nid])
        max_buf_levels = max(max_buf_levels, buffer_levels[nid])

    cap = downstream_stage_cap(tree, tech)
    stage_loads = {tree.root: cap[tree.root]}
    for nid in tree.buffer_node_ids():
        stage_loads[nid] = cap[nid]
    return TreeStatistics(
        num_nodes=len(tree),
        num_sinks=num_sinks,
        num_steiner=num_steiner,
        num_buffers=num_buffers,
        max_depth=max_depth,
        max_buffer_levels=max_buf_levels,
        total_wirelength=total_wl,
        detour_wirelength=detour_wl,
        stage_loads=stage_loads,
        max_fanout=max_fanout,
    )

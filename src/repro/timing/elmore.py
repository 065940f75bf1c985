"""Elmore RC-tree timing with buffer stages.

The analyzer walks a :class:`~repro.netlist.tree.RoutedTree` once bottom-up
(to compute per-stage downstream capacitance, cutting at buffers, which hide
their fanout behind their input pin cap) and once top-down (to accumulate
arrival times and propagate slew).  Buffer delay uses paper Eq. (6); wire
slew uses Bakoglu's ln(9) metric, combined across stages with the PERI
square-root rule.

Sink ``subtree_delay`` values (insertion-delay estimates from lower levels
of the hierarchy) are added to arrival times at the sinks, so skew/latency
reported here are end-to-end figures for hierarchical trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.netlist.tree import RoutedTree
from repro.tech.technology import LN9, Technology


@dataclass(slots=True)
class TimingReport:
    """Result of one Elmore analysis pass."""

    arrival: dict[int, float]          # ps at every tree node (after buffers)
    sink_arrival: dict[int, float]     # ps at sink nodes, incl. subtree_delay
    stage_load: dict[int, float]       # fF driven by each stage root
    slew: dict[int, float]             # ps slew at every node
    wirelength: float                  # um
    total_cap: float                   # fF: sink pins + buffer pins + wire

    @property
    def latency(self) -> float:
        """Maximum source-to-sink delay (paper's ``latency_max``)."""
        return max(self.sink_arrival.values())

    @property
    def min_delay(self) -> float:
        return min(self.sink_arrival.values())

    @property
    def skew(self) -> float:
        return self.latency - self.min_delay


def downstream_stage_cap(tree: RoutedTree,
                         tech: Technology) -> dict[int, float]:
    """In-stage downstream capacitance at every node.

    The value at a node counts wire and pins below it, but stops at
    buffer inputs: a buffered child subtree contributes only the buffer
    input cap.  The value *at* a buffer node (or the root) is the load
    of the stage it drives, which is what Eq. (6) needs.
    """
    cap: dict[int, float] = {}
    for nid in tree.postorder():
        node = tree.node(nid)
        total = node.sink.cap if node.sink is not None else 0.0
        for child_id in node.children:
            child = tree.node(child_id)
            total += tech.wire_cap(tree.edge_length(child_id))
            if child.is_buffer:
                total += child.buffer.input_cap
            else:
                total += cap[child_id]
        cap[nid] = total
    return cap


class ElmoreAnalyzer:
    """Reusable Elmore timing engine for routed clock trees; the slew at
    a tree's root is an argument of each :meth:`analyze` call."""

    def __init__(self, tech: Technology):
        self._tech = tech

    # ------------------------------------------------------------------
    def analyze(self, tree: RoutedTree,
                input_slew: float = 10.0) -> TimingReport:
        """One bottom-up and one top-down walk over the node objects,
        with ``input_slew`` ps at the root."""
        if not tree.sink_node_ids():
            raise ValueError("cannot analyze a tree with no sinks")
        return self._propagate(
            tree, downstream_stage_cap(tree, self._tech), input_slew
        )

    # ------------------------------------------------------------------
    def _propagate(
        self, tree: RoutedTree, stage_cap: dict[int, float],
        input_slew: float,
    ) -> TimingReport:
        arrival: dict[int, float] = {}
        slew: dict[int, float] = {}
        stage_load: dict[int, float] = {tree.root: stage_cap[tree.root]}
        # per-node wire delay accumulated since the current stage root,
        # used for the PERI slew combination
        stage_wire_delay: dict[int, float] = {}
        # slew at the root of the stage containing each node (source slew
        # or the driving buffer's output slew) — PERIed exactly once
        # against the cumulative in-stage wire contribution
        stage_root_slew: dict[int, float] = {}

        for nid in tree.preorder():
            node = tree.node(nid)
            if node.parent is None:
                arrival[nid] = 0.0
                slew[nid] = input_slew
                stage_wire_delay[nid] = 0.0
                stage_root_slew[nid] = input_slew
            else:
                length = tree.edge_length(nid)
                res = self._tech.wire_res(length)
                # downstream cap seen by this edge (cut at buffers)
                if node.is_buffer:
                    downstream = node.buffer.input_cap
                else:
                    downstream = stage_cap[nid]
                wire_delay = res * (
                    self._tech.wire_cap(length) / 2.0 + downstream
                ) * 1e-3  # ohm*fF -> ps
                arrival[nid] = arrival[node.parent] + wire_delay
                stage_wire_delay[nid] = stage_wire_delay[node.parent] + wire_delay
                stage_root_slew[nid] = stage_root_slew[node.parent]
                slew[nid] = self._peri(
                    stage_root_slew[nid], LN9 * stage_wire_delay[nid]
                )

            if node.is_buffer:
                load = stage_cap[nid]
                stage_load[nid] = load
                arrival[nid] += node.buffer.delay(slew[nid], load)
                slew[nid] = node.buffer.output_slew(load)
                stage_wire_delay[nid] = 0.0
                stage_root_slew[nid] = slew[nid]

        sink_arrival = {
            nid: arrival[nid] + tree.node(nid).sink.subtree_delay
            for nid in tree.sink_node_ids()
        }
        total_cap = self._total_cap(tree)
        return TimingReport(
            arrival=arrival,
            sink_arrival=sink_arrival,
            stage_load=stage_load,
            slew=slew,
            wirelength=tree.wirelength(),
            total_cap=total_cap,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _peri(slew_a: float, slew_b: float) -> float:
        """PERI combination of two slew contributions."""
        return math.sqrt(slew_a * slew_a + slew_b * slew_b)

    def _total_cap(self, tree: RoutedTree) -> float:
        """Clock capacitance: all pins (sink + buffer inputs) + all wire."""
        total = self._tech.wire_cap(tree.wirelength())
        for nid in tree.node_ids():
            node = tree.node(nid)
            if node.sink is not None:
                total += node.sink.cap
            if node.is_buffer:
                total += node.buffer.input_cap
        return total

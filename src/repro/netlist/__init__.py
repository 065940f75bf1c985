"""Netlist substrate: sinks, clock nets, routed trees and tree surgery.

:class:`RoutedTree` is the common currency of the repository — every
topology generator (RSMT, SALT, DME, H-tree, CBS) produces one, the timing
engine analyses one, and the buffering pass decorates one with buffers.
"""

from repro.netlist.sink import Sink
from repro.netlist.net import ClockNet
from repro.netlist.topology import TopologyNode, topology_leaves, topology_depth
from repro.netlist.tree import RoutedTree, TreeNode
from repro.netlist.tree_ops import (
    binarize,
    prune_redundant_steiner,
    realize_detours,
    rectilinear_segments,
    sinks_to_leaves,
)

__all__ = [
    "ClockNet",
    "RoutedTree",
    "Sink",
    "TopologyNode",
    "TreeNode",
    "binarize",
    "prune_redundant_steiner",
    "realize_detours",
    "rectilinear_segments",
    "sinks_to_leaves",
    "topology_depth",
    "topology_leaves",
]

"""Routed clock trees.

A :class:`RoutedTree` is a rooted tree embedded in the Manhattan plane.
Edges are abstract point-to-point connections whose length is the Manhattan
distance between the endpoints plus an optional non-negative ``detour``
(wire snaking that DME introduces to balance delays).  Rectilinearisation
into H/V segments is provided by :func:`repro.netlist.tree_ops.
rectilinear_segments` and only matters for reporting/drawing — every metric
in the paper (wirelength, path length, Elmore delay) is already exact on
this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Point, manhattan
from repro.netlist.sink import Sink
from repro.tech.buffer_library import BufferType


@dataclass(slots=True)
class TreeNode:
    """One node of a routed tree.  Managed by :class:`RoutedTree`."""

    nid: int
    location: Point
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    sink: Sink | None = None
    buffer: BufferType | None = None
    detour: float = 0.0  # extra wirelength on the edge to the parent, um

    @property
    def is_sink(self) -> bool:
        return self.sink is not None

    @property
    def is_buffer(self) -> bool:
        return self.buffer is not None

    @property
    def is_steiner(self) -> bool:
        return self.sink is None and self.buffer is None


class RoutedTree:
    """A mutable rooted tree embedded in the plane.

    Node ids are small integers, stable across splices (removed ids are
    simply retired).  The root is created by the constructor and cannot be
    removed.
    """

    def __init__(self, root_location: Point):
        self._nodes: dict[int, TreeNode] = {}
        self._next_id = 0
        self._root = self._new_node(root_location)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_node(self, location: Point) -> int:
        nid = self._next_id
        self._next_id += 1
        self._nodes[nid] = TreeNode(nid=nid, location=location)
        return nid

    def add_child(
        self,
        parent: int,
        location: Point,
        sink: Sink | None = None,
        detour: float = 0.0,
    ) -> int:
        """Create a node under ``parent``; returns the new node id."""
        if parent not in self._nodes:
            raise KeyError(f"unknown parent node {parent}")
        if detour < 0:
            raise ValueError(f"negative detour {detour}")
        nid = self._new_node(location)
        node = self._nodes[nid]
        node.parent = parent
        node.sink = sink
        node.detour = detour
        self._nodes[parent].children.append(nid)
        return nid

    def set_buffer(self, nid: int, buffer: BufferType | None) -> None:
        self._nodes[nid].buffer = buffer

    def set_detour(self, nid: int, detour: float) -> None:
        if detour < 0:
            raise ValueError(f"negative detour {detour}")
        if nid == self._root:
            raise ValueError("root has no parent edge")
        self._nodes[nid].detour = detour

    def move_node(self, nid: int, location: Point) -> None:
        self._nodes[nid].location = location

    def reparent(self, nid: int, new_parent: int, detour: float = 0.0) -> None:
        """Detach ``nid`` from its parent and attach under ``new_parent``."""
        if nid == self._root:
            raise ValueError("cannot reparent the root")
        if self._would_create_cycle(nid, new_parent):
            raise ValueError(f"reparenting {nid} under {new_parent} creates a cycle")
        node = self._nodes[nid]
        if node.parent is not None:
            self._nodes[node.parent].children.remove(nid)
        node.parent = new_parent
        node.detour = detour
        self._nodes[new_parent].children.append(nid)

    def _would_create_cycle(self, nid: int, new_parent: int) -> bool:
        cur: int | None = new_parent
        while cur is not None:
            if cur == nid:
                return True
            cur = self._nodes[cur].parent
        return False

    def splice_out(self, nid: int) -> None:
        """Remove a non-root node, reattaching its children to its parent.

        Reattached children keep their own detours; the spliced node's
        detour is added onto each child edge so total snaking is preserved
        conservatively (Manhattan distance may shorten — that is the point
        of redundant-node elimination).
        """
        if nid == self._root:
            raise ValueError("cannot splice out the root")
        node = self._nodes[nid]
        parent = node.parent
        assert parent is not None
        self._nodes[parent].children.remove(nid)
        for child_id in list(node.children):
            child = self._nodes[child_id]
            child.parent = parent
            self._nodes[parent].children.append(child_id)
        del self._nodes[nid]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        return self._root

    def node(self, nid: int) -> TreeNode:
        return self._nodes[nid]

    @property
    def nodes(self) -> dict[int, TreeNode]:
        """The id -> node mapping itself, for loops that look up many
        nodes (``nodes[nid]`` skips a method call); read it, never
        mutate it."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def sink_node_ids(self) -> list[int]:
        return [n.nid for n in self._nodes.values() if n.is_sink]

    def sinks(self) -> list[Sink]:
        return [n.sink for n in self._nodes.values() if n.sink is not None]

    def buffer_node_ids(self) -> list[int]:
        return [n.nid for n in self._nodes.values() if n.is_buffer]

    def preorder(self) -> list[int]:
        """Parent-before-child order, iterative."""
        order: list[int] = []
        append = order.append
        stack = [self._root]
        pop = stack.pop
        nodes = self._nodes
        while stack:
            nid = pop()
            append(nid)
            children = nodes[nid].children
            if children:
                stack += children[::-1]
        return order

    def postorder(self) -> list[int]:
        """Child-before-parent order, iterative."""
        return list(reversed(self._postorder_reversed()))

    def _postorder_reversed(self) -> list[int]:
        order: list[int] = []
        stack = [self._root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(self._nodes[nid].children)
        return order

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def edge_length(self, nid: int) -> float:
        """Length of the edge from ``nid`` to its parent (0 for the root)."""
        node = self._nodes[nid]
        if node.parent is None:
            return 0.0
        return manhattan(node.location, self._nodes[node.parent].location) + node.detour

    def wirelength(self) -> float:
        """Total wirelength WL(T), including detours: the builtin ``sum``
        of every node's :meth:`edge_length`, in node order."""
        nodes = self._nodes
        lengths = []
        for node in nodes.values():
            if node.parent is None:
                lengths.append(0.0)
                continue
            loc, ploc = node.location, nodes[node.parent].location
            lengths.append((abs(loc.x - ploc.x) + abs(loc.y - ploc.y))
                           + node.detour)
        return sum(lengths)

    def path_lengths(self) -> dict[int, float]:
        """Path length from the root to every node, in one preorder pass
        (each edge measured as :meth:`edge_length` measures it)."""
        nodes = self._nodes
        lengths: dict[int, float] = {}
        for nid in self.preorder():
            node = nodes[nid]
            if node.parent is None:
                lengths[nid] = 0.0
                continue
            loc, ploc = node.location, nodes[node.parent].location
            lengths[nid] = lengths[node.parent] + (
                (abs(loc.x - ploc.x) + abs(loc.y - ploc.y)) + node.detour)
        return lengths

    def sink_path_lengths(self) -> dict[int, float]:
        """Path lengths restricted to sink nodes."""
        all_pl = self.path_lengths()
        return {nid: all_pl[nid] for nid in self.sink_node_ids()}

    def subtree_sink_count(self) -> dict[int, int]:
        """Number of sink descendants (inclusive) per node."""
        counts = {nid: (1 if self._nodes[nid].is_sink else 0) for nid in self._nodes}
        for nid in self.postorder():
            parent = self._nodes[nid].parent
            if parent is not None:
                counts[parent] += counts[nid]
        return counts

    # ------------------------------------------------------------------
    # Validation / copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ValueError on corruption."""
        seen: set[int] = set()
        stack = [self._root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"cycle or duplicate reference at node {nid}")
            seen.add(nid)
            node = self._nodes[nid]
            for child_id in node.children:
                child = self._nodes.get(child_id)
                if child is None:
                    raise ValueError(f"dangling child id {child_id} of {nid}")
                if child.parent != nid:
                    raise ValueError(
                        f"parent pointer of {child_id} is {child.parent}, "
                        f"expected {nid}"
                    )
                stack.append(child_id)
        if seen != set(self._nodes):
            unreachable = set(self._nodes) - seen
            raise ValueError(f"unreachable nodes: {sorted(unreachable)}")

    def copy(self) -> "RoutedTree":
        """Deep copy (nodes are re-created; sinks/buffers are shared)."""
        clone = RoutedTree.__new__(RoutedTree)
        clone._next_id = self._next_id
        clone._root = self._root
        clone._nodes = {}
        for nid, node in self._nodes.items():
            clone._nodes[nid] = TreeNode(
                nid=node.nid,
                location=node.location,
                parent=node.parent,
                children=list(node.children),
                sink=node.sink,
                buffer=node.buffer,
                detour=node.detour,
            )
        return clone

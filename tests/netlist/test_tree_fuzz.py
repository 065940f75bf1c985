"""Fuzz tests: random sequences of tree surgery keep invariants intact."""

import random

from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.netlist import (
    RoutedTree,
    Sink,
    binarize,
    prune_redundant_steiner,
    sinks_to_leaves,
)


OPS = ("add_steiner", "add_sink", "reparent", "splice", "move", "detour",
       "set_buffer")


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=10, max_value=60))
@settings(max_examples=40, deadline=None)
def test_random_surgery_keeps_tree_valid(seed, n_ops):
    """Apply a random op sequence; the tree must stay structurally valid,
    every metric must stay computable, and sinks must never be lost."""
    rng = random.Random(seed)
    tree = RoutedTree(Point(0, 0))
    sink_names: set[str] = set()
    counter = 0

    from repro.tech import default_library

    lib = default_library()

    for _ in range(n_ops):
        op = rng.choice(OPS)
        ids = tree.node_ids()
        nid = rng.choice(ids)
        try:
            if op == "add_steiner":
                tree.add_child(nid, Point(rng.uniform(0, 50),
                                          rng.uniform(0, 50)))
            elif op == "add_sink":
                name = f"s{counter}"
                counter += 1
                p = Point(rng.uniform(0, 50), rng.uniform(0, 50))
                tree.add_child(nid, p, sink=Sink(name, p))
                sink_names.add(name)
            elif op == "reparent":
                target = rng.choice(ids)
                if nid != tree.root:
                    tree.reparent(nid, target)
            elif op == "splice":
                if nid != tree.root:
                    node = tree.node(nid)
                    if node.sink is not None:
                        sink_names.discard(node.sink.name)
                    # splicing keeps children, so only the node's own sink
                    # (if any) disappears
                    tree.splice_out(nid)
            elif op == "move":
                tree.move_node(nid, Point(rng.uniform(0, 50),
                                          rng.uniform(0, 50)))
            elif op == "detour":
                if nid != tree.root:
                    tree.set_detour(nid, rng.uniform(0, 10))
            elif op == "set_buffer":
                tree.set_buffer(nid, rng.choice(lib.buffers))
        except ValueError:
            # cycles and root ops are rejected loudly: that IS the contract
            continue

        tree.validate()

    assert {s.name for s in tree.sinks()} == sink_names
    # all metrics computable
    tree.wirelength()
    tree.path_lengths()

    # legalisation always succeeds afterwards
    sinks_to_leaves(tree)
    binarize(tree)
    prune_redundant_steiner(tree)
    tree.validate()
    assert {s.name for s in tree.sinks()} == sink_names
    for nid in tree.node_ids():
        node = tree.node(nid)
        assert len(node.children) <= 2
        if node.is_sink:
            assert not node.children

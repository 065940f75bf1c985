"""Tests for tree surgery: pruning, binarisation, legalisation."""

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point
from repro.netlist import (
    RoutedTree,
    Sink,
    binarize,
    prune_redundant_steiner,
    rectilinear_segments,
    sinks_to_leaves,
)
from repro.netlist.tree_ops import tree_from_parent_map


def chain_tree():
    """root -> st1 -> st2 -> sink, with st* redundant pass-throughs."""
    tree = RoutedTree(Point(0, 0))
    s1 = tree.add_child(tree.root, Point(1, 0))
    s2 = tree.add_child(s1, Point(2, 0))
    leaf = tree.add_child(s2, Point(3, 0), sink=Sink("a", Point(3, 0)))
    return tree, leaf


def test_prune_pass_throughs():
    tree, leaf = chain_tree()
    removed = prune_redundant_steiner(tree)
    assert removed == 2
    assert tree.node(leaf).parent == tree.root
    assert tree.wirelength() == 3
    tree.validate()


def test_prune_preserve_length_keeps_off_path_nodes():
    tree = RoutedTree(Point(0, 0))
    elbow = tree.add_child(tree.root, Point(2, 2))  # off any direct path
    tree.add_child(elbow, Point(0, 4), sink=Sink("a", Point(0, 4)))
    before = tree.wirelength()
    removed = prune_redundant_steiner(tree, preserve_length=True)
    assert removed == 0
    assert tree.wirelength() == before


def test_prune_preserve_length_removes_on_path_nodes():
    tree, leaf = chain_tree()
    removed = prune_redundant_steiner(tree, preserve_length=True)
    assert removed == 2
    assert tree.wirelength() == 3


def test_prune_steiner_leaves():
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(1, 1))  # dead steiner leaf
    tree.add_child(tree.root, Point(2, 0), sink=Sink("a", Point(2, 0)))
    removed = prune_redundant_steiner(tree)
    assert removed == 1
    assert len(tree) == 2


def test_binarize():
    tree = RoutedTree(Point(0, 0))
    for i in range(5):
        tree.add_child(tree.root, Point(i + 1, 0),
                       sink=Sink(f"s{i}", Point(i + 1, 0)))
    before_wl = tree.wirelength()
    added = binarize(tree)
    assert added == 3
    tree.validate()
    assert tree.wirelength() == before_wl  # aux nodes are zero-length
    for nid in tree.node_ids():
        assert len(tree.node(nid).children) <= 2
    assert len(tree.sink_node_ids()) == 5


def test_sinks_to_leaves():
    tree = RoutedTree(Point(0, 0))
    mid = tree.add_child(tree.root, Point(1, 0), sink=Sink("mid", Point(1, 0)))
    tree.add_child(mid, Point(2, 0), sink=Sink("end", Point(2, 0)))
    demoted = sinks_to_leaves(tree)
    assert demoted == 1
    tree.validate()
    for nid in tree.sink_node_ids():
        assert not tree.node(nid).children, "sinks must be leaves"
    assert len(tree.sinks()) == 2
    assert tree.wirelength() == 2  # new leaf is zero-length


def test_rectilinear_segments_cover_wirelength():
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(3, 4), sink=Sink("a", Point(3, 4)))
    segs = rectilinear_segments(tree)
    assert len(segs) == 2  # an L-shape
    total = sum(p.manhattan_to(q) for p, q in segs)
    assert total == tree.wirelength()
    for p, q in segs:
        assert p.x == q.x or p.y == q.y, "segments must be H or V"


def test_tree_from_parent_map():
    locs = [Point(1, 0), Point(2, 0), Point(1, 3)]
    parents = [-1, 0, 0]
    sinks = {1: Sink("a", Point(2, 0)), 2: Sink("b", Point(1, 3))}
    tree = tree_from_parent_map(Point(0, 0), locs, parents, sinks)
    tree.validate()
    assert tree.wirelength() == 1 + 1 + 3
    assert sorted(s.name for s in tree.sinks()) == ["a", "b"]
    with pytest.raises(ValueError):
        tree_from_parent_map(Point(0, 0), locs, [-1], sinks)


@given(st.integers(min_value=1, max_value=12), st.randoms())
def test_legalisation_invariants_random(n, rng):
    """binarize + sinks_to_leaves yields CBS Step 4 legality on random trees."""
    tree = RoutedTree(Point(0, 0))
    ids = [tree.root]
    for i in range(n):
        parent = rng.choice(ids)
        sink = Sink(f"s{i}", Point(i, i)) if rng.random() < 0.6 else None
        ids.append(tree.add_child(parent, Point(i, i), sink=sink))
    n_sinks = len(tree.sinks())
    sinks_to_leaves(tree)
    binarize(tree)
    tree.validate()
    assert len(tree.sinks()) == n_sinks
    for nid in tree.node_ids():
        node = tree.node(nid)
        assert len(node.children) <= 2
        if node.is_sink:
            assert not node.children

"""Tests for RoutedTree structure, metrics and surgery primitives."""

import pytest

from repro.geometry import Point
from repro.netlist import RoutedTree, Sink
from repro.tech import default_library


def small_tree():
    """root(0,0) -> s1(2,0) -> s2(2,3); root -> s3(0,4)."""
    tree = RoutedTree(Point(0, 0))
    a = tree.add_child(tree.root, Point(2, 0))
    b = tree.add_child(a, Point(2, 3), sink=Sink("b", Point(2, 3)))
    c = tree.add_child(tree.root, Point(0, 4), sink=Sink("c", Point(0, 4)))
    return tree, a, b, c


def test_wirelength_and_path_lengths():
    tree, a, b, c = small_tree()
    assert tree.wirelength() == 2 + 3 + 4
    pl = tree.path_lengths()
    assert pl[tree.root] == 0
    assert pl[b] == 5
    assert pl[c] == 4
    assert tree.sink_path_lengths() == {b: 5, c: 4}


def test_detour_counts_into_lengths():
    tree, a, b, c = small_tree()
    tree.set_detour(b, 1.5)
    assert tree.edge_length(b) == 4.5
    assert tree.path_lengths()[b] == 6.5
    with pytest.raises(ValueError):
        tree.set_detour(b, -1)
    with pytest.raises(ValueError):
        tree.set_detour(tree.root, 1)


def test_orders():
    tree, a, b, c = small_tree()
    pre = tree.preorder()
    post = tree.postorder()
    assert pre[0] == tree.root
    assert post[-1] == tree.root
    assert set(pre) == set(post) == set(tree.node_ids())
    # parent precedes child in preorder
    assert pre.index(a) < pre.index(b)
    # child precedes parent in postorder
    assert post.index(b) < post.index(a)


def test_validate_ok_and_detects_corruption():
    tree, a, b, c = small_tree()
    tree.validate()
    tree.node(b).parent = c  # corrupt parent pointer
    with pytest.raises(ValueError):
        tree.validate()


def test_splice_out():
    tree, a, b, c = small_tree()
    tree.splice_out(a)
    assert a not in tree
    assert tree.node(b).parent == tree.root
    tree.validate()
    # edge b->root is manhattan((2,3),(0,0)) = 5
    assert tree.wirelength() == 5 + 4
    with pytest.raises(ValueError):
        tree.splice_out(tree.root)


def test_reparent_cycle_detection():
    tree, a, b, c = small_tree()
    with pytest.raises(ValueError):
        tree.reparent(a, b)  # b is a descendant of a
    tree.reparent(c, a)
    tree.validate()
    assert tree.node(c).parent == a


def test_buffers_tracked():
    tree, a, b, c = small_tree()
    lib = default_library()
    tree.set_buffer(a, lib.weakest)
    assert tree.buffer_node_ids() == [a]
    assert tree.node(a).is_buffer and not tree.node(a).is_steiner


def test_copy_is_deep():
    tree, a, b, c = small_tree()
    clone = tree.copy()
    clone.move_node(b, Point(9, 9))
    assert tree.node(b).location == Point(2, 3)
    assert clone.wirelength() != tree.wirelength()
    clone.validate()

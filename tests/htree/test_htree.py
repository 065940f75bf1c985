"""Tests for H-tree and GH-tree generation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import evaluate_tree
from repro.geometry import Point
from repro.htree import ghtree, htree
from repro.netlist import ClockNet, Sink


def grid_net(k=4, pitch=10.0):
    """k x k grid of sinks, source at the lower-left corner."""
    sinks = [
        Sink(f"s{i}_{j}", Point(i * pitch, j * pitch))
        for i in range(k) for j in range(k)
    ]
    return ClockNet("grid", Point(0, 0), sinks)


def random_net(rng, n, box=75.0):
    pts = []
    while len(pts) < n:
        p = Point(rng.uniform(0, box), rng.uniform(0, box))
        if all(q.manhattan_to(p) > 1e-6 for q in pts):
            pts.append(p)
    return ClockNet("n", Point(rng.uniform(0, box), rng.uniform(0, box)),
                    [Sink(f"s{i}", p) for i, p in enumerate(pts)])


def test_htree_spans_all_sinks():
    net = grid_net()
    tree = htree(net)
    tree.validate()
    assert len(tree.sinks()) == 16


def test_htree_symmetric_on_grid():
    """On a symmetric grid the H-tree's skewness is tiny (Table 1 row 1)."""
    net = grid_net()
    m = evaluate_tree(htree(net), net)
    assert m.gamma < 1.15
    # symmetry costs shallowness: paths overshoot direct distances
    assert m.alpha > 1.0


def test_htree_taps_at_uniform_depth():
    net = grid_net()
    tree = htree(net)
    depths = {}
    for nid in tree.preorder():
        node = tree.node(nid)
        depths[nid] = 0 if node.parent is None else depths[node.parent] + 1
    sink_depths = {depths[nid] for nid in tree.sink_node_ids()}
    assert len(sink_depths) == 1


def test_htree_leaf_size_param():
    net = grid_net()
    small = htree(net, max_leaf_sinks=4)
    big = htree(net, max_leaf_sinks=1)
    assert len(small) < len(big)
    with pytest.raises(ValueError):
        htree(net, max_leaf_sinks=0)


def test_ghtree_spans_all_sinks():
    net = grid_net()
    tree = ghtree(net)
    tree.validate()
    assert len(tree.sinks()) == 16


def test_ghtree_explicit_branching():
    net = grid_net()
    tree = ghtree(net, branching=[4, 4])
    tree.validate()
    assert len(tree.sinks()) == 16
    with pytest.raises(ValueError):
        ghtree(net, branching=[1])


def test_ghtree_lighter_than_htree():
    """The branching freedom buys wirelength (Table 1: GH < H on beta)."""
    rng = random.Random(4)
    total_h = total_gh = 0.0
    for _ in range(5):
        net = random_net(rng, 24)
        total_h += htree(net).wirelength()
        total_gh += ghtree(net).wirelength()
    assert total_gh < total_h


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_htree_ghtree_random_property(n, seed):
    rng = random.Random(seed)
    net = random_net(rng, n)
    for build in (htree, ghtree):
        tree = build(net)
        tree.validate()
        assert len(tree.sinks()) == n
        names = sorted(s.name for s in tree.sinks())
        assert names == sorted(s.name for s in net.sinks)


def test_ghtree_optimize_not_worse_than_greedy():
    rng = random.Random(12)
    total_greedy = total_dp = 0.0
    for _ in range(6):
        net = random_net(rng, 30)
        total_greedy += ghtree(net).wirelength()
        total_dp += ghtree(net, optimize=True).wirelength()
    assert total_dp <= total_greedy * 1.05

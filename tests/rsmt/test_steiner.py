"""Tests for steinerisation, iterated 1-Steiner and the RSMT front-end."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, manhattan
from repro.netlist import ClockNet, RoutedTree, Sink
from repro.rsmt import (
    iterated_one_steiner,
    median_steinerize,
    rectilinear_mst_length,
    rsmt,
    rsmt_wirelength,
)
from repro.obs.metrics import METRICS
from repro.rsmt.one_steiner import hanan_points
from repro.rsmt.steinerize import (
    _collapse_children_pairs,
    _collapse_parent_child,
    _median,
)


def test_hanan_points_cross():
    pts = [Point(0, 0), Point(2, 2)]
    hanan = hanan_points(pts)
    assert set((p.x, p.y) for p in hanan) == {(0, 2), (2, 0)}


def test_one_steiner_classic_cross():
    """Four points in a plus shape: one Steiner point at the centre saves
    wirelength; MST = 3 edges of length 2 = 6, Steiner tree = 4."""
    pts = [Point(1, 0), Point(0, 1), Point(2, 1), Point(1, 2)]
    chosen = iterated_one_steiner(pts)
    assert len(chosen) >= 1
    assert abs(rectilinear_mst_length(pts + chosen) - 4.0) < 1e-9


def test_one_steiner_no_gain_on_line():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0)]
    assert iterated_one_steiner(pts) == []


def test_median_steinerize_star():
    """Root with two children on the same side: median point shares trunk."""
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(4, 1), sink=Sink("a", Point(4, 1)))
    tree.add_child(tree.root, Point(4, -1), sink=Sink("b", Point(4, -1)))
    before = tree.wirelength()  # 5 + 5 = 10
    gain = median_steinerize(tree)
    assert gain == pytest.approx(before - tree.wirelength())
    assert tree.wirelength() == pytest.approx(6.0)  # trunk 4 + two stubs of 1
    tree.validate()


def test_median_steinerize_respects_detours():
    tree = RoutedTree(Point(0, 0))
    a = tree.add_child(tree.root, Point(4, 1), sink=Sink("a", Point(4, 1)))
    tree.add_child(tree.root, Point(4, -1), sink=Sink("b", Point(4, -1)))
    tree.set_detour(a, 2.0)  # snaked edge must not be rerouted
    gain = median_steinerize(tree)
    assert gain == 0.0


def test_parent_child_collapse_flags_descendant_edges():
    """The parent-child collapse shortens the path to the reparented
    child and its whole subtree, so the dirty-region log must cover
    every edge of that subtree, not just the local triple — otherwise
    the reattachment pass's skip could wrongly bypass a mover whose
    path-length budget test the collapse just relaxed."""
    tree = RoutedTree(Point(0, 0))
    p = tree.add_child(tree.root, Point(0, 100))
    u = tree.add_child(p, Point(20, 120))
    # c strictly inside bbox(p, u): the median is c itself, so the
    # parent-child pattern at u fires with gain |u, c| = 20
    c = tree.add_child(u, Point(10, 110), sink=Sink("c", Point(10, 110)))
    d = tree.add_child(c, Point(10, 60), sink=Sink("d", Point(10, 60)))
    tree.add_child(d, Point(10, 30), sink=Sink("e", Point(10, 30)))

    changes = []
    gain = median_steinerize(tree, changes=changes)
    tree.validate()
    assert gain == pytest.approx(20.0)
    # path to c shortened: p->u->c was 160, p->m(=c) is 120
    assert tree.path_lengths()[c] == pytest.approx(120.0)
    boxes = set(changes)
    assert (10, 60, 10, 110) in boxes  # edge c -> d, geometry untouched
    assert (10, 30, 10, 60) in boxes   # edge d -> e, geometry untouched


def test_median_matches_sorted_middle_bit_for_bit():
    """``_median`` picks the element ``sorted(...)[1]`` picks, so a tie
    between signed zeros resolves the same way."""
    values = (-0.0, 0.0, -1.0, 2.5, 2.5)
    for a, b, c in itertools.product(values, repeat=3):
        assert _median(a, b, c).hex() == sorted((a, b, c))[1].hex()


def _fork():
    """A root with two children whose median (10, 0) saves 10 um."""
    tree = RoutedTree(Point(0, 0))
    a = tree.add_child(tree.root, Point(10, 5), sink=Sink("a", Point(10, 5)))
    b = tree.add_child(tree.root, Point(10, -5),
                       sink=Sink("b", Point(10, -5)))
    return tree, a, b


def test_clean_node_is_skipped_until_discarded():
    """The clean-set contract: a node in the set is not evaluated, even
    with a gain waiting, and the gain is found once it is discarded."""
    tree, a, b = _fork()
    clean = {tree.root, a, b}
    skips = METRICS.counter("salt.median_skips")

    assert median_steinerize(tree, clean=clean) == 0.0
    assert len(tree) == 3
    assert METRICS.counter("salt.median_skips") == skips + 3

    clean.discard(tree.root)
    assert median_steinerize(tree, clean=clean) == pytest.approx(10.0)
    assert len(tree) == 4
    steiner = tree.node(a).parent
    assert tree.node(steiner).location == Point(10, 0)
    # the collapse discarded the root, a and b; the next pass evaluated
    # them and the new node, none of which gains any more
    assert clean == {tree.root, a, b, steiner}
    assert median_steinerize(tree, clean=clean) == 0.0


def test_collapses_discard_the_nodes_they_restructure():
    """Children-pair at u discards u and the two children; parent-child
    at u discards u's parent, u and the child it moves."""
    tree, a, b = _fork()
    clean = set(tree.node_ids())
    assert _collapse_children_pairs(tree, tree.root, 1e-9, None, clean) > 0
    assert clean == set()

    tree = RoutedTree(Point(0, 0))
    p = tree.add_child(tree.root, Point(0, 100))
    u = tree.add_child(p, Point(20, 120))
    c = tree.add_child(u, Point(10, 110), sink=Sink("c", Point(10, 110)))
    d = tree.add_child(c, Point(10, 60), sink=Sink("d", Point(10, 60)))
    clean = set(tree.node_ids())
    assert _collapse_parent_child(tree, u, 1e-9, None, clean) > 0
    assert clean == {tree.root, d}


def net_from_points(pts):
    return ClockNet(
        "n", Point(0, 0),
        [Sink(f"s{i}", p) for i, p in enumerate(pts)],
    )


def test_rsmt_simple_net():
    net = net_from_points([Point(10, 0), Point(0, 10), Point(10, 10)])
    tree = rsmt(net)
    tree.validate()
    assert sorted(s.name for s in tree.sinks()) == ["s0", "s1", "s2"]
    assert tree.wirelength() <= 30  # MST would be 10+10+10


def test_rsmt_never_longer_than_mst():
    rng = random.Random(7)
    for trial in range(10):
        pts = [Point(rng.uniform(0, 75), rng.uniform(0, 75)) for _ in range(12)]
        net = net_from_points(pts)
        mst_len = rectilinear_mst_length([net.source] + pts)
        assert rsmt(net).wirelength() <= mst_len + 1e-6


def test_rsmt_wirelength_matches_tree():
    net = net_from_points([Point(5, 5), Point(9, 1), Point(3, 8)])
    assert rsmt_wirelength(net) == pytest.approx(rsmt(net).wirelength())


@given(st.lists(st.builds(Point,
                          st.floats(min_value=0, max_value=50),
                          st.floats(min_value=0, max_value=50)),
                min_size=1, max_size=8, unique_by=lambda p: (p.x, p.y)))
@settings(max_examples=40, deadline=None)
def test_rsmt_spans_all_sinks(pts):
    net = net_from_points(pts)
    tree = rsmt(net)
    tree.validate()
    assert len(tree.sinks()) == len(pts)
    # every sink is at its declared location
    for nid in tree.sink_node_ids():
        node = tree.node(nid)
        assert node.location.is_close(node.sink.location)
    # no degree-2 steiner pass-throughs remain
    for nid in tree.node_ids():
        node = tree.node(nid)
        if node.is_steiner and nid != tree.root:
            assert len(node.children) >= 2

"""Tests for the CBS construction (paper Fig. 2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import cbs, evaluate_tree
from repro.dme import ElmoreDelay, bst_dme
from repro.geometry import Point
from repro.netlist import ClockNet, Sink
from repro.tech import Technology
from repro.timing import ElmoreAnalyzer


def random_net(rng, n, box=75.0, cap=1.0):
    pts = []
    while len(pts) < n:
        p = Point(rng.uniform(0, box), rng.uniform(0, box))
        if all(q.manhattan_to(p) > 1e-6 for q in pts):
            pts.append(p)
    return ClockNet(
        "n", Point(rng.uniform(0, box), rng.uniform(0, box)),
        [Sink(f"s{i}", p, cap=cap) for i, p in enumerate(pts)],
    )


def pl_skew(tree):
    pls = tree.sink_path_lengths().values()
    return max(pls) - min(pls)


@pytest.mark.parametrize("bound", [5.0, 20.0, 80.0])
def test_cbs_linear_skew_bound(bound):
    rng = random.Random(1)
    for _ in range(4):
        net = random_net(rng, 18)
        tree = cbs(net, skew_bound=bound)
        tree.validate()
        assert len(tree.sinks()) == 18
        assert pl_skew(tree) <= bound + 1e-6


def test_cbs_elmore_skew_bound():
    tech = Technology()
    rng = random.Random(2)
    for bound in (5.0, 80.0):
        net = random_net(rng, 15, cap=1.5)
        tree = cbs(net, skew_bound=bound, model=ElmoreDelay(tech))
        rep = ElmoreAnalyzer(tech).analyze(tree)
        assert rep.skew <= bound + 1e-6


def test_cbs_beats_bst_on_latency_and_wire():
    """The headline claim of Table 3: CBS < BST-DME on WL/cap/delay at the
    same bound (checked in aggregate over several nets)."""
    tech = Technology()
    rng = random.Random(3)
    bound = 10.0
    cbs_wl = bst_wl = cbs_lat = bst_lat = 0.0
    an = ElmoreAnalyzer(tech)
    for _ in range(8):
        net = random_net(rng, 25, cap=1.0)
        model = ElmoreDelay(tech)
        t_cbs = cbs(net, bound, model=model)
        t_bst = bst_dme(net, bound, model=model)
        cbs_wl += t_cbs.wirelength()
        bst_wl += t_bst.wirelength()
        cbs_lat += an.analyze(t_cbs).latency
        bst_lat += an.analyze(t_bst).latency
    assert cbs_wl < bst_wl
    assert cbs_lat < bst_lat


def test_cbs_improves_shallowness_over_bst():
    rng = random.Random(4)
    net = random_net(rng, 30)
    bound = 20.0
    m_cbs = evaluate_tree(cbs(net, bound), net)
    m_bst = evaluate_tree(bst_dme(net, bound), net)
    assert m_cbs.alpha <= m_bst.alpha + 0.05


def test_cbs_sinks_are_leaves_and_binaryish():
    """CBS Step 4 legality survives to the output."""
    rng = random.Random(5)
    net = random_net(rng, 12)
    tree = cbs(net, skew_bound=10.0)
    for nid in tree.sink_node_ids():
        assert not tree.node(nid).children
    for nid in tree.node_ids():
        assert len(tree.node(nid).children) <= 2


@pytest.mark.parametrize("topology", ["greedy_dist", "greedy_merge",
                                      "bi_partition", "bi_cluster"])
def test_cbs_all_topologies(topology):
    """Table 2 sweeps the Step 1 topology generator."""
    rng = random.Random(8)
    net = random_net(rng, 16)
    tree = cbs(net, skew_bound=10.0, topology=topology)
    assert pl_skew(tree) <= 10.0 + 1e-6
    assert len(tree.sinks()) == 16


@given(st.integers(min_value=2, max_value=14),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([2.0, 10.0, 80.0]))
@settings(max_examples=25, deadline=None)
def test_cbs_property_random(n, seed, bound):
    rng = random.Random(seed)
    net = random_net(rng, n)
    tree = cbs(net, skew_bound=bound)
    tree.validate()
    assert len(tree.sinks()) == n
    assert pl_skew(tree) <= bound + 1e-6

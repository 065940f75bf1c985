"""End-to-end tests for ZST / BST DME construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dme import ElmoreDelay, LinearDelay, bi_partition, bst_dme, zst_dme
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
    """Path-length skew below the top merge node (source edge is common)."""
    pls = tree.sink_path_lengths().values()
    return max(pls) - min(pls)


def test_zst_linear_zero_skew():
    rng = random.Random(1)
    for _ in range(5):
        net = random_net(rng, 12)
        tree = zst_dme(net)
        tree.validate()
        assert len(tree.sinks()) == 12
        assert pl_skew(tree) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("bound", [0.0, 5.0, 20.0, 80.0])
def test_bst_linear_bound_respected(bound):
    rng = random.Random(2)
    for _ in range(4):
        net = random_net(rng, 15)
        tree = bst_dme(net, skew_bound=bound)
        assert pl_skew(tree) <= bound + 1e-6


def test_bst_wirelength_decreases_with_slack():
    """Looser bounds need fewer detours, hence no more wire (Table 3 shape)."""
    rng = random.Random(3)
    total = {0.0: 0.0, 10.0: 0.0, 80.0: 0.0}
    for _ in range(10):
        net = random_net(rng, 20)
        for bound in total:
            total[bound] += bst_dme(net, skew_bound=bound).wirelength()
    assert total[80.0] <= total[10.0] <= total[0.0]


def test_zst_elmore_zero_skew_via_analyzer():
    """Planned Elmore delays must match the independent timing engine."""
    tech = Technology()
    rng = random.Random(4)
    net = random_net(rng, 10, cap=2.0)
    tree = zst_dme(net, model=ElmoreDelay(tech))
    report = ElmoreAnalyzer(tech).analyze(tree)
    assert report.skew == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("bound_ps", [2.0, 10.0])
def test_bst_elmore_bound_via_analyzer(bound_ps):
    tech = Technology()
    rng = random.Random(5)
    for _ in range(3):
        net = random_net(rng, 12, cap=2.0)
        tree = bst_dme(net, skew_bound=bound_ps, model=ElmoreDelay(tech))
        report = ElmoreAnalyzer(tech).analyze(tree)
        assert report.skew <= bound_ps + 1e-6


def test_single_sink_net():
    net = ClockNet("n", Point(0, 0), [Sink("s", Point(3, 4))])
    tree = zst_dme(net)
    assert tree.wirelength() == pytest.approx(7.0)
    assert len(tree.sinks()) == 1


def test_unknown_topology_name_rejected():
    net = ClockNet("n", Point(0, 0), [Sink("s", Point(1, 1))])
    with pytest.raises(ValueError):
        bst_dme(net, 0.0, topology="nope")


def test_fixed_topology_mode():
    """Embedding a given fixed topology keeps sinks and the bound."""
    rng = random.Random(6)
    net = random_net(rng, 10)
    topo = bi_partition(net.sinks)
    tree = bst_dme(net, skew_bound=5.0, topology=topo)
    tree.validate()
    assert sorted(s.name for s in tree.sinks()) == sorted(
        s.name for s in net.sinks
    )
    assert pl_skew(tree) <= 5.0 + 1e-6


def test_subtree_delays_honoured():
    """A sink with pre-accumulated delay gets a shorter/balanced path."""
    net = ClockNet(
        "n", Point(0, 0),
        [
            Sink("slow", Point(10, 0), subtree_delay=20.0),
            Sink("fast", Point(-10, 0), subtree_delay=0.0),
        ],
    )
    tree = zst_dme(net)
    pls = {tree.node(nid).sink.name: pl
           for nid, pl in tree.sink_path_lengths().items()}
    # linear model: pl(slow) + 20 == pl(fast)
    assert pls["slow"] + 20.0 == pytest.approx(pls["fast"], abs=1e-6)


@pytest.mark.parametrize("topology", ["greedy_dist", "greedy_merge",
                                      "bi_partition", "bi_cluster"])
def test_all_topologies_give_legal_bst(topology):
    rng = random.Random(7)
    net = random_net(rng, 14)
    tree = bst_dme(net, skew_bound=10.0, topology=topology)
    tree.validate()
    assert pl_skew(tree) <= 10.0 + 1e-6
    assert len(tree.sinks()) == 14


@given(st.integers(min_value=2, max_value=16),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 3.0, 15.0, 80.0]))
@settings(max_examples=30, deadline=None)
def test_bst_property_random(n, seed, bound):
    rng = random.Random(seed)
    net = random_net(rng, n)
    tree = bst_dme(net, skew_bound=bound)
    tree.validate()
    assert len(tree.sinks()) == n
    assert pl_skew(tree) <= bound + 1e-6

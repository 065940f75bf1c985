"""Tests for the OpenROAD-like and commercial-like baseline flows."""

import random

import pytest

from repro.baselines import commercial_like_cts, openroad_like_cts
from repro.buffering import place_driver, split_long_edges
from repro.cts import HierarchicalCTS, TABLE5
from repro.cts.evaluation import evaluate_result
from repro.geometry import Point, manhattan_center
from repro.netlist import ClockNet, Sink
from repro.partition.clustering import Cluster, cluster_cap
from repro.partition.kmeans import balanced_kmeans
from repro.rsmt import rsmt
from repro.tech import Technology, default_library
from repro.timing.elmore import downstream_stage_cap


def make_sinks(n=200, box=120.0, seed=0):
    rng = random.Random(seed)
    return [
        Sink(f"ff{i}", Point(rng.uniform(0, box), rng.uniform(0, box)), cap=1.0)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def all_flows():
    tech = Technology()
    sinks = make_sinks()
    source = Point(60.0, 60.0)
    ours = HierarchicalCTS(tech=tech).run(sinks, source)
    com = commercial_like_cts(sinks, source, tech, sa_iterations=300)
    orr = openroad_like_cts(sinks, source, tech)
    return tech, sinks, {
        "ours": evaluate_result(ours, tech),
        "com": evaluate_result(com, tech),
        "or": evaluate_result(orr, tech),
    }, {"ours": ours, "com": com, "or": orr}


def test_all_flows_reach_all_sinks(all_flows):
    _, sinks, _, results = all_flows
    for name, result in results.items():
        leaves = result.tree.sinks()
        assert len(leaves) == len(sinks), name
        result.tree.validate()


def _openroad_leaf_clusters(sinks):
    """The OpenROAD baseline's leaf clusters as it forms them: balanced
    k-means under the fanout bound, each tapped at its members'
    Manhattan center."""
    _, labels = balanced_kmeans([s.location for s in sinks],
                                max_size=TABLE5.max_fanout, seed=0)
    groups = {}
    for sink, label in zip(sinks, labels):
        groups.setdefault(label, []).append(sink)
    return [Cluster(members, manhattan_center([s.location for s in members]))
            for _, members in sorted(groups.items())]


def test_openroad_reports_its_routed_driver_load(all_flows):
    """OpenROAD's one level of leaf nets reports, like the hierarchical
    flow, the largest cluster cap estimate (pin cap plus HPWL wire) in
    ``max_net_cap`` and the largest routed driver-stage load in
    ``max_routed_cap``."""
    tech, sinks, _, results = all_flows
    (stats,) = results["or"].levels
    library = default_library()
    estimates, loads = [], []
    for cluster in _openroad_leaf_clusters(sinks):
        estimates.append(cluster_cap(cluster, tech.unit_cap))
        tree = rsmt(ClockNet("leaf", cluster.center, cluster.sinks))
        split_long_edges(tree, library, tech, TABLE5.effective_span(tech))
        place_driver(tree, library, tech)
        loads.append(downstream_stage_cap(tree, tech)[tree.root])
    assert stats.max_net_cap == max(estimates)
    assert stats.max_routed_cap == max(loads)
    assert stats.max_routed_cap > 0.0


def test_all_flows_buffered(all_flows):
    _, _, reports, _ = all_flows
    for name, rep in reports.items():
        assert rep.num_buffers > 0, name
        assert rep.buffer_area_um2 > 0, name


def test_openroad_signature(all_flows):
    """OR must show its published signature: no better latency, no smaller
    per-buffer area (within single-design noise — the Table 6 bench checks
    the aggregate over six designs)."""
    _, _, reports, _ = all_flows
    assert reports["or"].latency_ps >= reports["ours"].latency_ps * 0.95
    area_per_buf = {
        k: r.buffer_area_um2 / r.num_buffers for k, r in reports.items()
    }
    assert area_per_buf["or"] >= area_per_buf["ours"] * 0.9


def test_ours_competitive_wirelength_cap(all_flows):
    _, _, reports, _ = all_flows
    assert reports["ours"].clock_cap_ff <= reports["com"].clock_cap_ff * 1.05
    assert reports["ours"].clock_wl_um <= reports["com"].clock_wl_um * 1.05


def test_commercial_is_slowest(all_flows):
    _, _, reports, _ = all_flows
    assert reports["com"].runtime_s > reports["or"].runtime_s


def test_skew_constraint_ours_and_com(all_flows):
    """Ours and the commercial baseline must satisfy Table 5's skew; the
    paper reports OpenROAD violating it on some designs, so OR is only
    checked loosely."""
    _, _, reports, _ = all_flows
    assert reports["ours"].skew_ps <= TABLE5.skew_bound
    assert reports["com"].skew_ps <= TABLE5.skew_bound
    assert reports["or"].skew_ps <= 3 * TABLE5.skew_bound


def test_baseline_empty_rejected():
    with pytest.raises(ValueError):
        openroad_like_cts([], Point(0, 0))

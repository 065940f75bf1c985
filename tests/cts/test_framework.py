"""Tests for the hierarchical CTS framework."""

import random

import pytest

from repro.cts import (
    Constraints,
    FlowConfig,
    HierarchicalCTS,
    TABLE5,
)
from repro.cts.evaluation import evaluate_result, evaluate_solution
from repro.dme import bst_dme
from repro.geometry import Point
from repro.netlist import Sink
from repro.perf import make_uniform_sinks
from repro.tech import Technology
from repro.timing import ElmoreAnalyzer


def make_sinks(n, box=150.0, seed=0):
    rng = random.Random(seed)
    return [
        Sink(f"ff{i}", Point(rng.uniform(0, box), rng.uniform(0, box)), cap=1.0)
        for i in range(n)
    ]


def run_flow(n=200, **cfg_kwargs):
    tech = Technology()
    cfg = FlowConfig(sa_iterations=50, **cfg_kwargs)
    flow = HierarchicalCTS(tech=tech, config=cfg)
    sinks = make_sinks(n)
    result = flow.run(sinks, Point(75.0, 75.0))
    return result, tech


def test_flow_reaches_all_sinks():
    result, tech = run_flow(n=200)
    leaf_sinks = [s for s in result.tree.sinks()]
    assert len(leaf_sinks) == 200
    assert sorted(s.name for s in leaf_sinks) == sorted(
        f"ff{i}" for i in range(200)
    )
    result.tree.validate()


def test_flow_respects_fanout_per_stage():
    result, tech = run_flow(n=300)
    tree = result.tree
    # between consecutive buffers, the fanout of sinks+buffers must stay
    # within the constraint: check each buffer's direct stage loads
    for nid in tree.buffer_node_ids():
        loads = 0
        stack = list(tree.node(nid).children)
        while stack:
            cur = stack.pop()
            node = tree.node(cur)
            if node.is_buffer or node.is_sink:
                loads += 1
                if node.is_buffer:
                    continue
            stack.extend(node.children)
        assert loads <= TABLE5.max_fanout


def test_flow_skew_within_constraint():
    result, tech = run_flow(n=250)
    report = evaluate_result(result, tech)
    assert report.skew_ps <= TABLE5.skew_bound
    assert report.latency_ps > 0
    assert report.num_buffers >= 1
    assert report.clock_wl_um > 0


def test_flow_small_design_single_net():
    """Designs under the fanout limit route as one net from the source."""
    result, tech = run_flow(n=20)
    assert result.levels == []
    assert len(result.tree.sinks()) == 20


def test_flow_empty_rejected():
    flow = HierarchicalCTS()
    with pytest.raises(ValueError):
        flow.run([], Point(0, 0))


def test_flow_levels_shrink():
    result, _ = run_flow(n=400)
    counts = [lv.num_sinks for lv in result.levels]
    assert counts == sorted(counts, reverse=True)
    assert all(lv.num_clusters < lv.num_sinks for lv in result.levels)


def test_flow_sa_toggle():
    with_sa, _ = run_flow(n=150, use_sa=True)
    without_sa, _ = run_flow(n=150, use_sa=False)
    for lv in without_sa.levels:
        assert lv.sa_cost_before == lv.sa_cost_after
    assert len(with_sa.tree.sinks()) == len(without_sa.tree.sinks())


def test_flow_custom_router():
    calls = []

    def router(net, bound, model):
        calls.append(net.name)
        return bst_dme(net, bound, model=model)

    result, tech = run_flow(n=100, router=router)
    assert calls, "custom router must be used"
    assert len(result.tree.sinks()) == 100


def test_flow_insertion_estimate_toggle():
    est, tech = run_flow(n=150, use_insertion_estimate=True)
    exact, _ = run_flow(n=150, use_insertion_estimate=False)
    rep_est = evaluate_result(est, tech)
    rep_exact = evaluate_result(exact, tech)
    # both legal; the estimate-based flow should not be wildly worse
    assert rep_est.skew_ps <= TABLE5.skew_bound
    assert rep_exact.skew_ps <= TABLE5.skew_bound


def test_evaluate_solution_counts_buffers():
    result, tech = run_flow(n=120)
    rep = evaluate_solution(result.tree, tech, runtime_s=1.5)
    assert rep.runtime_s == 1.5
    assert rep.num_buffers == len(result.tree.buffer_node_ids())
    assert rep.buffer_area_um2 > 0
    assert len(rep.row()) == 7


# ----------------------------------------------------------------------
# Flow-accounting regressions (stray labels, forced-split stats,
# top-net buffers)
# ----------------------------------------------------------------------
def test_stray_labels_attach_to_nearest_center_not_dropped():
    """A partitioner emitting labels outside range(len(centers)) used to
    silently drop those clock sinks; they must instead reach the tree,
    attached to the nearest center, with the degradation recorded."""
    from repro.partition.kmeans import balanced_kmeans

    def bad_partitioner(points, max_size=32, seed=0):
        centers, labels = balanced_kmeans(points, max_size=max_size,
                                          seed=seed)
        labels = [
            label if i % 7 else len(centers) + 3
            for i, label in enumerate(labels)
        ]
        return centers, labels

    result, _ = run_flow(n=200, partitioner=bad_partitioner)
    assert sorted(s.name for s in result.tree.sinks()) == sorted(
        f"ff{i}" for i in range(200)
    )
    strays = [
        e for e in result.diagnostics.events
        if e.stage == "partition" and "out-of-range" in e.detail
    ]
    assert strays, "stray-label degradation must be recorded"


def test_forced_split_stats_describe_used_clusters():
    """When the forced median split overrides a non-reducing partition,
    LevelStats must quote the cost of the clusters actually used, not
    the discarded partition's SA numbers."""
    from repro.flowguard.fallback import forced_median_split
    from repro.partition.annealing import SAConfig, total_cost

    def non_reducing(points, max_size=32, seed=0):
        return list(points), list(range(len(points)))

    tech = Technology()
    cfg = FlowConfig(sa_iterations=50, partitioner=non_reducing)
    flow = HierarchicalCTS(tech=tech, config=cfg)
    sinks = make_sinks(40)
    result = flow.run(sinks, Point(75.0, 75.0))

    assert result.diagnostics.forced_splits >= 1
    forced = forced_median_split(sinks, max(2, TABLE5.max_fanout))
    expected = total_cost(forced, SAConfig(
        iterations=cfg.sa_iterations,
        seed=cfg.seed + 0,
        max_cap=TABLE5.max_cap,
        max_fanout=TABLE5.max_fanout,
        max_length=TABLE5.max_length,
        unit_cap=tech.unit_cap,
    ))
    level0 = result.levels[0]
    assert level0.sa_cost_before == level0.sa_cost_after == expected


def test_partition_resplit_counts_each_halving():
    from repro.flowguard.diagnostics import FlowDiagnostics
    from repro.obs import METRICS
    from repro.partition import balanced_kmeans

    sizes = []

    def partitioner(points, max_size, seed):
        sizes.append(max_size)
        return balanced_kmeans(points, max_size=max_size, seed=seed)

    # a 1 fF cap budget no cluster can meet: the loop halves to the floor
    flow = HierarchicalCTS(
        constraints=Constraints(max_cap=1.0),
        config=FlowConfig(partitioner=partitioner, use_sa=False),
    )
    METRICS.reset()
    flow._partition_inner(make_sinks(100), 0, FlowDiagnostics())
    assert sizes == [32, 16, 8, 4, 2]
    assert METRICS.counter("partition.resplit") == 4


def test_top_net_buffers_surface_on_result_and_metrics():
    from repro.obs import METRICS

    METRICS.reset()
    result, _ = run_flow(n=200)
    assert result.top_buffers >= 1
    assert METRICS.counter("cts.top_buffers") == result.top_buffers
    # the top net's buffers exist in the assembled tree as well
    assert len(result.tree.buffer_node_ids()) >= result.top_buffers


# ----------------------------------------------------------------------
# Partition at scale and the level-loop exit
# ----------------------------------------------------------------------
def test_level0_partition_of_14k_uniform_sinks_is_one_pass():
    """Exact per-block assignment leaves no level-0 cluster over cap, so
    14,000 uniform sinks partition once into n / max_fanout clusters
    (whole-level halving used to collapse them to 3,500)."""
    from repro.flowguard.diagnostics import FlowDiagnostics
    from repro.obs import METRICS
    from repro.partition import cluster_cap
    from repro.perf import make_uniform_sinks

    sinks, _ = make_uniform_sinks(14000, 0)
    flow = HierarchicalCTS()
    before = METRICS.counter("partition.resplit")
    clusters, _, _ = flow._partition(sinks, 0, FlowDiagnostics())
    assert METRICS.counter("partition.resplit") == before
    assert len(clusters) == 438
    unit_cap = Technology().unit_cap
    assert max(cluster_cap(c, unit_cap) for c in clusters) <= TABLE5.max_cap


def test_top_net_over_cap_gains_a_level():
    """24 sinks fit one net by fanout, but spread over 600 um their
    estimated load exceeds the cap bound: the loop must add a level
    rather than route them all from the source."""
    from repro.partition import Cluster, cluster_cap

    tech = Technology()
    sinks = make_sinks(24, box=600.0)
    source = Point(300.0, 300.0)
    assert len(sinks) <= TABLE5.max_fanout
    assert cluster_cap(Cluster(sinks, source), tech.unit_cap) > TABLE5.max_cap
    flow = HierarchicalCTS(tech=tech, config=FlowConfig(sa_iterations=50))
    result = flow.run(sinks, source)
    assert result.levels
    assert result.levels[-1].num_clusters < len(sinks)
    assert sorted(s.name for s in result.tree.sinks()) == sorted(
        f"ff{i}" for i in range(24)
    )
    result.tree.validate()


def test_each_routed_net_is_analysed_once(monkeypatch):
    """The check's analysis is the net's only one: one per routed net
    (each level's clusters and the top net) plus one per repair's
    re-check."""
    calls = []
    analyze = ElmoreAnalyzer.analyze

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return analyze(self, *args, **kwargs)

    monkeypatch.setattr(ElmoreAnalyzer, "analyze", counting)
    sinks, side = make_uniform_sinks(1200, 2)
    result = HierarchicalCTS(
        tech=Technology(), config=FlowConfig(sa_iterations=50), jobs=1,
    ).run(sinks, Point(side / 2, side / 2))
    nets = sum(level.num_clusters for level in result.levels) + 1
    repairs = result.diagnostics.repairs
    assert repairs >= 1
    assert len(calls) == nets + repairs


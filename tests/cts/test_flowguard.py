"""Tests for the flow-guard subsystem: diagnostics, fault injection,
router fallback chains, forced partitioning, and constraint repair."""

import logging
import random

import pytest

import repro.cts.framework as framework
import repro.flowguard.checker as checker
from repro.core.cbs import cbs
from repro.cts import Constraints, FlowConfig, HierarchicalCTS, TABLE5
from repro.flowguard import (
    DEGRADED_KINDS,
    FaultInjected,
    FaultInjector,
    FlowDiagnostics,
    RouterFallbackChain,
    check_and_repair,
    check_tree,
    forced_median_split,
    stage_fanouts,
    star_topology,
)
from repro.flowguard.diagnostics import EVENT_KINDS
from repro.geometry import Point
from repro.netlist import ClockNet, RoutedTree, Sink
from repro.partition.kmeans import balanced_kmeans
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer


def make_sinks(n, box=120.0, seed=0):
    rng = random.Random(seed)
    return [
        Sink(f"ff{i}", Point(rng.uniform(0, box), rng.uniform(0, box)),
             cap=1.0)
        for i in range(n)
    ]


def make_net(n=12, seed=0):
    sinks = make_sinks(n, seed=seed)
    return ClockNet("n", Point(60, 60), sinks)


# ----------------------------------------------------------------------
# Diagnostics
# ----------------------------------------------------------------------
def test_diagnostics_clean_and_degraded():
    diag = FlowDiagnostics()
    assert not diag.degraded
    diag.record("check", "repair", level=0, net="a", detail="fixed")
    assert not diag.degraded  # successful repairs are nominal
    diag.record("route", "downgrade", level=0, net="a", detail="cbs->bst")
    assert diag.degraded
    assert diag.downgrades == 1 and diag.repairs == 1


def test_diagnostics_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown event kind"):
        FlowDiagnostics().record("route", "explosion")


def test_diagnostics_summary_rows_aggregate():
    diag = FlowDiagnostics()
    for i in range(3):
        diag.record("route", "retry", level=0, net=f"c{i}", detail=f"d{i}")
    diag.record("check", "violation", detail="skew")
    rows = diag.summary_rows()
    assert ["route", "retry", 3, "d2"] in rows
    assert ["check", "violation", 1, "skew"] in rows
    assert "degraded" in diag.summary()


def test_diagnostics_timed_accumulates():
    diag = FlowDiagnostics()
    with diag.timed("route"):
        pass
    with diag.timed("route"):
        pass
    assert diag.stage_time_s["route"] >= 0.0
    assert len(diag.stage_time_s) == 1


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def test_fault_injector_deterministic():
    a = FaultInjector(rate=0.3, seed=42)
    b = FaultInjector(rate=0.3, seed=42)
    trips_a = [a.trip() for _ in range(50)]
    trips_b = [b.trip() for _ in range(50)]
    assert trips_a == trips_b
    assert a.fired == sum(trips_a)
    a.reset()
    assert [a.trip() for _ in range(50)] == trips_a


def test_fault_injector_extremes():
    never = FaultInjector(rate=0.0)
    always = FaultInjector(rate=1.0)
    assert not any(never.trip() for _ in range(20))
    assert all(always.trip() for _ in range(20))
    with pytest.raises(ValueError):
        FaultInjector(rate=1.5)


def test_flaky_wrapper_raises_fault_injected():
    fn = FaultInjector(rate=1.0).wrap(lambda: "ok")
    with pytest.raises(FaultInjected, match="injected fault"):
        fn()
    assert FaultInjector(rate=0.0).wrap(lambda: "ok")() == "ok"


# ----------------------------------------------------------------------
# Router fallback chain
# ----------------------------------------------------------------------
def test_chain_nominal_records_nothing():
    diag = FlowDiagnostics()
    chain = RouterFallbackChain(20.0, diagnostics=diag)
    tree = chain.route(make_net(), None)
    tree.validate()
    assert diag.events == []


def test_chain_downgrades_past_failing_primary():
    def broken(net, bound, model):
        raise RuntimeError("router exploded")

    diag = FlowDiagnostics()
    chain = RouterFallbackChain(20.0, primary=broken, diagnostics=diag)
    net = make_net()
    tree = chain.route(net, None, level=3)
    tree.validate()
    assert sorted(s.name for s in tree.sinks()) == sorted(
        s.name for s in net.sinks
    )
    # primary + 2 backoff retries failed, then the cbs downgrade succeeded
    assert diag.retries == 2
    assert diag.downgrades == 1
    assert all(e.level == 3 for e in diag.events)


def test_chain_rejects_sink_lossy_router():
    def lossy(net, bound, model):
        tree = RoutedTree(net.source)
        tree.add_child(tree.root, net.sinks[0].location, sink=net.sinks[0])
        return tree  # drops every other sink

    diag = FlowDiagnostics()
    chain = RouterFallbackChain(20.0, primary=lossy, diagnostics=diag)
    net = make_net()
    tree = chain.route(net, None)
    assert len(tree.sinks()) == net.fanout
    assert diag.degraded
    assert any("expected" in e.detail for e in diag.events)


def test_star_topology_unfailable():
    net = make_net(5)
    tree = star_topology(net)
    tree.validate()
    assert len(tree.sinks()) == 5
    # degenerate: sink on top of the source
    net2 = ClockNet("deg", Point(1, 1), [Sink("s", Point(1, 1))])
    star_topology(net2).validate()


# ----------------------------------------------------------------------
# Forced median split
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,max_size", [(3, 2), (10, 4), (100, 32), (33, 32)])
def test_forced_median_split_reduces_and_preserves(n, max_size):
    sinks = make_sinks(n, seed=n)
    clusters = forced_median_split(sinks, max_size)
    assert 0 < len(clusters) < n
    assert all(1 <= c.size <= max_size for c in clusters)
    names = sorted(s.name for c in clusters for s in c.sinks)
    assert names == sorted(s.name for s in sinks)


def test_forced_median_split_coincident_points():
    sinks = [Sink(f"s{i}", Point(5, 5)) for i in range(9)]
    clusters = forced_median_split(sinks, 4)
    assert sum(c.size for c in clusters) == 9
    assert all(c.size <= 4 for c in clusters)


def test_forced_median_split_validates_max_size():
    with pytest.raises(ValueError):
        forced_median_split(make_sinks(4), 1)


# ----------------------------------------------------------------------
# Constraint checker + repair
# ----------------------------------------------------------------------
def line_tree(far=100.0):
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(10, 0),
                   sink=Sink("near", Point(10, 0), cap=1.0))
    tree.add_child(tree.root, Point(far, 0),
                   sink=Sink("far", Point(far, 0), cap=1.0))
    return tree


def test_check_tree_clean_by_default():
    tech = Technology()
    tree = line_tree()
    report = ElmoreAnalyzer(tech).analyze(tree)
    assert check_tree(tree, TABLE5, tech, report) == []


def test_check_tree_finds_each_kind():
    tech = Technology()
    tree = line_tree(far=100.0)
    report = ElmoreAnalyzer(tech).analyze(tree)
    tight = Constraints(
        skew_bound=report.skew / 2, max_fanout=1, max_cap=0.5,
        max_length=50.0,
    )
    kinds = {v.kind for v in check_tree(tree, tight, tech, report)}
    assert kinds == {"skew", "cap", "fanout", "span"}


def test_stage_fanouts_cuts_at_buffers():
    tree = line_tree()
    lib = default_library()
    mid = tree.add_child(tree.root, Point(50, 50))
    tree.set_buffer(mid, lib.weakest)
    tree.add_child(mid, Point(50, 60), sink=Sink("c", Point(50, 60)))
    fanouts = stage_fanouts(tree)
    assert fanouts[tree.root] == 3  # two sinks + the buffer input
    assert fanouts[mid] == 1


def test_check_and_repair_fixes_skew():
    tech = Technology()
    tree = line_tree(far=100.0)
    skew = ElmoreAnalyzer(tech).analyze(tree).skew
    assert skew > 0
    cons = Constraints(skew_bound=skew * 0.8, max_fanout=32,
                       max_cap=1e6, max_length=1e6)
    diag = FlowDiagnostics()
    residual, report = check_and_repair(
        tree, cons, tech, default_library(), diagnostics=diag,
        net="line",
    )
    assert residual == []
    assert diag.repairs >= 1
    assert not diag.degraded  # repaired means clean, not degraded
    # the report times the repaired tree, not the one handed in
    assert report.skew == ElmoreAnalyzer(tech).analyze(tree).skew
    assert report.skew <= cons.skew_bound * 1.03


def test_check_and_repair_times_a_tree_a_failed_repair_edited(monkeypatch):
    """A repair that raises part-way leaves an edited tree behind: the
    report and the residual violations describe that tree, not the one
    last checked."""
    tech = Technology()
    tree = line_tree(far=100.0)
    skew = ElmoreAnalyzer(tech).analyze(tree).skew
    cons = Constraints(skew_bound=skew * 0.8, max_fanout=32,
                       max_cap=1e6, max_length=1e6)

    def part_repair(tree, *args, **kwargs):
        near = next(nid for nid in tree.sink_node_ids()
                    if tree.node(nid).sink.name == "near")
        tree.set_detour(near, 20.0)
        raise RuntimeError("repair gave up part-way")

    monkeypatch.setattr(checker, "repair_skew", part_repair)
    diag = FlowDiagnostics()
    residual, report = check_and_repair(
        tree, cons, tech, default_library(), diagnostics=diag,
    )
    assert diag.count("fault") == 1 and diag.repairs == 0
    assert report.skew == ElmoreAnalyzer(tech).analyze(tree).skew < skew
    assert residual == check_tree(tree, cons, tech, report)


def test_check_and_repair_records_residual_violations():
    tech = Technology()
    tree = line_tree()
    # fanout cannot be repaired in place: must come back as residual
    cons = Constraints(skew_bound=1e6, max_fanout=1,
                       max_cap=1e6, max_length=1e6)
    diag = FlowDiagnostics()
    residual, report = check_and_repair(
        tree, cons, tech, default_library(), diagnostics=diag,
    )
    assert [v.kind for v in residual] == ["fanout"]
    assert report.skew == ElmoreAnalyzer(tech).analyze(tree).skew
    assert diag.violations == 1
    assert diag.degraded


# ----------------------------------------------------------------------
# Guarded flow end to end
# ----------------------------------------------------------------------
def run_guarded(n=150, seed=1, jobs=0, **cfg_kwargs):
    cfg = FlowConfig(sa_iterations=20, **cfg_kwargs)
    flow = HierarchicalCTS(tech=Technology(), config=cfg, jobs=jobs)
    sinks = make_sinks(n, seed=seed)
    return flow.run(sinks, Point(60, 60)), sinks


def test_flow_clean_run_has_clean_diagnostics():
    result, sinks = run_guarded(n=120)
    diag = result.diagnostics
    assert diag is not None
    assert not diag.degraded
    assert diag.stage_time_s  # stage timers populated
    assert len(result.tree.sinks()) == len(sinks)


def test_flow_survives_always_failing_partitioner(monkeypatch):
    inj = FaultInjector(rate=1.0, seed=0, name="partitioner")
    monkeypatch.setattr(framework, "balanced_kmeans",
                        inj.wrap(balanced_kmeans))
    result, sinks = run_guarded(n=150, jobs=1)
    assert inj.fired > 0
    diag = result.diagnostics
    assert diag.downgrades >= 1
    assert any("forced median split" in e.detail for e in diag.events)
    result.tree.validate()
    assert len(result.tree.sinks()) == len(sinks)


def test_flow_survives_non_reducing_partitioner(monkeypatch):
    def one_per_point(points, max_size, seed, mapper):
        return list(points), list(range(len(points)))

    monkeypatch.setattr(framework, "balanced_kmeans", one_per_point)
    result, sinks = run_guarded(n=100, jobs=1)
    diag = result.diagnostics
    assert diag.forced_splits >= 1
    assert len(result.tree.sinks()) == len(sinks)
    # forced split must still respect the fanout bound per level
    for lv in result.levels:
        assert lv.max_net_fanout <= TABLE5.max_fanout


def test_flow_survives_flaky_analyzer(monkeypatch):
    tech = Technology()
    monkeypatch.setattr(ElmoreAnalyzer, "analyze", FaultInjector(
        rate=1.0, seed=3, name="analyzer"
    ).wrap(ElmoreAnalyzer.analyze))
    cfg = FlowConfig(sa_iterations=20)
    sinks = make_sinks(150, seed=2)
    result = HierarchicalCTS(
        tech=tech, config=cfg, jobs=1
    ).run(sinks, Point(60, 60))
    diag = result.diagnostics
    assert any(e.stage == "analyze" and e.kind == "downgrade"
               for e in diag.events)
    result.tree.validate()
    assert len(result.tree.sinks()) == 150


def test_flow_survives_always_failing_router():
    def broken(net, bound, model):
        raise RuntimeError("no routes today")

    result, sinks = run_guarded(n=120, router=broken)
    diag = result.diagnostics
    assert diag.downgrades >= 1 and diag.retries >= 1
    assert len(result.tree.sinks()) == len(sinks)
    result.tree.validate()


def test_flow_logs_one_degradation_summary_per_level(caplog, monkeypatch):
    """Per-event lines go to DEBUG; each level with degraded events,
    the top net included, gets exactly one WARNING summarising them."""
    # an earlier configure_logging() may have detached "repro" from the
    # root logger, where caplog listens
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    flow = HierarchicalCTS(
        tech=Technology(), constraints=Constraints(max_cap=12.0),
        config=FlowConfig(sa_iterations=20), jobs=1,
    )
    with caplog.at_level(logging.DEBUG, logger="repro"):
        result = flow.run(make_sinks(300, seed=1), Point(60, 60))

    events = result.diagnostics.events
    per_level: dict[int, list] = {}
    for e in events:
        if e.kind in DEGRADED_KINDS:
            per_level.setdefault(e.level, []).append(e)
    assert len(per_level) >= 3, "constraints too loose: test is vacuous"
    assert max(len(v) for v in per_level.values()) >= 2

    flowguard = [r for r in caplog.records if r.name == "repro.flowguard"]
    assert [r.getMessage() for r in flowguard] == \
        [e.describe() for e in events]
    assert all(r.levelno == logging.DEBUG for r in flowguard)

    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert all(r.name == "repro.cts" for r in warnings)
    expected = []
    for level in sorted(per_level, key=lambda lv: (lv < 0, lv)):
        group = per_level[level]
        where = "top net" if level < 0 else f"level {level}"
        counts = ", ".join(
            f"{n} {kind}" for kind in EVENT_KINDS
            if (n := sum(1 for e in group if e.kind == kind)))
        expected.append(f"{where}: {counts}; e.g. {group[0].describe()}")
    assert [r.getMessage() for r in warnings] == expected


def test_flow_empty_input_still_raises():
    with pytest.raises(ValueError, match="at least one sink"):
        HierarchicalCTS().run([], Point(0, 0))


def test_flow_single_sink_cluster_levels():
    """max_fanout=1 would never reduce via one-sink clusters; the forced
    split (min group 2) must still drive the loop to termination."""
    cons = Constraints(skew_bound=80.0, max_fanout=1, max_cap=1e6,
                       max_length=1e6)
    sinks = make_sinks(9, seed=5)
    result = HierarchicalCTS(
        constraints=cons, config=FlowConfig(sa_iterations=0, use_sa=False)
    ).run(sinks, Point(60, 60))
    assert len(result.tree.sinks()) == 9
    result.tree.validate()


def test_diagnostics_passed_in_is_used():
    diag = FlowDiagnostics()
    cfg = FlowConfig(sa_iterations=10)
    sinks = make_sinks(80, seed=9)
    result = HierarchicalCTS(config=cfg).run(sinks, Point(60, 60), diag)
    assert result.diagnostics is diag

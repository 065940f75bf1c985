"""Serial/parallel equivalence and degradation of ``repro.parallel``.

The contract under test (docs/PARALLELISM.md): for a fixed seed, a flow
at ``jobs=N`` must produce byte-identical quality (wirelength, skew,
buffer count, latency), identical per-level stats, an identical
diagnostics event multiset and an identical metrics snapshot to the
serial ``jobs=1`` flow — and a failing worker degrades per cluster
instead of aborting the run.
"""

import importlib
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cts.framework as framework
import repro.parallel
from repro.core.cbs import cbs
from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.evaluation import evaluate_result
from repro.cts.framework import ClusterTask, pool_pays
from repro.geometry import Point
from repro.obs import METRICS, TRACER, capture
from repro.parallel import WorkPool, resolve_jobs, usable_cpus
from repro.partition.kmeans import _BLOCK
from repro.perf import make_uniform_sinks
from repro.tech import Technology
from repro.timing.elmore import ElmoreAnalyzer

# ``repro.partition`` re-exports the ``kmeans`` function under the
# module's name, so bind the module explicitly.
kmeans_mod = importlib.import_module("repro.partition.kmeans")


def run_flow(n, seed=0, jobs=1, sa_iterations=50):
    tech = Technology()
    sinks, side = make_uniform_sinks(n, seed)
    engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=sa_iterations),
        jobs=jobs,
    )
    result = engine.run(sinks, Point(side / 2, side / 2))
    return result, tech


def quality(result, tech):
    rep = evaluate_result(result, tech)
    return (rep.clock_wl_um, rep.skew_ps, rep.num_buffers, rep.latency_ps)


def event_multiset(result):
    return sorted(
        (e.stage, e.kind, e.level, e.net, e.detail)
        for e in result.diagnostics.events
    )


# ----------------------------------------------------------------------
# Equivalence: jobs=1 vs jobs=4
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(200, 0), (500, 3), (1000, 1)])
def test_parallel_matches_serial_byte_for_byte(n, seed):
    serial, tech = run_flow(n, seed, jobs=1)
    parallel, _ = run_flow(n, seed, jobs=4)
    assert quality(serial, tech) == quality(parallel, tech)
    assert event_multiset(serial) == event_multiset(parallel)
    assert serial.levels == parallel.levels
    assert serial.top_buffers == parallel.top_buffers
    assert sorted(s.name for s in serial.tree.sinks()) == \
        sorted(s.name for s in parallel.tree.sinks())


def test_parallel_metrics_snapshot_matches_serial():
    tech = Technology()
    sinks, side = make_uniform_sinks(300, 0)
    source = Point(side / 2, side / 2)
    snapshots = []
    for jobs in (1, 4):
        engine = HierarchicalCTS(
            tech=tech, config=FlowConfig(sa_iterations=50), jobs=jobs
        )
        METRICS.reset()
        engine.run(list(sinks), source)
        snapshots.append(METRICS.as_dict(precision=None))
    assert snapshots[0] == snapshots[1]


@settings(max_examples=5, deadline=None)
@given(n=st.integers(min_value=40, max_value=140),
       seed=st.integers(min_value=0, max_value=3))
def test_equivalence_property(n, seed):
    serial, tech = run_flow(n, seed, jobs=1, sa_iterations=30)
    parallel, _ = run_flow(n, seed, jobs=3, sa_iterations=30)
    assert quality(serial, tech) == quality(parallel, tech)
    assert event_multiset(serial) == event_multiset(parallel)
    assert serial.levels == parallel.levels


# ----------------------------------------------------------------------
# Observability transport
# ----------------------------------------------------------------------
def test_worker_spans_adopted_under_level_span():
    tech = Technology()
    sinks, side = make_uniform_sinks(300, 0)
    engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=50), jobs=4
    )
    with capture(TRACER):
        engine.run(sinks, Point(side / 2, side / 2))
        roots = list(TRACER.roots)
    assert len(roots) == 1  # one flow span; workers did not add roots
    clusters = [s for s in roots[0].walk() if s.name == "cluster"]
    assert clusters, "cluster spans missing from the parallel trace"
    for span in clusters:
        assert span.attrs.get("worker"), span.attrs
        assert span.tid == span.attrs["worker"]
    # adopted spans hang under their level span, keeping the span tree
    # one connected hierarchy per run
    levels = [s for s in roots[0].walk() if s.name == "level"]
    adopted = [c for lvl in levels for c in lvl.children
               if c.name == "cluster"]
    assert sorted(id(s) for s in adopted) == sorted(id(s) for s in clusters)
    # worker spans keep their inner structure (route/buffer/check/...)
    assert all(any(c.name == "route" for c in s.children)
               for s in clusters)


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------
def test_dead_pool_degrades_to_serial_with_fault_events(monkeypatch):
    # no process pool can be built: every task falls off the ladder
    monkeypatch.setattr(WorkPool, "_ensure_executor", lambda self: None)
    serial, tech = run_flow(200, 0, jobs=1)
    degraded, _ = run_flow(200, 0, jobs=2)
    assert quality(serial, tech) == quality(degraded, tech)
    faults = [e for e in degraded.diagnostics.events if e.kind == "fault"]
    assert faults and all(
        "parallel worker failed" in e.detail for e in faults
    )
    assert serial.diagnostics.count("fault") == 0


_TEST_PID = os.getpid()
_route_in_worker = framework._route_in_worker


def _fail_l0_c2_in_workers(task):
    """Cluster routing whose worker run of net L0_c2 fails."""
    if task.name == "L0_c2" and os.getpid() != _TEST_PID:
        raise RuntimeError("injected worker failure")
    return _route_in_worker(task)


def test_degraded_cluster_routes_in_its_slot(monkeypatch):
    """A cluster whose worker failed is routed in the parent in its own
    slot: its metric updates land where the serial run puts them,
    between its siblings' replayed ones, not after the level."""
    monkeypatch.setattr(METRICS, "_events", None)   # log off afterwards

    def flow(jobs):
        METRICS.begin_event_log()
        result, _tech = run_flow(200, 0, jobs=jobs)
        log = [e for e in METRICS.raw_snapshot()["events"]
               if not e[1].startswith("fabric.")]
        return result, log

    serial, serial_log = flow(1)
    monkeypatch.setattr(framework, "_route_in_worker",
                        _fail_l0_c2_in_workers)
    pooled, pooled_log = flow(2)
    assert serial.levels[0].num_clusters > 3
    assert pooled_log == serial_log
    faults = [e for e in pooled.diagnostics.events if e.kind == "fault"]
    assert [e.net for e in faults] == ["L0_c2"]
    assert "injected worker failure" in faults[0].detail


def test_pooled_blocks_partition_as_serial(monkeypatch):
    """A level's spatial blocks k-meansed through the flow's mapper on a
    2-worker pool give the serial centers and labels byte for byte, and
    the blocks' assignment metrics replay in block order."""
    monkeypatch.setattr(kmeans_mod, "_BLOCK", 64)   # 300 points: 8 blocks
    monkeypatch.setattr(METRICS, "_events", None)   # log off afterwards
    sinks, _side = make_uniform_sinks(300, 0)
    points = [s.location for s in sinks]

    def partition(pool):
        METRICS.begin_event_log()
        centers, labels = kmeans_mod.balanced_kmeans(
            points, max_size=8, seed=3,
            mapper=framework._block_mapper(pool, 0))
        log = [e for e in METRICS.raw_snapshot()["events"]
               if e[1].startswith("partition.assign")]
        return [(repr(c.x), repr(c.y)) for c in centers], labels, log

    serial = partition(None)
    seen = []
    real_map = WorkPool.map

    def spy(self, fn, tasks, **kwargs):
        seen.append(len(tasks))
        return real_map(self, fn, tasks, **kwargs)

    monkeypatch.setattr(WorkPool, "map", spy)
    with WorkPool(2) as pool:
        pooled = partition(pool)
        assert pool.health.healthy
    assert seen == [8]
    assert pooled == serial
    # one exact assignment per overrunning block, in block order
    names = [e[1] for e in serial[2]]
    assert names.count("partition.assign_lsa") == \
        names.count("partition.assign_cost_um") > 1


def _capture_subtrees(monkeypatch):
    """Record the cluster trees each flow grafts, by net name."""
    grafted = {}
    real_graft = framework.graft_subtrees

    def graft(top, subtrees):
        grafted.clear()
        grafted.update(subtrees)
        return real_graft(top, subtrees)

    monkeypatch.setattr(framework, "graft_subtrees", graft)
    return grafted


@pytest.mark.parametrize("jobs", [1, 2])
def test_level_stats_report_the_routed_driver_load(monkeypatch, jobs):
    """``max_routed_cap`` is the largest root-driver stage load of the
    level's routed nets, as a fresh analysis of each net reads it."""
    grafted = _capture_subtrees(monkeypatch)
    result, tech = run_flow(1200, 2, jobs=jobs)
    analyzer = ElmoreAnalyzer(tech)
    slew = FlowConfig().source_slew
    assert len(result.levels) >= 2
    for stats in result.levels:
        loads = [analyzer.analyze(tree, slew).stage_load[tree.root]
                 for name, tree in grafted.items()
                 if name.startswith(f"L{stats.level}_")]
        assert len(loads) == stats.num_clusters
        assert stats.max_routed_cap == max(loads)
    # the HPWL estimate runs below the routed load on level 0
    assert result.levels[0].max_routed_cap > result.levels[0].max_net_cap


def test_degraded_analysis_reports_a_zero_routed_load(monkeypatch):
    """An analysis that raises, on a cluster net or the top net, costs
    that net its timing view (a zero estimate and load), never the run."""
    def failing(self, tree, input_slew=10.0):
        raise RuntimeError("injected analysis failure")

    monkeypatch.setattr(ElmoreAnalyzer, "analyze", failing)
    tech = Technology()
    sinks, side = make_uniform_sinks(200, 0)
    result = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=20), jobs=1,
    ).run(sinks, Point(side / 2, side / 2))
    assert result.levels
    assert all(stats.max_routed_cap == 0.0 for stats in result.levels)
    downgraded = [e.net for e in result.diagnostics.events
                  if (e.stage, e.kind) == ("analyze", "downgrade")]
    assert len(downgraded) == \
        sum(stats.num_clusters for stats in result.levels) + 1
    assert "top" in downgraded
    result.tree.validate()
    assert sorted(s.name for s in result.tree.sinks()) == \
        sorted(s.name for s in sinks)


def test_jobs_zero_resolves_to_cpu_count():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(0) == usable_cpus() >= 1
    assert resolve_jobs(-2) == usable_cpus()
    result, tech = run_flow(200, 0, jobs=0)  # auto: still completes
    serial, _ = run_flow(200, 0, jobs=1)
    assert quality(result, tech) == quality(serial, tech)


def test_usable_cpus_follows_the_affinity_mask(monkeypatch):
    # taskset / a cpuset-limited container: fewer usable than host CPUs
    monkeypatch.setattr(repro.parallel.os, "sched_getaffinity",
                        lambda pid: {3}, raising=False)
    monkeypatch.setattr(repro.parallel.os, "cpu_count", lambda: 64)
    assert usable_cpus() == resolve_jobs(0) == 1
    # platforms without an affinity call fall back to the host count
    monkeypatch.delattr(repro.parallel.os, "sched_getaffinity")
    assert usable_cpus() == 64


def test_cluster_task_is_picklable():
    sinks, _side = make_uniform_sinks(5, 0)
    task = ClusterTask(name="L0_c2", level=0,
                       sinks=tuple(sinks), center=Point(1.0, 2.0))
    clone = pickle.loads(pickle.dumps(task))
    assert clone == task


# ----------------------------------------------------------------------
# Auto (jobs=0, the default): a pool per run, used where it pays
# ----------------------------------------------------------------------
def _spy_pools(monkeypatch, cpus):
    """Patch the CPU budget; record every pool the framework builds, the
    cluster sizes of every level it routes through one, and the block
    count of every level it k-means through one."""
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: cpus)
    seen = {"built": 0, "levels": [], "blocks": []}
    real_map = WorkPool.map

    def build(*args, **kwargs):
        seen["built"] += 1
        return WorkPool(*args, **kwargs)

    def route(self, fn, tasks, **kwargs):
        if all(isinstance(t, ClusterTask) for t in tasks):
            seen["levels"].append([len(t.sinks) for t in tasks])
        else:   # (coords, max_size, seed) spatial-block tasks
            seen["blocks"].append(len(tasks))
        return real_map(self, fn, tasks, **kwargs)

    monkeypatch.setattr(framework, "WorkPool", build)
    monkeypatch.setattr(WorkPool, "map", route)
    return seen


def _task(index, sinks):
    points, _side = make_uniform_sinks(sinks, index)
    return ClusterTask(name=f"L0_c{index}", level=0,
                       sinks=tuple(points), center=Point(0.0, 0.0))


def test_pool_pays_needs_two_clusters_per_worker_and_fat_clusters():
    fat = [_task(j, 8) for j in range(4)]
    assert pool_pays(fat, workers=2, max_fanout=32)
    assert not pool_pays(fat[:3], workers=2, max_fanout=32)
    assert not pool_pays(fat, workers=3, max_fanout=32)
    # clusters averaging below max_fanout // 4 = 8 sinks stay in-process
    thin = [_task(j, 4) for j in range(100)]
    assert not pool_pays(thin, workers=2, max_fanout=32)
    assert not pool_pays(fat[:3] + [_task(3, 7)], workers=2, max_fanout=32)
    assert pool_pays(thin, workers=2, max_fanout=16)


def test_auto_pools_the_paying_levels_and_matches_serial(monkeypatch):
    seen = _spy_pools(monkeypatch, cpus=2)
    tech = Technology()
    sinks, side = make_uniform_sinks(2000, 0)
    source = Point(side / 2, side / 2)
    runs = []
    for jobs in (1, 0):
        METRICS.reset()
        with capture(TRACER):
            result = HierarchicalCTS(tech=tech, jobs=jobs).run(
                list(sinks), source)
            roots = list(TRACER.roots)
        runs.append((result, METRICS.as_dict(precision=None), roots))
    (serial, serial_metrics, _), (auto, auto_metrics, roots) = runs
    assert seen["built"] == 1   # the serial run built none
    # level 0 (2,000 sinks) is two spatial blocks, k-meansed in the pool
    assert seen["blocks"] == [2]
    assert quality(serial, tech) == quality(auto, tech)
    assert serial.levels == auto.levels
    assert event_multiset(serial) == event_multiset(auto)
    assert serial_metrics == auto_metrics
    # level 0 went through the pool: its cluster spans came home from
    # the workers
    level0 = next(s for s in roots[0].walk()
                  if s.name == "level" and s.attrs["level"] == 0)
    clusters = [c for c in level0.children if c.name == "cluster"]
    assert len(clusters) == auto.levels[0].num_clusters
    assert all(c.attrs.get("worker") for c in clusters)
    assert len(seen["levels"][0]) == len(clusters)


def _tiny_cluster_runs(monkeypatch, n):
    """An auto and a serial run over ``n`` uniform sinks on 2 CPUs, with
    clusters of at most 4 sinks; returns the pool spy and both runs."""
    seen = _spy_pools(monkeypatch, cpus=2)
    real_kmeans = framework.balanced_kmeans

    def tiny_kmeans(points, max_size, seed, mapper):
        return real_kmeans(points, max_size=min(max_size, 4), seed=seed,
                           mapper=mapper)

    # the default partitioner, narrowed to clusters of at most 4 sinks;
    # patched on the module, so the config still holds no callable
    monkeypatch.setattr(framework, "balanced_kmeans", tiny_kmeans)
    tech = Technology()
    sinks, side = make_uniform_sinks(n, 0)
    source = Point(side / 2, side / 2)

    def run(jobs):
        return HierarchicalCTS(tech=tech, config=FlowConfig(use_sa=False),
                               jobs=jobs).run(list(sinks), source)

    auto, serial = run(0), run(1)
    assert auto.levels
    assert all(level.max_net_fanout <= 4 for level in auto.levels)
    assert quality(auto, tech) == quality(serial, tech)
    return seen


def test_auto_routes_levels_of_tiny_clusters_in_process(monkeypatch):
    seen = _tiny_cluster_runs(monkeypatch, 400)
    # 400 sinks are one spatial block, so auto builds no pool at all
    assert seen["built"] == 0
    assert seen["levels"] == []
    assert seen["blocks"] == []


def test_auto_routes_levels_of_tiny_clusters_in_process_beside_a_pool(
        monkeypatch):
    """Past one spatial block auto builds the pool and k-means level 0's
    two blocks in it, but routes no level of tiny clusters there."""
    seen = _tiny_cluster_runs(monkeypatch, _BLOCK + 76)
    assert seen["built"] == 1
    assert seen["levels"] == []
    assert seen["blocks"] == [2]


@pytest.mark.parametrize("case", ["router", "one_cpu", "one_block"])
def test_auto_builds_no_pool_where_it_cannot_pay(monkeypatch, case):
    """Auto builds no pool for a user router, on one CPU, or for an
    input of at most one spatial block; the first two run past that
    size, so each rule is tested alone."""
    seen = _spy_pools(monkeypatch, cpus=1 if case == "one_cpu" else 2)
    tech = Technology()
    calls = []

    def counting_router(net, bound, model):
        # stateful: forked copies would count in the workers instead
        calls.append(net.name)
        return cbs(net, bound, model=model)

    config = FlowConfig(sa_iterations=50,
                        router=counting_router if case == "router" else None)
    sinks, side = make_uniform_sinks(
        1000 if case == "one_block" else _BLOCK + 76, 1)
    source = Point(side / 2, side / 2)
    auto = HierarchicalCTS(tech=tech, config=config).run(list(sinks), source)
    auto_calls = len(calls)
    serial = HierarchicalCTS(tech=tech, config=config,
                             jobs=1).run(list(sinks), source)
    assert seen["built"] == 0
    assert quality(auto, tech) == quality(serial, tech)
    assert event_multiset(auto) == event_multiset(serial)
    if case == "router":
        # every net of the auto run was routed by the parent's router
        assert auto_calls == len(calls) - auto_calls > 0

"""Stage reuse across sweep points: exact keys, the event rule, the
bound, and records byte-identical to points computed alone.

A :class:`~repro.reuse.StageReuse` may only ever serve a result its
stage would have computed from the same input bits, so every input a
stage reads must change its key, and every knob it does not read must
leave the key alone.
"""

import pickle
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel
import repro.reuse
import repro.sweep.runner
from repro.core.cbs import cbs
from repro.cts import framework
from repro.cts.constraints import TABLE5
from repro.cts.framework import FlowConfig, HierarchicalCTS
from repro.designs import design_fingerprint
from repro.dme.models import ElmoreDelay
from repro.dme.topology import TOPOLOGY_GENERATORS
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.geometry import Point
from repro.netlist.net import ClockNet
from repro.netlist.sink import Sink
from repro.obs.metrics import METRICS
from repro.parallel import WorkPool, worker_context
from repro.reuse import PARTITION, ROUTED, SKELETON, StageReuse
from repro.sweep import SweepStore, run_sweep
from repro.sweep.runner import PointTask, compute_record
from repro.sweep.spec import load_spec, resolve_point
from repro.sweep.store import canonical_json, record_key
from repro.tech import Technology
from repro.tech.buffer_library import load_library

ROOT = Path(__file__).resolve().parents[2]
SMOKE = ROOT / "examples" / "sweep_smoke.json"
EXPECTED = ROOT / "benchmarks" / "sweep_smoke_expected.jsonl"


@pytest.fixture(autouse=True)
def _fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def _counts() -> dict[str, float]:
    return {f"{kind}_{what}": METRICS.counter(f"cts.reuse.{kind}_{what}")
            for kind in (PARTITION, SKELETON, ROUTED)
            for what in ("hit", "miss")}


def _sinks(n: int = 90, seed: int = 3) -> list[Sink]:
    rng = random.Random(seed)
    return [Sink(f"ff{i}", Point(rng.uniform(0, 120), rng.uniform(0, 120)),
                 cap=rng.uniform(0.6, 1.4)) for i in range(n)]


def _tree_state(tree) -> list:
    return [(nid, node.location, node.parent, list(node.children),
             node.sink, node.buffer, node.detour)
            for nid, node in sorted(tree.nodes.items())]


def _tasks(points, flow_jobs: int = 1) -> list[PointTask]:
    out = []
    for point in points:
        fingerprint = design_fingerprint(point.design, point.scale)
        out.append(PointTask(
            point=point, fingerprint=fingerprint,
            key=record_key(fingerprint, point.canonical_config()),
            flow_jobs=flow_jobs))
    return out


# ----------------------------------------------------------------------
# Records: byte-identical with and without reuse
# ----------------------------------------------------------------------
@st.composite
def placements(draw):
    """30-200 sinks in clustered groups, with duplicate locations and
    coordinates of +0.0 and -0.0."""
    n = draw(st.integers(30, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([2.0, 30.0, 120.0]))
    duplicates = draw(st.sampled_from([0.0, 0.25]))
    zeros = draw(st.sampled_from([0.0, 0.15]))
    centers = [(rng.uniform(-50, 250), rng.uniform(-50, 250))
               for _ in range(draw(st.integers(1, 4)))]
    sinks: list[Sink] = []
    for i in range(n):
        if sinks and rng.random() < duplicates:
            location = rng.choice(sinks).location
        else:
            cx, cy = rng.choice(centers)
            x, y = cx + rng.gauss(0, spread), cy + rng.gauss(0, spread)
            if rng.random() < zeros:
                x = rng.choice((0.0, -0.0))
            if rng.random() < zeros:
                y = rng.choice((0.0, -0.0))
            location = Point(x, y)
        sinks.append(Sink(f"ff{i}", location, cap=rng.uniform(0.5, 2.0)))
    source = Point(rng.choice((0.0, -0.0, 100.0)), rng.uniform(0, 200))
    return sinks, source


def _records(placement, reuse):
    """16 points (eps x library x seed x skew bound) on ``placement``,
    computed in order, as canonical JSON."""
    sinks, source = placement
    design = SimpleNamespace(sinks=sinks, source=source)
    combos = [{"eps": eps, "library": lib, "seed": seed, "skew_bound": sb,
               "sa_iterations": 40}
              for eps in (0.1, 0.5) for lib in ("default", "lean")
              for seed in (0, 1) for sb in (80.0, 10.0)]
    tasks = [PointTask(point=resolve_point(i, "s38584", 1.0, combo),
                       fingerprint="placement", key=f"k{i}", flow_jobs=1)
             for i, combo in enumerate(combos)]
    with mock.patch.object(repro.sweep.runner, "load_design",
                           lambda name, scale: design):
        return [canonical_json(compute_record(t, reuse).record)
                for t in tasks]


@settings(max_examples=6, deadline=None)
@given(placements())
def test_points_with_reuse_equal_points_without(placement):
    METRICS.reset()
    reuse = StageReuse()
    alone = _records(placement, None)
    shared = _records(placement, reuse)
    assert shared == alone
    assert all('"status":"ok"' in r for r in shared)
    # the sharing happened: a placement that partitions at all shares
    # level 0 among the 8 points of each seed and routes each level-0
    # net once per eps and skew bound, and every level-0 net, or the top
    # net of a flat placement, repeats its skeleton across eps
    counts = _counts()
    partitioned = counts["partition_hit"] + counts["partition_miss"] > 0
    assert not partitioned or counts["partition_hit"] >= 14
    assert not partitioned or counts["routed_hit"] > 0
    assert counts["skeleton_hit"] > 0


def test_smoke_counts_in_point_order():
    """The smoke spec's 8 points in order, each flow serial: level 0
    partitions once per seed; both seeds cut the same two level-0 nets,
    so each is routed once per eps (the other 6 points copy it) and its
    skeleton built once; driver nets are never looked up."""
    reuse = StageReuse()
    records = [compute_record(t, reuse).record
               for t in _tasks(load_spec(SMOKE).expand())]
    assert all(r["status"] == "ok" for r in records)
    assert _counts() == {"partition_hit": 6, "partition_miss": 2,
                         "skeleton_hit": 2, "skeleton_miss": 2,
                         "routed_hit": 12, "routed_miss": 4}


def test_pooled_sweep_reuses_and_matches_the_expectation(tmp_path,
                                                         monkeypatch):
    # two CPUs: each point's flow runs serially in its sweep worker, so
    # its level-0 nets route against that worker's reuse object
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    report = run_sweep(load_spec(SMOKE), SweepStore(tmp_path), jobs=2)
    assert report.jsonl_path.read_bytes() == EXPECTED.read_bytes()
    counts = _counts()
    assert counts["partition_hit"] + counts["partition_miss"] == 8
    # at most one miss per seed per worker
    assert counts["partition_hit"] >= 4
    # a worker that runs two points shares each level-0 net: as a routed
    # tree at the same eps, as a skeleton at the other
    assert counts["routed_hit"] + counts["skeleton_hit"] > 0


# ----------------------------------------------------------------------
# Key sensitivity: every input a stage reads misses, nothing else does
# ----------------------------------------------------------------------
def _partition(sinks, reuse, *, config=None, constraints=TABLE5,
               tech=None, level=0):
    engine = HierarchicalCTS(tech=tech, constraints=constraints,
                             config=config or FlowConfig(), jobs=1,
                             reuse=reuse)
    return engine._partition(sinks, level, FlowDiagnostics())


def _edit(sinks, i, **fields):
    out = list(sinks)
    out[i] = replace(out[i], **fields)
    return out


PARTITION_VARIANTS = {
    "seed": dict(config=FlowConfig(seed=1)),
    "level": dict(level=1),
    "use_sa": dict(config=FlowConfig(use_sa=False)),
    "sa_iterations": dict(config=FlowConfig(sa_iterations=199)),
    "max_fanout": dict(constraints=replace(TABLE5, max_fanout=31)),
    "max_cap": dict(constraints=replace(TABLE5, max_cap=149.0)),
    "max_length": dict(constraints=replace(TABLE5, max_length=299.0)),
    "unit_cap": dict(tech=Technology(unit_cap=0.21)),
}


@pytest.mark.parametrize("name", sorted(PARTITION_VARIANTS))
def test_each_partition_knob_misses(name):
    reuse = StageReuse()
    sinks = _sinks()
    _partition(sinks, reuse)
    _partition(sinks, reuse, **PARTITION_VARIANTS[name])
    assert _counts()["partition_hit"] == 0


SINK_EDITS = {
    "name": dict(name="renamed"),
    "x": dict(location=Point(50.25, 7.0)),
    "y": dict(location=Point(7.0, 50.25)),
    "cap": dict(cap=1.0000000000000002),
    "subtree_delay": dict(subtree_delay=5e-324),
}


def _signed_zero_sinks(zero: float) -> list[Sink]:
    sinks = _sinks(40)
    sinks[5] = replace(sinks[5], location=Point(zero, 12.0))
    return sinks


@pytest.mark.parametrize("field", sorted(SINK_EDITS) + ["sign_of_zero"])
def test_each_sink_field_misses_both_stages(field):
    reuse = StageReuse()
    if field == "sign_of_zero":
        before, after = _signed_zero_sinks(0.0), _signed_zero_sinks(-0.0)
        assert before == after     # equal by ==, not by bits
    else:
        before = _edit(_sinks(40), 5, location=Point(7.0, 7.0))
        after = _edit(before, 5, **SINK_EDITS[field])
    _partition(before, reuse)
    _partition(after, reuse)
    model = ElmoreDelay(Technology())
    cbs(ClockNet("n", Point(60.0, 60.0), before[:30]), 20.0, 0.3, model,
        reuse=reuse)
    cbs(ClockNet("n", Point(60.0, 60.0), after[:30]), 20.0, 0.3, model,
        reuse=reuse)
    assert _counts() == {"partition_hit": 0, "partition_miss": 2,
                         "skeleton_hit": 0, "skeleton_miss": 2,
                         "routed_hit": 0, "routed_miss": 2}


SKELETON_VARIANTS = {
    "skew_bound": dict(skew_bound=19.0),
    "topology": dict(topology="greedy_merge"),
    "source_x": dict(source=Point(61.0, 60.0)),
    "source_y": dict(source=Point(60.0, 61.0)),
    "source_sign_of_zero": dict(source=Point(-0.0, 60.0)),
    "unit_res": dict(model=ElmoreDelay(Technology(unit_res=2.5))),
    "unit_cap": dict(model=ElmoreDelay(Technology(unit_cap=0.25))),
}


def _cbs(reuse, *, source=Point(60.0, 60.0), skew_bound=20.0, eps=0.3,
         model=None, topology="greedy_dist"):
    net = ClockNet("n", source, _sinks(30))
    return cbs(net, skew_bound, eps, model or ElmoreDelay(Technology()),
               topology=topology, reuse=reuse)


@pytest.mark.parametrize("name", sorted(SKELETON_VARIANTS))
def test_each_skeleton_input_misses(name):
    """Every input of the skeleton misses both the skeleton and the
    routed tree, which is keyed by the same inputs plus eps."""
    reuse = StageReuse()
    base = dict(source=Point(0.0, 60.0)) \
        if name == "source_sign_of_zero" else {}
    _cbs(reuse, **base)
    _cbs(reuse, **SKELETON_VARIANTS[name])
    counts = _counts()
    assert counts["skeleton_hit"] == counts["routed_hit"] == 0
    assert counts["routed_miss"] == 2


def test_eps_hits_the_skeleton_and_routes_as_without_reuse():
    reuse = StageReuse()
    _cbs(reuse, eps=0.1)
    shared = _cbs(reuse, eps=0.7)
    alone = _cbs(None, eps=0.7)
    assert _counts()["skeleton_hit"] == 1
    assert _counts()["routed_hit"] == 0
    assert _tree_state(shared) == _tree_state(alone)


@pytest.mark.parametrize("before, after", [
    (0.3, 0.30000000000000004), (1.0, 1), (0.0, -0.0)])
def test_eps_misses_the_routed_tree_by_bits_and_type(before, after):
    """An eps that differs in one bit, in type, or in the sign of zero
    misses the routed tree (and hits the skeleton)."""
    reuse = StageReuse()
    _cbs(reuse, eps=before)
    shared = _cbs(reuse, eps=after)
    assert _counts() == {"partition_hit": 0, "partition_miss": 0,
                         "skeleton_hit": 1, "skeleton_miss": 1,
                         "routed_hit": 0, "routed_miss": 2}
    assert _tree_state(shared) == _tree_state(_cbs(None, eps=after))


def test_a_repeated_call_copies_the_routed_tree():
    """The same inputs and eps again: the routed tree is served (no
    skeleton lookup), as a copy equal to a call without reuse."""
    reuse = StageReuse()
    first = _cbs(reuse)
    shared = _cbs(reuse)
    assert _counts() == {"partition_hit": 0, "partition_miss": 0,
                         "skeleton_hit": 0, "skeleton_miss": 1,
                         "routed_hit": 1, "routed_miss": 1}
    assert _tree_state(shared) == _tree_state(_cbs(None))
    kept, = reuse._entries[ROUTED].values()
    assert len({id(first), id(shared), id(kept)}) == 3
    assert not {id(node) for node in shared.nodes.values()} \
        & {id(node) for node in kept.nodes.values()}


def test_a_call_that_raises_keeps_no_routed_tree():
    reuse = StageReuse()
    with pytest.raises(ValueError):
        _cbs(reuse, eps=-1.0)
    assert not reuse._entries[ROUTED]
    assert _counts()["routed_miss"] == 1


def test_unknown_delay_models_and_given_topologies_are_not_kept():
    class Scaled(ElmoreDelay):
        def wire_delay(self, length, downstream_cap):
            return 2 * super().wire_delay(length, downstream_cap)

    reuse = StageReuse()
    for _ in range(2):
        _cbs(reuse, model=Scaled(Technology()))
        _cbs(reuse, topology=TOPOLOGY_GENERATORS["greedy_dist"])
    assert _counts() == {"partition_hit": 0, "partition_miss": 0,
                         "skeleton_hit": 0, "skeleton_miss": 0,
                         "routed_hit": 0, "routed_miss": 0}
    assert not reuse._entries[SKELETON]
    assert not reuse._entries[ROUTED]


@pytest.mark.parametrize("knobs", [
    {"eps": 0.9}, {"library": "lean"}, {"source_slew": 30.0},
    {"repair_budget": 0}, {"use_insertion_estimate": False},
])
def test_knobs_the_stages_never_read_hit_at_level_0(knobs):
    """Flows that differ only in a knob no stage reads share the level-0
    partition and copy every level-0 routed net; flows that differ in
    eps share every level-0 skeleton instead."""
    reuse = StageReuse()
    sinks = _sinks(150)

    def run(config, library):
        engine = HierarchicalCTS(library=load_library(library),
                                 config=config, jobs=1, reuse=reuse)
        return engine.run(sinks, Point(60.0, 60.0))

    first = run(FlowConfig(), "default")
    METRICS.reset()
    library = knobs.get("library", "default")
    config = FlowConfig(**{k: v for k, v in knobs.items()
                           if k != "library"})
    run(config, library)
    level0 = first.levels[0].num_clusters
    assert METRICS.counter("cts.reuse.partition_hit") >= 1
    if "eps" in knobs:
        assert METRICS.counter("cts.reuse.skeleton_hit") >= level0
    else:
        assert METRICS.counter("cts.reuse.routed_hit") >= level0


def test_only_nets_of_the_designs_own_sinks_are_kept():
    """A driver net's sinks carry caps and subtree delays that follow
    eps and the library, so no kept entry has a driver net's key after
    a flow of three levels; a flat placement's top net, whose sinks are
    the design's own, is still shared."""
    reuse = StageReuse()
    sinks = _sinks(150)
    result = HierarchicalCTS(constraints=replace(TABLE5, max_fanout=8),
                             jobs=1, reuse=reuse).run(sinks,
                                                      Point(60.0, 60.0))
    assert len(result.levels) >= 2
    names = {sink.name for sink in sinks}
    for kind in (SKELETON, ROUTED):
        kept = reuse._entries[kind]
        assert len(kept) >= result.levels[0].num_clusters
        assert all(set(key[0]) <= names for key in kept), kind

    flat = _sinks(20)
    METRICS.reset()
    for library in ("default", "lean"):
        engine = HierarchicalCTS(library=load_library(library), jobs=1,
                                 reuse=reuse)
        assert not engine.run(flat, Point(60.0, 60.0)).levels
    assert _counts()["routed_hit"] == 1


# ----------------------------------------------------------------------
# The event rule, the bound, no mutation, process scope
# ----------------------------------------------------------------------
def test_a_partition_that_recorded_events_is_never_kept(monkeypatch):
    from repro.partition.kmeans import balanced_kmeans

    def stray_labels(points, max_size=32, seed=0, mapper=map):
        centers, labels = balanced_kmeans(points, max_size=max_size,
                                          seed=seed, mapper=mapper)
        return centers, [label if i % 7 else len(centers) + 3
                         for i, label in enumerate(labels)]

    monkeypatch.setattr(framework, "balanced_kmeans", stray_labels)
    reuse = StageReuse()
    sinks = _sinks(150)
    for eps in (0.1, 0.3, 0.5):
        engine = HierarchicalCTS(config=FlowConfig(eps=eps), jobs=1,
                                 reuse=reuse)
        result = engine.run(sinks, Point(60.0, 60.0))
        strays = [e for e in result.diagnostics.events
                  if e.stage == "partition" and e.level == 0
                  and "out-of-range" in e.detail]
        assert len(strays) == 1, eps
    assert METRICS.counter("cts.reuse.partition_hit") == 0
    assert not reuse._entries[PARTITION]


@pytest.mark.parametrize("kind, bound", [(PARTITION, "PARTITION_ENTRIES"),
                                         (SKELETON, "SKELETON_ENTRIES"),
                                         (ROUTED, "ROUTED_ENTRIES")])
def test_the_least_recently_used_entry_is_evicted(monkeypatch, kind, bound):
    monkeypatch.setattr(repro.reuse, bound, 2)
    reuse = StageReuse()
    reuse.put(kind, "a", 1)
    reuse.put(kind, "b", 2)
    assert reuse.get(kind, "a") == 1      # "b" is now the oldest
    reuse.put(kind, "c", 3)
    assert list(reuse._entries[kind]) == ["a", "c"]
    assert reuse.get(kind, "b") is None


def _assert_kept_trees_unchanged(kind):
    """The flow buffers, re-sizes and repairs every tree it routes; what
    the smoke spec's first point keeps of ``kind`` stays as it was kept
    while the other seven points hit it."""
    reuse = StageReuse()
    tasks = _tasks(load_spec(SMOKE).expand())
    compute_record(tasks[0], reuse)
    kept = {key: _tree_state(tree)
            for key, tree in reuse._entries[kind].items()}
    assert kept
    for task in tasks[1:]:
        compute_record(task, reuse)
    assert METRICS.counter(f"cts.reuse.{kind}_hit") > 0
    for key, state in kept.items():
        assert _tree_state(reuse._entries[kind][key]) == state


def test_kept_skeletons_are_never_mutated():
    _assert_kept_trees_unchanged(SKELETON)


def test_kept_routed_trees_are_never_mutated():
    _assert_kept_trees_unchanged(ROUTED)


def test_a_pickled_copy_arrives_empty():
    reuse = StageReuse()
    reuse.put(SKELETON, "k", "tree")
    copy = pickle.loads(pickle.dumps(reuse))
    assert copy.get(SKELETON, "k") is None
    assert reuse.get(SKELETON, "k") == "tree"


def _kept_in_worker(_task) -> int:
    reuse = worker_context()
    return 0 if reuse.get(SKELETON, "k") is None else 1


def test_pool_workers_start_empty():
    reuse = StageReuse()
    reuse.put(SKELETON, "k", "tree")
    with WorkPool(2, context=reuse) as pool:
        assert pool.map(_kept_in_worker, [0, 1]) == [0, 0]


def test_flows_outside_a_sweep_count_no_lookups():
    HierarchicalCTS(jobs=1).run(_sinks(60), Point(60.0, 60.0))
    assert _counts() == {"partition_hit": 0, "partition_miss": 0,
                         "skeleton_hit": 0, "skeleton_miss": 0,
                         "routed_hit": 0, "routed_miss": 0}

"""Microbench: CBS construction, ``refine``, skew repair, the DME merge
topology, Elmore analysis, the post-routing stage and SA partition
refinement at the flow's sizes.

The hierarchical flow routes nets of at most ``max_fanout`` = 32 sinks,
so its per-net kernels only ever see trees of a few dozen nodes.  This
bench times them on the same random nets of 8, 16 and 32 sinks, the
traced benchmark's ``core.cbs_calls.le8/le16/le32`` buckets:

* ``cbs`` building each net's tree from scratch (both ``refine`` calls
  included), as the flow routes a cluster net;
* ``refine`` on every tree CBS hands it (the Step 2 skeleton and the
  Step 3 SALT tree), each on a fresh copy;
* ``repair_skew`` on the Step 4 tree CBS hands Step 5, each on a fresh
  copy;
* ``greedy_dist`` (CBS Step 1's merge topology) on each net's sinks,
  and on 128 and 512 uniform sinks, where a quadratic pair search
  would show;
* ``ElmoreAnalyzer.analyze`` on each routed net with its root driver
  placed, as the flow analyzes it;
* the post-routing stage on a fresh copy of each routed net:
  ``split_long_edges``, ``place_driver`` and ``check_and_repair`` (whose
  analysis is the net's one timing view), as the flow runs them;
* ``anneal_partition`` (paper Fig. 4, the flow's 200 iterations) on
  the level-0 partitions the flow hands it: 4 and 8 nets of about 32
  sinks (``s38584`` and ``salsa20`` at scale 0.1, the shape of a
  ``sweep_cold`` point) and ethernet's 313 nets (10,015 sinks);
* ``balanced_assign`` (the exact capacitated assignment of Section
  3.2) on ethernet's 16 level-0 spatial blocks after Lloyd: 608-640
  points, 19-20 centers of capacity 32, as balanced K-means calls it.

A batched arm of either kernel has to win here, and in the flow, before
it replaces the scalar one.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py

CI runs it with ``--benchmark-disable`` (each bench once, untimed), so
the benches cannot rot.
"""

import importlib
import random
from collections import Counter

import pytest

from repro.buffering import place_driver, split_long_edges
from repro.core import cbs
from repro.cts import TABLE5, FlowConfig, HierarchicalCTS
from repro.designs import load_design
from repro.dme import ElmoreDelay
from repro.dme.repair import repair_skew
from repro.dme.topology import greedy_dist
from repro.geometry import Point
from repro.netlist import Sink
from repro.flowguard import check_and_repair
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.partition import anneal_partition, balanced_assign
from repro.salt import refine
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer

from conftest import random_clock_net

TECH = Technology()
NETS_PER_SIZE = 20
SKEW_BOUND_PS = 80.0  # Table 5


@pytest.fixture(scope="module", params=(8, 16, 32),
                ids=lambda n: f"{n}sinks")
def cbs_nets(request):
    """``NETS_PER_SIZE`` random nets of ``request.param`` sinks, their
    CBS trees, a copy of every tree CBS refined while routing them, and
    a copy of each net's Step 4 tree, the one Step 5 repairs."""
    rng = random.Random(request.param)
    refined = []
    step4 = []

    def capture(tree, *args, **kwargs):
        refined.append(tree.copy())
        return refine(tree, *args, **kwargs)

    def capture_step4(tree, *args, **kwargs):
        step4.append(tree.copy())
        return repair_skew(tree, *args, **kwargs)

    nets = [random_clock_net(rng, n_pins=request.param, name=f"n{i}")
            for i in range(NETS_PER_SIZE)]
    routed = []
    with pytest.MonkeyPatch.context() as mp:
        for module in ("repro.core.cbs", "repro.salt.salt"):
            mp.setattr(importlib.import_module(module), "refine", capture)
        mp.setattr(importlib.import_module("repro.core.cbs"), "repair_skew",
                   capture_step4)
        for net in nets:
            tree = cbs(net, SKEW_BOUND_PS, model=ElmoreDelay(TECH))
            place_driver(tree, default_library(), TECH)
            routed.append(tree)
    return nets, routed, refined, step4


def test_cbs_construction(benchmark, cbs_nets):
    nets, _, _, _ = cbs_nets
    model = ElmoreDelay(TECH)

    def run():
        return [cbs(net, SKEW_BOUND_PS, model=model) for net in nets]

    trees = benchmark.pedantic(run, rounds=10, iterations=1)
    assert len(trees) == NETS_PER_SIZE


def test_refine_cbs_nets(benchmark, cbs_nets):
    _, _, refined, _ = cbs_nets

    def fresh_copies():
        return ([t.copy() for t in refined],), {}

    def run(trees):
        return sum(refine(t) for t in trees)

    saved = benchmark.pedantic(run, setup=fresh_copies, rounds=20,
                               iterations=1)
    assert saved >= 0.0


def test_repair_skew_cbs_nets(benchmark, cbs_nets):
    _, _, _, step4 = cbs_nets
    model = ElmoreDelay(TECH)

    def fresh_copies():
        return ([t.copy() for t in step4],), {}

    def run(trees):
        # wire added per tree; negative where re-embedding saved wire
        return [repair_skew(t, SKEW_BOUND_PS, model=model) for t in trees]

    added = benchmark.pedantic(run, setup=fresh_copies, rounds=20,
                               iterations=1)
    assert len(added) == NETS_PER_SIZE


def test_greedy_dist_cbs_nets(benchmark, cbs_nets):
    nets, _, _, _ = cbs_nets
    topologies = benchmark(lambda: [greedy_dist(net.sinks) for net in nets])
    assert len(topologies) == NETS_PER_SIZE


@pytest.mark.parametrize("n", (128, 512), ids=lambda n: f"{n}sinks")
def test_greedy_dist_uniform(benchmark, n):
    rng = random.Random(n)
    sinks = [Sink(f"s{i}", Point(rng.uniform(0, 300.0), rng.uniform(0, 300.0)))
             for i in range(n)]
    topology = benchmark.pedantic(greedy_dist, args=(sinks,), rounds=5,
                                  iterations=1)
    assert topology.sink is None


def test_analyze_cbs_nets(benchmark, cbs_nets):
    _, routed, _, _ = cbs_nets
    analyzer = ElmoreAnalyzer(TECH)
    reports = benchmark(lambda: [analyzer.analyze(t) for t in routed])
    assert len(reports) == NETS_PER_SIZE
    assert all(r.skew >= 0.0 for r in reports)


def test_post_routing_cbs_nets(benchmark, cbs_nets):
    _, routed, _, _ = cbs_nets
    lib = default_library()
    span = TABLE5.effective_span(TECH)
    slew = FlowConfig().source_slew

    def fresh_copies():
        return ([t.copy() for t in routed],), {}

    def run(trees):
        reports = []
        for tree in trees:
            split_long_edges(tree, lib, TECH, span, slew)
            place_driver(tree, lib, TECH)
            _, report = check_and_repair(tree, TABLE5, TECH, lib,
                                         source_slew=slew)
            reports.append(report)
        return reports

    reports = benchmark.pedantic(run, setup=fresh_copies, rounds=20,
                                 iterations=1)
    assert len(reports) == NETS_PER_SIZE
    assert all(r.skew >= 0.0 for r in reports)


@pytest.fixture(scope="module",
                params=(("s38584", 0.1), ("salsa20", 0.1), ("ethernet", 1.0)),
                ids=lambda p: f"{p[0]}@{p[1]}")
def sa_partition(request):
    """A design's level-0 clusters before SA, and the flow's SA config."""
    design = load_design(request.param[0], scale=request.param[1])
    flow = HierarchicalCTS(config=FlowConfig(use_sa=False), jobs=1)
    clusters, _, _ = flow._partition(design.sinks, 0, FlowDiagnostics())
    return clusters, flow._sa_config(0)


def test_anneal_partition(benchmark, sa_partition):
    clusters, cfg = sa_partition
    refined, trace = benchmark.pedantic(
        anneal_partition, args=(clusters, cfg), rounds=10, iterations=1)
    assert len(trace) == cfg.iterations + 1 == 201
    assert sum(c.size for c in refined) == sum(c.size for c in clusters)


@pytest.fixture(scope="module")
def ethernet_assignments():
    """The ``balanced_assign`` calls of ethernet's level-0 partition:
    each spatial block's points and Lloyd centers, captured as balanced
    K-means makes them."""
    calls = []

    def capture(points, centers, capacity):
        calls.append((points, centers, capacity))
        return balanced_assign(points, centers, capacity)

    design = load_design("ethernet")
    flow = HierarchicalCTS(config=FlowConfig(use_sa=False), jobs=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(importlib.import_module("repro.partition.kmeans"),
                   "balanced_assign", capture)
        flow._partition(design.sinks, 0, FlowDiagnostics())
    return calls


def test_balanced_assign_ethernet_blocks(benchmark, ethernet_assignments):
    def run():
        return [balanced_assign(points, centers, capacity=capacity)
                for points, centers, capacity in ethernet_assignments]

    solved = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(solved) == 16
    for (points, _, capacity), labels in zip(ethernet_assignments, solved):
        assert len(labels) == len(points)
        assert max(Counter(labels).values()) <= capacity

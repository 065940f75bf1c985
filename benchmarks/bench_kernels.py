"""Microbench: CBS construction, ``refine`` and Elmore analysis at the
flow's net sizes.

The hierarchical flow routes nets of at most ``max_fanout`` = 32 sinks,
so its per-net kernels only ever see trees of a few dozen nodes.  This
bench times them on the same random nets of 8, 16 and 32 sinks, the
traced benchmark's ``core.cbs_calls.le8/le16/le32`` buckets:

* ``cbs`` building each net's tree from scratch (both ``refine`` calls
  included), as the flow routes a cluster net;
* ``refine`` on every tree CBS hands it (the Step 2 skeleton and the
  Step 3 SALT tree), each on a fresh copy;
* ``ElmoreAnalyzer.analyze`` on each routed net with its root driver
  placed, as the flow analyzes it.

A batched arm of either kernel has to win here, and in the flow, before
it replaces the scalar one.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py
"""

import importlib
import random

import pytest

from repro.buffering import place_driver
from repro.core import cbs
from repro.dme import ElmoreDelay
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
    CBS trees, and a copy of every tree CBS refined while routing them."""
    rng = random.Random(request.param)
    refined = []

    def capture(tree, *args, **kwargs):
        refined.append(tree.copy())
        return refine(tree, *args, **kwargs)

    nets = [random_clock_net(rng, n_pins=request.param, name=f"n{i}")
            for i in range(NETS_PER_SIZE)]
    routed = []
    with pytest.MonkeyPatch.context() as mp:
        for module in ("repro.core.cbs", "repro.salt.salt"):
            mp.setattr(importlib.import_module(module), "refine", capture)
        for net in nets:
            tree = cbs(net, SKEW_BOUND_PS, model=ElmoreDelay(TECH))
            place_driver(tree, default_library(), TECH)
            routed.append(tree)
    return nets, routed, refined


def test_cbs_construction(benchmark, cbs_nets):
    nets, _, _ = cbs_nets
    model = ElmoreDelay(TECH)

    def run():
        return [cbs(net, SKEW_BOUND_PS, model=model) for net in nets]

    trees = benchmark.pedantic(run, rounds=10, iterations=1)
    assert len(trees) == NETS_PER_SIZE


def test_refine_cbs_nets(benchmark, cbs_nets):
    _, _, refined = cbs_nets

    def fresh_copies():
        return ([t.copy() for t in refined],), {}

    def run(trees):
        return sum(refine(t) for t in trees)

    saved = benchmark.pedantic(run, setup=fresh_copies, rounds=20,
                               iterations=1)
    assert saved >= 0.0


def test_analyze_cbs_nets(benchmark, cbs_nets):
    _, routed, _ = cbs_nets
    analyzer = ElmoreAnalyzer(TECH)
    reports = benchmark(lambda: [analyzer.analyze(t) for t in routed])
    assert len(reports) == NETS_PER_SIZE
    assert all(r.skew >= 0.0 for r in reports)

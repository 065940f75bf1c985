"""Guard: the DME topology hot path must actually take its batched arm.

``repro.dme.topology`` declares the METRICS counters its matrix-form
agglomeration bumps (``BATCH_COUNTERS``).  This test runs a
representative end-to-end flow and fails if any declared counter stayed
at zero — which is exactly what happens when a refactor quietly reroutes
the agglomeration back onto the per-pair Python loop (the scalar
reference arm bumps none of these).

The counter names are collected from the module itself, not hard-coded
here, so the guard follows the definition site.
"""

import repro.dme.topology
from repro.cts import FlowConfig, HierarchicalCTS
from repro.geometry import Point
from repro.obs.metrics import METRICS
from repro.perf import make_uniform_sinks
from repro.tech import Technology


def test_flow_exercises_every_declared_batched_counter():
    sinks, side = make_uniform_sinks(400, seed=0)
    METRICS.reset()
    engine = HierarchicalCTS(tech=Technology(),
                             config=FlowConfig(sa_iterations=10))
    engine.run(sinks, Point(side / 2, side / 2))

    declared = repro.dme.topology.BATCH_COUNTERS
    assert declared, "repro.dme.topology must declare BATCH_COUNTERS"
    dead = sorted(name for name in declared if METRICS.counter(name) <= 0)
    assert not dead, (
        "batched DME agglomeration never ran (per-pair Python loop "
        "regression?): " + ", ".join(dead)
    )

"""End-to-end observability of the hierarchical flow.

These pin the acceptance properties of the obs subsystem against a real
(small, fixed-seed) flow: span depth, export determinism, the
stage-time/span-duration identity, the grid-index counters, and that a
disabled tracer records nothing while the flow output is unchanged.
"""

import pytest

from repro.cts import FlowConfig, HierarchicalCTS
from repro.geometry import Point
from repro.obs import METRICS, TRACER, capture, to_chrome_trace, trace_depth
from repro.perf import make_uniform_sinks
from repro.tech import Technology


def _spans_named(name):
    """Every collected span called ``name``, in preorder."""
    return [s for root in TRACER.roots for s in root.walk()
            if s.name == name]


def _run_flow(n=60, seed=0):
    sinks, side = make_uniform_sinks(n, seed)
    engine = HierarchicalCTS(
        tech=Technology(), config=FlowConfig(sa_iterations=20)
    )
    return engine.run(sinks, Point(side / 2, side / 2))


@pytest.fixture
def fresh_metrics():
    METRICS.reset()
    yield METRICS
    METRICS.reset()


def test_traced_flow_reaches_depth_4(fresh_metrics):
    with capture(TRACER):
        _run_flow()
        assert TRACER.max_depth() >= 4
        names = {s.name for r in TRACER.roots for s in r.walk()}
        # flow -> level -> cluster -> route -> refine -> pass
        assert {"flow", "level", "cluster", "route", "refine",
                "pass"} <= names


def test_trace_export_is_deterministic(fresh_metrics):
    def shapes():
        with capture(TRACER):
            _run_flow()
            return tuple(r.shape() for r in TRACER.roots)

    assert shapes() == shapes()


def test_stage_times_equal_span_durations(fresh_metrics):
    with capture(TRACER):
        result = _run_flow()
        diag = result.diagnostics
        assert diag is not None and diag.stage_time_s
        for stage, total in diag.stage_time_s.items():
            spans = _spans_named(stage)
            assert spans, f"stage {stage!r} left no spans"
            assert total == pytest.approx(
                sum(s.duration for s in spans), rel=1e-9
            )
        (flow_root,) = _spans_named("flow")
        # every stage second is inside the flow span, never more
        assert sum(diag.stage_time_s.values()) <= flow_root.duration


def test_flow_metrics_include_grid_counters(fresh_metrics):
    _run_flow()  # metrics are always on; no tracing needed
    snap = METRICS.as_dict()
    counters = snap["counters"]
    assert counters["salt.grid.queries"] > 0
    assert counters["salt.median_skips"] > 0
    assert "cts.cluster_wl_um" in snap["histograms"]


def test_disabled_tracer_records_nothing_and_output_matches(fresh_metrics):
    TRACER.reset()
    assert not TRACER.enabled
    plain = _run_flow()
    assert TRACER.roots == []
    with capture(TRACER):
        traced = _run_flow()
    # instrumentation is observational: identical trees either way
    assert plain.tree.wirelength() == traced.tree.wirelength()
    assert len(plain.tree) == len(traced.tree)
    assert plain.tree.buffer_node_ids() == traced.tree.buffer_node_ids()


def test_traced_flow_exports_valid_chrome_trace(fresh_metrics):
    with capture(TRACER):
        _run_flow()
        payload = to_chrome_trace(TRACER, METRICS)
    assert trace_depth(payload) >= 4
    assert payload["metrics"]["counters"]["salt.grid.queries"] > 0
    for ev in payload["traceEvents"]:
        assert ev["ph"] in ("M", "X")

"""Per-layer measurement for the traced benchmark run.

Everything here runs inside a child process, before the measured
operation starts, and measures the program from outside:

* :func:`install` replaces public entry points (:data:`TIMED`) with
  timing wrappers on the module attribute their callers look up at call
  time.  Each call's wall time lands in the program's own metrics
  registry as a ``bench.<layer>`` observation, so calls made inside
  forked sweep workers ride home on the registry snapshot the sweep
  runner already merges into the parent.
* :func:`self_times` folds the spans the flow already emits into self
  time by span name.
* :func:`layer_values` turns a registry snapshot and those self times
  into the per-layer metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
from time import perf_counter

from repro.cts.constraints import TABLE5
from repro.obs.metrics import METRICS

#: (metric stem, module, attribute) of every timed entry point.  The
#: module is the one whose attribute the caller reads, so patching it
#: reaches every call the flow makes.  ``repro.partition.kmeans`` is
#: resolved through ``sys.modules`` (``importlib.import_module``)
#: because the package re-exports the ``kmeans`` function under the
#: submodule's name.
TIMED = (
    ("partition.kmeans", "repro.cts.framework", "balanced_kmeans"),
    ("partition.assign", "repro.partition.kmeans", "balanced_assign"),
    ("partition.sa", "repro.cts.framework", "anneal_partition"),
    ("core.cbs", "repro.flowguard.fallback", "cbs"),
    ("salt.refine", "repro.core.cbs", "refine"),
    ("salt.salt", "repro.core.cbs", "salt"),
    ("dme.bst", "repro.core.cbs", "bst_dme"),
    ("dme.repair", "repro.core.cbs", "repair_skew"),
    ("buffering.split", "repro.cts.framework", "split_long_edges"),
    ("buffering.driver", "repro.cts.framework", "place_driver"),
    ("timing.analyze", "repro.timing.elmore", "ElmoreAnalyzer.analyze"),
    ("flowguard.check", "repro.cts.framework", "check_and_repair"),
    ("sweep.store_put", "repro.sweep.store", "SweepStore.put"),
)

#: CBS calls are also timed per net-size bucket (sinks, upper bound).
CBS_BUCKETS = (("le8", 8), ("le16", 16), ("le32", 32), ("gt32", math.inf))

#: Spans whose self time is reported as ``span_self_s.<name>``.
SPAN_NAMES = ("flow", "level", "cluster", "sa", "refine", "pass",
              "merge_tree", "sweep.point")

#: Per-layer metric -> stem of a :data:`TIMED` wrapper.
_CALLS = {
    "partition.kmeans_calls": "partition.kmeans",
    "timing.analyze_calls": "timing.analyze",
    "sweep.store_puts": "sweep.store_put",
}
_SECONDS = {
    "partition.kmeans_s": "partition.kmeans",
    "partition.assign_s": "partition.assign",
    "partition.sa_s": "partition.sa",
    "core.cbs_s": "core.cbs",
    "salt.refine_s": "salt.refine",
    "salt.salt_s": "salt.salt",
    "dme.bst_s": "dme.bst",
    "dme.repair_s": "dme.repair",
    "buffering.split_s": "buffering.split",
    "buffering.driver_s": "buffering.driver",
    "timing.analyze_s": "timing.analyze",
    "flowguard.check_s": "flowguard.check",
    "sweep.store_put_s": "sweep.store_put",
}

#: Per-layer metric -> registry counter (the program's own, or one the
#: ``HierarchicalCTS.run`` wrapper adds under ``bench.``).
_COUNTERS = {
    "cts.partition_s": "bench.cts.partition_s",
    "cts.route_s": "bench.cts.route_s",
    "cts.buffer_s": "bench.cts.buffer_s",
    "cts.check_s": "bench.cts.check_s",
    "cts.analyze_s": "bench.cts.analyze_s",
    "cts.assemble_s": "bench.cts.assemble_s",
    "partition.assign_lsa": "partition.assign_lsa",
    "partition.assign_mcf": "partition.assign_mcf",
    "partition.assign_regret_greedy": "partition.assign_regret_greedy",
    "salt.batch_evals": "salt.batch.evals",
    "salt.dirty_skips": "salt.dirty_skips",
    "salt.reattach_moves": "salt.reattach_moves",
    "dme.merges": "dme.merges",
    "buffering.drivers": "buffer.drivers",
    "buffering.repeaters": "buffer.repeaters",
    "timing.batch_nodes": "timing.batch.nodes",
    "flowguard.events": "bench.flowguard.total",
    "flowguard.retry": "bench.flowguard.retry",
    "flowguard.downgrade": "bench.flowguard.downgrade",
    "flowguard.violation": "bench.flowguard.violation",
    "flowguard.repair": "bench.flowguard.repair",
    "parallel.task_retry": "fabric.task.retry",
    "parallel.pool_resurrected": "fabric.pool.resurrected",
    "parallel.task_degraded": "fabric.task.degraded",
    "sweep.point_failed": "sweep.point.failed",
}

#: Per-layer metric -> (numerator, denominator) counters.
_RATIOS = {
    "partition.sa_accept_ratio": ("partition.sa_moves_accepted",
                                  "partition.sa_moves_proposed"),
    "salt.batch_fallback_ratio": ("salt.batch.fallbacks",
                                  "salt.batch.evals"),
}

#: Per-layer metric -> ``bench.`` histogram whose maximum it reports.
_MAXIMA = {
    "cts.levels": "bench.cts.levels",
    "cts.max_fanout": "bench.cts.max_fanout",
    "cts.cluster_ratio_max": "bench.cts.cluster_ratio",
}


def _cbs_bucket(net) -> str:
    return next(label for label, top in CBS_BUCKETS if len(net.sinks) <= top)


def _timed(stem: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            METRICS.observe(f"bench.{stem}", elapsed)
            if stem == "core.cbs":
                METRICS.observe(f"bench.{stem}.{_cbs_bucket(args[0])}",
                                elapsed)
    return wrapper


def _observing_run(run):
    """``HierarchicalCTS.run`` that also records the result's level
    stats, stage times and flowguard events in the registry."""
    @functools.wraps(run)
    def wrapper(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        METRICS.observe("bench.cts.levels", len(result.levels))
        for level in result.levels:
            METRICS.observe("bench.cts.max_fanout", level.max_net_fanout)
            METRICS.observe(
                "bench.cts.cluster_ratio",
                level.num_clusters
                / math.ceil(level.num_sinks / TABLE5.max_fanout),
            )
        diag = result.diagnostics
        if diag is not None:
            for stage, seconds in diag.stage_time_s.items():
                METRICS.inc(f"bench.cts.{stage}_s", seconds)
            for kind, count in diag.event_breakdown().items():
                METRICS.inc(f"bench.flowguard.{kind}", count)
        return result
    return wrapper


def install() -> None:
    """Wrap every :data:`TIMED` entry point and ``HierarchicalCTS.run``."""
    for stem, module_name, attr in TIMED:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, _timed(stem, getattr(owner, name)))
    from repro.cts.framework import HierarchicalCTS

    HierarchicalCTS.run = _observing_run(HierarchicalCTS.run)


def _covered(span) -> float:
    """Seconds of ``span`` covered by the union of its children.

    Children adopted from worker processes can overlap each other, so
    their durations are merged as intervals rather than summed.
    """
    covered, reach = 0.0, span.start
    for start, end in sorted((c.start, c.end) for c in span.children):
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(roots) -> dict[str, float]:
    """Self time (duration minus child coverage), summed by span name."""
    totals: dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            totals[span.name] = (totals.get(span.name, 0.0)
                                 + span.duration - _covered(span))
    return totals


def layer_values(snapshot: dict, spans: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from a ``METRICS.raw_snapshot()`` taken with the
    event log on, plus :func:`self_times` output."""
    counters = snapshot["counters"]
    hists = snapshot["hists"]

    def hist(name: str, field: int) -> float:
        return hists[name][field] if name in hists else 0

    values: dict[str, float] = {}
    for metric, stem in _CALLS.items():
        values[metric] = hist(f"bench.{stem}", 0)
    for metric, stem in _SECONDS.items():
        values[metric] = hist(f"bench.{stem}", 1)
    for metric, name in _COUNTERS.items():
        values[metric] = counters.get(name, 0)
    for metric, (num, den) in _RATIOS.items():
        values[metric] = (counters.get(num, 0) / counters[den]
                          if counters.get(den) else 0.0)
    for metric, name in _MAXIMA.items():
        values[metric] = hist(name, 3)

    samples: dict[str, list[float]] = {}
    for kind, name, value in snapshot["events"] or ():
        if kind == "obs" and name.startswith("bench.core.cbs."):
            samples.setdefault(name, []).append(value)
    for label, _top in CBS_BUCKETS:
        calls = samples.get(f"bench.core.cbs.{label}", [])
        values[f"core.cbs_calls.{label}"] = len(calls)
        values[f"core.cbs_p50_ms.{label}"] = (
            statistics.median(calls) * 1e3 if calls else 0.0)

    for name in SPAN_NAMES:
        values[f"span_self_s.{name}"] = spans.get(name, 0.0)
    return values

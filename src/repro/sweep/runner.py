"""Concurrent sweep execution with content-addressed caching.

``run_sweep`` expands a :class:`~repro.sweep.spec.SweepSpec`, computes
every point's cache key — ``(design fingerprint, canonical config
hash, schema version)`` via :func:`repro.sweep.store.record_key` — and
partitions the points into cache hits (served straight from the store,
``sweep.cache.hit``) and misses.  Misses fan out over a
:class:`repro.parallel.WorkPool` when ``jobs != 1``; every point is a
self-contained picklable :class:`PointTask` (the worker regenerates the
design deterministically from its name and scale, so nothing heavy
crosses the process boundary).  Each point's flow gets its share of the
CPUs under a pooled sweep (usable CPUs // sweep workers, at least 1)
and auto jobs under a serial one.

Points share what their knobs never reach: each ``run_sweep`` call
makes one :class:`~repro.reuse.StageReuse`, which every point it runs
in the parent uses, and which a pooled sweep installs as its pool's
``context``, so each worker keeps its own for the sweep's life.  A
point then pays only for the stages its own knobs change; records are
the same bytes either way (docs/SWEEP.md, "Reuse across points").

Degradation mirrors the flow itself: *inside* a point the hierarchical
engine already absorbs faults through flowguard; a point that still
raises — a broken config, an injected fault, a dead worker — lands as a
``status: "error"`` record and the sweep continues.  A worker-level
failure first degrades to in-process execution in the parent (the same
per-task contract cluster routing uses) before being declared failed.
Failed points are reported in the sweep's JSONL but never stored in the
content-addressed records, so the next run retries them.

Observability: the whole run sits under a ``sweep`` span with one
``sweep.point`` span per executed point (worker spans are adopted home
stamped ``worker=<pid>``), and the registry carries
``sweep.cache.hit`` / ``sweep.cache.miss`` / ``sweep.point.ok`` /
``sweep.point.failed`` counters — the numbers the CI smoke job and the
determinism tests assert on.

Two determinism details the tests pin: spec points that expand to the
same cache key execute **once** per run (the later ones are served from
the first outcome and counted as hits, ``sweep.cache.dedup``), and
fault injection draws are keyed on each point's index
(:meth:`~repro.flowguard.faults.FaultInjector.trip_at`), so the trip
pattern is a pure function of ``(rate, seed, spec)`` — a partially
cached rerun trips exactly the points a cold run would have tripped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.cts.constraints import TABLE5, Constraints
from repro.cts.evaluation import evaluate_result
from repro.cts.framework import HierarchicalCTS
from repro.cts.stats import tree_statistics
from repro.designs import design_fingerprint, load_design
from repro.flowguard.faults import FaultInjected, FaultInjector
from repro.obs.clock import now
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.parallel import WorkPool, resolve_jobs, worker_context
from repro.resilience import FabricChaos, FabricPolicy, RunHealth
from repro.reuse import StageReuse
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import RESULT_SCHEMA_VERSION, SweepStore, record_key
from repro.tech import Technology
from repro.tech.buffer_library import load_library

_LOG = get_logger("sweep")

#: Quality fields every successful record carries (the objective space).
QUALITY_FIELDS = (
    "skew_ps", "latency_ps", "wirelength_um", "num_buffers",
    "buffer_area_um2", "clock_cap_ff", "max_stage_load_ff",
)


@dataclass(frozen=True, slots=True)
class PointTask:
    """One sweep point to execute: self-contained and picklable."""

    point: SweepPoint
    fingerprint: str           # design content hash (cache-key half)
    key: str                   # full content-addressed record key
    inject_fault: bool = False  # deterministic per-point fault injection
    # worker processes of the point's flow (HierarchicalCTS jobs; 0 =
    # auto).  Execution-only: it cannot change the record.
    flow_jobs: int = 0


@dataclass(slots=True)
class PointOutcome:
    """What executing one point produced (worker or in-process)."""

    index: int
    record: dict
    runtime_s: float


@dataclass(slots=True)
class SweepReport:
    """Summary of one ``run_sweep`` invocation."""

    spec: SweepSpec
    points: list[SweepPoint]
    records: list[dict]        # one per point, in point-index order
    runtime_by_index: dict[int, float]
    cache_hits: int
    cache_misses: int
    failed: int
    runtime_s: float
    jsonl_path: Path           # the written sweep JSONL
    cached_indices: frozenset[int] = frozenset()
    health: RunHealth = field(default_factory=RunHealth)
    health_path: Path | None = None  # the .health.json sidecar

    def summary(self) -> str:
        line = (
            f"sweep {self.spec.name!r}: {len(self.points)} points, "
            f"{self.cache_hits} cached, {self.cache_misses} executed, "
            f"{self.failed} failed in {self.runtime_s:.2f}s"
        )
        if not self.health.healthy:
            line += f" ({self.health.summary()})"
        return line


# ----------------------------------------------------------------------
# Point execution (both the parent's serial path and the workers)
# ----------------------------------------------------------------------
def _execute_point(point: SweepPoint, jobs: int,
                   reuse: StageReuse | None) -> tuple[dict, dict]:
    """Run the flow at one point on ``jobs`` workers, sharing stages
    through ``reuse``; returns (quality, flow_events).

    The design regenerates deterministically from the catalog, so a
    worker needs nothing but the point itself.
    """
    tech = Technology()
    design = load_design(point.design, scale=point.scale)
    constraints = Constraints(
        skew_bound=point.skew_bound,
        max_fanout=TABLE5.max_fanout,
        max_cap=TABLE5.max_cap,
        max_length=TABLE5.max_length,
        max_slew=TABLE5.max_slew,
    )
    engine = HierarchicalCTS(
        tech=tech,
        library=load_library(point.library),
        constraints=constraints,
        config=point.flow_config(),
        jobs=jobs,
        reuse=reuse,
    )
    result = engine.run(design.sinks, design.source)
    report = evaluate_result(result, tech)
    stats = tree_statistics(result.tree, tech)
    quality = {
        "skew_ps": report.skew_ps,
        "latency_ps": report.latency_ps,
        "wirelength_um": report.clock_wl_um,
        "num_buffers": int(report.num_buffers),
        "buffer_area_um2": report.buffer_area_um2,
        "clock_cap_ff": report.clock_cap_ff,
        "max_stage_load_ff": stats.max_stage_load,
    }
    events = result.diagnostics.event_breakdown() \
        if result.diagnostics is not None else {"total": 0}
    return quality, events


def _base_record(task: PointTask) -> dict:
    point = task.point
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "key": task.key,
        "design": point.design,
        "scale": point.scale,
        "fingerprint": task.fingerprint,
        "index": point.index,
        "config": point.canonical_config(),
    }


def compute_record(task: PointTask,
                   reuse: StageReuse | None = None) -> PointOutcome:
    """Execute ``task`` and build its canonical record, sharing flow
    stages through ``reuse`` when given (it cannot change the record).

    Never raises: any exception (including an injected fault) becomes a
    ``status: "error"`` record — one failing config must not kill the
    sweep.  The record carries no wall-clock data; the measured runtime
    rides on the outcome for reporting only, keeping stored bytes
    deterministic across machines and ``--jobs`` settings.
    """
    point = task.point
    t0 = now()
    record = _base_record(task)
    with TRACER.span("sweep.point", index=point.index, design=point.design,
                     key=task.key[:12]):
        try:
            if task.inject_fault:
                raise FaultInjected(
                    f"injected sweep fault at point {point.index}"
                )
            quality, events = _execute_point(point, task.flow_jobs, reuse)
            record.update(status="ok", error=None, quality=quality,
                          flow_events=events)
        except Exception as exc:  # noqa: BLE001 — degrade, don't abort
            _LOG.warning("sweep point %s failed (%s: %s)",
                         point.label(), exc.__class__.__name__, exc)
            record.update(
                status="error",
                error={"type": exc.__class__.__name__, "detail": str(exc)},
                quality=None,
                flow_events=None,
            )
    return PointOutcome(
        index=point.index, record=record, runtime_s=now() - t0
    )


def _compute_in_worker(task: PointTask) -> PointOutcome:
    """Execute one point in a sweep worker, against the worker's reuse
    object (the pool's context)."""
    return compute_record(task, worker_context())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def run_sweep(
    spec: SweepSpec,
    store: SweepStore,
    jobs: int = 1,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    policy: FabricPolicy | None = None,
    chaos: FabricChaos | None = None,
) -> SweepReport:
    """Run every point of ``spec`` through ``store`` (see module doc).

    ``jobs`` is the sweep-level fan-out.  ``fault_rate``/``fault_seed``
    drive the deterministic per-point fault injection the robustness
    tests use; ``chaos`` drives the fabric-level chaos harness (worker
    kills, delays, corrupted payloads) — point faults land in records,
    fabric faults never do.  ``policy`` budgets the resilience ladder
    of the sweep's pool.
    """
    t0 = now()
    points = spec.expand()
    injector = FaultInjector(fault_rate, seed=fault_seed, name="sweep") \
        if fault_rate > 0 else None

    with TRACER.span("sweep", spec=spec.name, points=len(points),
                     jobs=jobs):
        records: dict[int, dict] = {}
        runtime_by_index: dict[int, float] = {}
        tasks: list[PointTask] = []
        hit_indices: set[int] = set()
        pending: dict[str, int] = {}    # key -> first miss's point index
        duplicates: dict[int, str] = {}  # in-run dup point index -> key
        for point in points:
            fingerprint = design_fingerprint(point.design, point.scale)
            key = record_key(fingerprint, point.canonical_config())
            cached = store.get(key)
            if cached is not None:
                METRICS.inc("sweep.cache.hit")
                # re-anchor the cached record at this sweep's index (the
                # same content can sit at different positions in
                # different specs); content fields stay untouched
                cached = dict(cached)
                cached["index"] = point.index
                records[point.index] = cached
                runtime_by_index[point.index] = 0.0
                hit_indices.add(point.index)
            elif key in pending:
                # two spec points expanding to the same cache key: only
                # the first executes; this one is served from the first
                # outcome below and counted as a hit (it never runs)
                METRICS.inc("sweep.cache.hit")
                METRICS.inc("sweep.cache.dedup")
                duplicates[point.index] = key
                hit_indices.add(point.index)
            else:
                METRICS.inc("sweep.cache.miss")
                pending[key] = point.index
                # fault draws are keyed on the point's index (not on
                # miss encounter order), so the trip pattern is a pure
                # function of (rate, seed, spec) — independent of which
                # points happen to be cached already
                tasks.append(PointTask(
                    point=point,
                    fingerprint=fingerprint,
                    key=key,
                    inject_fault=injector.trip_at(point.index)
                    if injector else False,
                ))
        _LOG.info("sweep %r: %d points, %d cached, %d deduped, %d to run",
                  spec.name, len(points), len(records), len(duplicates),
                  len(tasks))

        health = RunHealth()
        reuse = StageReuse()
        if jobs != 1 and len(tasks) > 1:
            with WorkPool(jobs, context=reuse, policy=policy, chaos=chaos,
                          health=health) as pool:
                # each point's flow gets its share of the CPUs, so
                # sweep workers x flow workers stays within budget
                share = max(1, resolve_jobs(0) // pool.jobs)
                tasks = [replace(task, flow_jobs=share) for task in tasks]
                outcomes = pool.map(
                    _compute_in_worker, tasks,
                    describe=lambda t: t.point.label(),
                    fallback=lambda t, _code, _detail:
                        compute_record(t, reuse),
                )
        else:
            # lazily, so each point is stored as soon as it finishes
            outcomes = (compute_record(task, reuse) for task in tasks)

        failed = 0
        record_by_key: dict[str, dict] = {}
        for task, outcome in zip(tasks, outcomes):
            record = outcome.record
            if record["status"] == "ok":
                METRICS.inc("sweep.point.ok")
                store.put(task.key, record)
            else:
                METRICS.inc("sweep.point.failed")
                failed += 1
            records[task.point.index] = record
            record_by_key[task.key] = record
            runtime_by_index[task.point.index] = outcome.runtime_s

        # in-run duplicates are served from the first outcome at their
        # own index — content identical, never executed twice
        for index, key in duplicates.items():
            dup = dict(record_by_key[key])
            dup["index"] = index
            records[index] = dup
            runtime_by_index[index] = 0.0

    ordered = [records[p.index] for p in points]
    jsonl_path = store.write_sweep(spec.name, spec.digest(), ordered)
    # fabric health rides in a sidecar, never in the JSONL: record
    # bytes must not depend on how bumpy the run was
    health_path = store.write_health(spec.name, spec.digest(),
                                     health.to_dict())
    report = SweepReport(
        spec=spec,
        points=points,
        records=ordered,
        runtime_by_index=runtime_by_index,
        cache_hits=len(points) - len(tasks),
        cache_misses=len(tasks),
        failed=failed,
        runtime_s=now() - t0,
        jsonl_path=jsonl_path,
        cached_indices=frozenset(hit_indices),
        health=health,
        health_path=health_path,
    )
    _LOG.info("%s", report.summary())
    return report

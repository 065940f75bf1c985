"""End-to-end sweep runs: determinism, caching, fault degradation.

The determinism contract: the stored records and the sweep JSONL are
byte-identical whether points run serially or under sweep-level
``jobs=2``, and a second run recomputes nothing (served entirely from
the content-addressed store).  Fabric-level chaos (worker kills,
delays, corrupt payloads) must leave all of those bytes untouched —
the bumps land only in the ``RunHealth`` sidecar.
"""

import json
import logging

import pytest

import repro.parallel
from repro.obs.metrics import METRICS
from repro.sweep import SweepSpec, SweepStore, pareto_front, run_sweep
from repro.sweep.runner import PointTask, _clamp_point_jobs
from repro.sweep.spec import SweepPoint


def _spec() -> SweepSpec:
    return SweepSpec(
        name="unit",
        designs=["s38584"],
        scales=[0.02],
        grid={"eps": [0.1, 1.0], "seed": [0, 1]},
    )


def _store_bytes(root) -> dict:
    store = SweepStore(root)
    return {
        key: store.record_path(key).read_bytes() for key in store.keys()
    }


@pytest.fixture(autouse=True)
def _fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def test_serial_and_parallel_runs_are_byte_identical(tmp_path):
    serial = run_sweep(_spec(), SweepStore(tmp_path / "serial"), jobs=1)
    parallel = run_sweep(_spec(), SweepStore(tmp_path / "par"), jobs=2)

    assert serial.failed == parallel.failed == 0
    assert _store_bytes(tmp_path / "serial") == _store_bytes(tmp_path / "par")
    assert serial.jsonl_path.read_bytes() == parallel.jsonl_path.read_bytes()

    front_a = [e.key for e in pareto_front(serial.records).front]
    front_b = [e.key for e in pareto_front(parallel.records).front]
    assert front_a == front_b
    assert front_a  # non-empty


def test_second_run_is_pure_cache(tmp_path):
    store = SweepStore(tmp_path)
    first = run_sweep(_spec(), store, jobs=1)
    assert first.cache_hits == 0
    assert first.cache_misses == len(first.points) == 4
    first_bytes = first.jsonl_path.read_bytes()

    METRICS.reset()
    second = run_sweep(_spec(), store, jobs=1)
    assert second.cache_hits == 4
    assert second.cache_misses == 0
    assert second.cached_indices == frozenset(range(4))
    assert METRICS.counter("sweep.cache.hit") == 4
    assert METRICS.counter("sweep.cache.miss") == 0
    assert second.jsonl_path.read_bytes() == first_bytes


def test_cached_points_reindex_under_a_different_spec(tmp_path):
    store = SweepStore(tmp_path)
    run_sweep(_spec(), store, jobs=1)
    # same points, different expansion order -> indices re-anchor
    reordered = SweepSpec(
        name="unit-reordered",
        designs=["s38584"],
        scales=[0.02],
        grid={"seed": [1, 0], "eps": [1.0, 0.1]},
    )
    report = run_sweep(reordered, store, jobs=1)
    assert report.cache_hits == 4
    assert [r["index"] for r in report.records] == [0, 1, 2, 3]


def test_one_failing_point_does_not_kill_the_sweep(tmp_path):
    store = SweepStore(tmp_path)
    report = run_sweep(
        _spec(), store, jobs=1, fault_rate=0.5, fault_seed=7
    )
    assert len(report.records) == 4
    assert 0 < report.failed < 4
    statuses = {r["status"] for r in report.records}
    assert statuses == {"ok", "error"}
    failed = [r for r in report.records if r["status"] == "error"]
    assert all(r["error"]["type"] == "FaultInjected" for r in failed)
    # only the healthy points were content-addressed ...
    assert len(store.keys()) == 4 - report.failed
    # ... so a clean rerun retries exactly the failed ones
    METRICS.reset()
    retry = run_sweep(_spec(), store, jobs=1)
    assert retry.cache_hits == 4 - report.failed
    assert retry.cache_misses == report.failed
    assert retry.failed == 0


def test_fault_pattern_is_independent_of_jobs(tmp_path):
    a = run_sweep(_spec(), SweepStore(tmp_path / "a"), jobs=1,
                  fault_rate=0.5, fault_seed=3)
    b = run_sweep(_spec(), SweepStore(tmp_path / "b"), jobs=2,
                  fault_rate=0.5, fault_seed=3)
    fails_a = [r["index"] for r in a.records if r["status"] == "error"]
    fails_b = [r["index"] for r in b.records if r["status"] == "error"]
    assert fails_a == fails_b
    assert a.jsonl_path.read_bytes() == b.jsonl_path.read_bytes()


def test_fault_pattern_is_independent_of_cache_state(tmp_path):
    """A half-warmed store must trip the same points as a cold run.

    Pre-fix, the injector was drawn once per *miss* in encounter
    order, so cached points shifted every later point onto a
    different draw; the trip pattern is now keyed on point index.
    """
    cold = run_sweep(_spec(), SweepStore(tmp_path / "cold"), jobs=1,
                     fault_rate=0.5, fault_seed=3)
    cold_failed = {r["index"] for r in cold.records
                   if r["status"] == "error"}
    assert cold_failed, "seed 3 must trip at least one point"

    # warm a fresh store with the seed=0 half of the grid (full-spec
    # indices 0 and 2), fault-free
    half = SweepSpec(name="half", designs=["s38584"], scales=[0.02],
                     grid={"eps": [0.1, 1.0], "seed": [0]})
    warm_store = SweepStore(tmp_path / "warm")
    warmed = run_sweep(half, warm_store, jobs=1)
    assert warmed.failed == 0

    report = run_sweep(_spec(), warm_store, jobs=1,
                       fault_rate=0.5, fault_seed=3)
    assert report.cache_hits == 2
    warm_failed = {r["index"] for r in report.records
                   if r["status"] == "error"}
    # misses are full-spec indices 1 and 3; they must trip exactly
    # where the cold run tripped them
    assert warm_failed == cold_failed & {1, 3}


# ----------------------------------------------------------------------
# In-run duplicate keys: one execution, served to every twin
# ----------------------------------------------------------------------
def test_duplicate_grid_point_executes_once(tmp_path):
    spec = SweepSpec(
        name="unit-dup",
        designs=["s38584"],
        scales=[0.02],
        grid={"eps": [0.1, 1.0]},
        # expands to the same cache key as the eps=0.1 grid point
        points=[{"eps": 0.1}],
    )
    store = SweepStore(tmp_path)
    report = run_sweep(spec, store, jobs=1)
    assert len(report.points) == 3
    assert report.cache_misses == 2          # unique keys only
    assert report.cache_hits == 1            # the duplicate
    assert report.cached_indices == frozenset({2})
    assert len(store.keys()) == 2            # executed exactly once
    assert METRICS.counter("sweep.cache.dedup") == 1
    assert METRICS.counter("sweep.cache.hit") == 1
    assert METRICS.counter("sweep.point.ok") == 2

    dup, first = report.records[2], report.records[0]
    assert dup["index"] == 2 and first["index"] == 0
    content = lambda r: {k: v for k, v in r.items() if k != "index"}
    assert content(dup) == content(first)

    # the rerun serves all three from the store
    METRICS.reset()
    again = run_sweep(spec, store, jobs=1)
    assert again.cache_hits == 3
    assert again.cache_misses == 0


def test_duplicate_of_a_failed_point_shares_the_error(tmp_path):
    spec = SweepSpec(
        name="unit-dup-fail",
        designs=["s38584"],
        scales=[0.02],
        # both points expand to the same key; index-0 draw trips at
        # rate 1.0, and the twin must inherit the error, not re-run
        grid={"eps": [0.1]},
        points=[{"eps": 0.1}],
    )
    report = run_sweep(spec, SweepStore(tmp_path), jobs=1,
                       fault_rate=1.0, fault_seed=0)
    assert report.cache_misses == 1
    assert report.cache_hits == 1
    assert [r["status"] for r in report.records] == ["error", "error"]
    assert [r["index"] for r in report.records] == [0, 1]
    assert report.failed == 1                # one execution, one failure


def test_sweep_metrics_are_recorded(tmp_path):
    report = run_sweep(_spec(), SweepStore(tmp_path), jobs=1)
    assert report.failed == 0
    assert METRICS.counter("sweep.point.ok") == 4
    assert METRICS.counter("sweep.cache.miss") == 4


# ----------------------------------------------------------------------
# Fabric chaos: bumps never reach the bytes
# ----------------------------------------------------------------------
def test_fabric_chaos_leaves_records_byte_identical(tmp_path):
    clean = run_sweep(_spec(), SweepStore(tmp_path / "clean"), jobs=1)
    # seed 7 injects a corrupt payload and a worker kill within the
    # first four draws (pinned by tests/resilience/test_chaos.py's
    # determinism), so the retry and resurrection rungs both fire
    chaotic = run_sweep(
        _spec(), SweepStore(tmp_path / "chaos"), jobs=2,
        fabric_fault_rate=0.5, fabric_fault_seed=7, pool_rebuilds=4,
    )
    assert not chaotic.health.healthy, "chaos never fired; test is vacuous"
    assert chaotic.health.retries >= 1
    assert clean.health.healthy
    assert _store_bytes(tmp_path / "clean") == _store_bytes(tmp_path / "chaos")
    assert clean.jsonl_path.read_bytes() == chaotic.jsonl_path.read_bytes()


def test_health_sidecar_is_written_next_to_the_jsonl(tmp_path):
    report = run_sweep(
        _spec(), SweepStore(tmp_path), jobs=2,
        fabric_fault_rate=0.5, fabric_fault_seed=7, pool_rebuilds=4,
    )
    assert report.health_path is not None
    assert report.health_path.parent == report.jsonl_path.parent
    payload = json.loads(report.health_path.read_text())
    assert payload == report.health.to_dict()
    assert payload["healthy"] is False
    # the JSONL itself carries no health data — bumpiness must not
    # change record bytes
    assert b'"healthy"' not in report.jsonl_path.read_bytes()


# ----------------------------------------------------------------------
# Oversubscription clamp
# ----------------------------------------------------------------------
def _point_task(index, jobs):
    point = SweepPoint(
        index=index, design="s38584", scale=0.02,
        overrides=(("jobs", jobs),), skew_bound=25.0, library="default",
    )
    return PointTask(point=point, fingerprint="f" * 8, key=f"k{index}")


def test_clamp_caps_the_job_product(monkeypatch):
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 4)
    tasks = [_point_task(0, jobs=4), _point_task(1, jobs=2),
             _point_task(2, jobs=1)]
    clamped = _clamp_point_jobs(tasks, jobs=2)  # budget 4 // 2 = 2 each
    assert [t.effective_jobs for t in clamped] == [2, None, None]
    assert METRICS.counter("sweep.jobs.clamped") == 1
    # jobs=0 ("auto") points resolve to the whole machine and clamp too
    auto = _clamp_point_jobs([_point_task(3, jobs=0)], jobs=2)
    assert auto[0].effective_jobs == 2


def test_default_config_pooled_sweep_clamps_silently(
        tmp_path, monkeypatch, caplog):
    # default points are auto: they take the allowed share (here 1, a
    # serial flow per point) without counting or warning
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    tasks = _clamp_point_jobs([_point_task(0, jobs=0)], jobs=2)
    assert tasks[0].effective_jobs == 1
    with caplog.at_level(logging.WARNING, logger="repro.sweep"):
        report = run_sweep(_spec(), SweepStore(tmp_path), jobs=2)
    assert report.failed == 0 and report.executed == 4
    assert METRICS.counter("sweep.jobs.clamped") == 0
    assert not [r for r in caplog.records
                if "oversubscription" in r.getMessage()]


def test_oversubscribed_sweep_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    spec = SweepSpec(
        name="unit-jobs",
        designs=["s38584"],
        scales=[0.02],
        grid={"jobs": [4], "eps": [0.1, 1.0]},
    )
    serial = run_sweep(spec, SweepStore(tmp_path / "serial"), jobs=1)
    pooled = run_sweep(spec, SweepStore(tmp_path / "pooled"), jobs=2)
    # every pooled point asked for 4 flow workers on a 2-CPU budget
    # under sweep jobs=2 -> clamped to 1; records must not notice
    assert METRICS.counter("sweep.jobs.clamped") == 2
    assert serial.jsonl_path.read_bytes() == pooled.jsonl_path.read_bytes()
    assert _store_bytes(tmp_path / "serial") == _store_bytes(
        tmp_path / "pooled")
    # jobs is execution-only: both grid values collapse onto canonical
    # configs without a "jobs" key
    assert all("jobs" not in r["config"]["flow"] for r in pooled.records)

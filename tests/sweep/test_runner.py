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
import repro.sweep.runner
from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.evaluation import evaluate_solution
from repro.designs import load_design
from repro.obs.metrics import METRICS
from repro.resilience import FabricChaos, FabricPolicy
from repro.sweep import SweepSpec, SweepStore, pareto_front, run_sweep
from repro.tech import Technology


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


def test_points_are_scored_at_their_own_source_slew(tmp_path):
    """A record times its tree at the point's ``source_slew``, not at
    the 10 ps default."""
    spec = SweepSpec(name="slew", designs=["s38584"], scales=[0.05],
                     grid={"source_slew": [10.0, 40.0]})
    run = run_sweep(spec, SweepStore(tmp_path), jobs=1)
    assert run.failed == 0
    latency = {record["config"]["flow"]["source_slew"]:
               record["quality"]["latency_ps"] for record in run.records}

    tech = Technology()
    design = load_design("s38584", scale=0.05)
    result = HierarchicalCTS(
        tech=tech, config=FlowConfig(source_slew=40.0), jobs=1,
    ).run(design.sinks, design.source)
    expected = evaluate_solution(result.tree, tech, source_slew=40.0)
    assert latency[40.0] == expected.latency_ps
    assert latency[40.0] != latency[10.0]


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
        policy=FabricPolicy(pool_rebuilds=4), chaos=FabricChaos(0.5, seed=7),
    )
    assert not chaotic.health.healthy, "chaos never fired; test is vacuous"
    assert chaotic.health.retries >= 1
    assert clean.health.healthy
    assert _store_bytes(tmp_path / "clean") == _store_bytes(tmp_path / "chaos")
    assert clean.jsonl_path.read_bytes() == chaotic.jsonl_path.read_bytes()


def test_health_sidecar_is_written_next_to_the_jsonl(tmp_path):
    report = run_sweep(
        _spec(), SweepStore(tmp_path), jobs=2,
        policy=FabricPolicy(pool_rebuilds=4), chaos=FabricChaos(0.5, seed=7),
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
# Flow workers per point: the CPU share
# ----------------------------------------------------------------------
def _spy_flow_jobs(monkeypatch):
    """Run pooled sweeps in-process; returns the list each point's flow
    worker count is appended to."""
    seen = []
    real = repro.sweep.runner.compute_record

    def spy(task, reuse=None):
        seen.append(task.flow_jobs)
        return real(task, reuse)

    monkeypatch.setattr(repro.sweep.runner, "compute_record", spy)
    monkeypatch.setattr(repro.parallel.WorkPool, "map",
                        lambda self, fn, tasks, **kw: [fn(t) for t in tasks])
    return seen


def test_clamp_caps_the_job_product(tmp_path, monkeypatch):
    """A pooled sweep gives each point's flow its share of the usable
    CPUs, so sweep workers x flow workers stays within them; a serial
    sweep leaves each flow on auto."""
    seen = _spy_flow_jobs(monkeypatch)
    for cpus, jobs, share in ((4, 2, 2), (2, 2, 1), (2, 8, 1), (4, 0, 1)):
        monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: cpus)
        seen.clear()
        run_sweep(_spec(), SweepStore(tmp_path / f"{cpus}-{jobs}"),
                  jobs=jobs)
        assert seen == [share] * 4, (cpus, jobs)
    seen.clear()
    run_sweep(_spec(), SweepStore(tmp_path / "serial"), jobs=1)
    assert seen == [0] * 4


def test_default_config_pooled_sweep_clamps_silently(
        tmp_path, monkeypatch, caplog):
    # on 2 CPUs under sweep jobs=2 each point runs a serial flow, with
    # no warning about it
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    with caplog.at_level(logging.WARNING, logger="repro"):
        report = run_sweep(_spec(), SweepStore(tmp_path), jobs=2)
    assert report.failed == 0 and report.cache_misses == 4
    assert not caplog.records

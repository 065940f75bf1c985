"""The resilience ladder of ``WorkPool``: deadline -> retry -> resurrect
-> quarantine -> in-process.

Each rung is exercised with real worker processes and real failures
(``os._exit``, hangs, unpicklable payloads) — no mocks — and every test
checks the two fabric invariants: completed work is correct, and the
pool never leaks worker processes past ``shutdown()``.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.evaluation import evaluate_result
from repro.geometry import Point
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.parallel import WorkPool, worker_context
from repro.perf import make_uniform_sinks
from repro.resilience import FabricChaos, FabricPolicy
from repro.tech import Technology


# -- module-level task functions (must pickle into workers) -------------
def square(x):
    return x * x


def poison_three(x):
    """Kill the worker on payload 3; compute normally otherwise."""
    if x == 3:
        os._exit(1)
    return x * x


def kill_all(x):
    os._exit(1)


def poison_after_corunner(task):
    """Payload 3 kills its worker once payload 4 has started elsewhere.

    Payload 4 drops a marker, then outlives the break, so the pool
    dies with both tasks started: the ambiguous case.  A solo re-run of
    4 finishes normally.
    """
    value, marker = task
    if value == 3:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)
    with open(marker, "w"):
        pass
    time.sleep(1.0)
    return value * value


def hang_in_worker(task):
    """Sleep forever in a worker; return instantly in the parent.

    The parent pid rides in the payload so the degraded in-process
    rerun (same function, same payload) completes immediately.
    """
    value, parent_pid = task
    if os.getpid() != parent_pid:
        time.sleep(60)
    return value * value


def _left(task, code, detail):
    """Fallback that leaves a degraded task unrun: its slot reads None."""
    return None


def _assert_no_orphans():
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, (
            f"orphaned workers: {multiprocessing.active_children()}"
        )
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Happy path and shutdown hygiene
# ----------------------------------------------------------------------
def test_plain_map_round_trips():
    with WorkPool(2) as pool:
        assert pool.map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
        assert pool.health.healthy
        assert pool.last_failure_reasons == {}
    _assert_no_orphans()


def observe_late(task):
    """Record ``value`` in the metrics; earlier tasks finish later.

    Value 3 fails in a worker, so its record comes from the parent's
    fallback."""
    value, parent_pid = task
    if os.getpid() != parent_pid:
        time.sleep(0.1 * (5 - value))
        if value == 3:
            raise RuntimeError("fails in a worker")
    METRICS.observe("order", float(value))
    METRICS.set_gauge("last", float(value))
    return value


def test_map_replays_each_task_in_its_slot(monkeypatch):
    """Worker metrics come home in task order, not completion order, and
    a task that fell back runs between its neighbours' replays."""
    monkeypatch.setattr(METRICS, "_events", None)   # log off afterwards
    METRICS.begin_event_log()
    tasks = [(v, os.getpid()) for v in (1, 2, 3, 4)]
    with WorkPool(2) as pool:
        results = pool.map(observe_late, tasks)
    assert results == [1, 2, 3, 4]
    assert pool.last_failure_reasons[2][0] == "fault"
    order = [value for kind, name, value in METRICS.raw_snapshot()["events"]
             if name == "order"]
    assert order == [1.0, 2.0, 3.0, 4.0]
    assert METRICS.gauge("last") == 4.0
    _assert_no_orphans()


def read_context(_task):
    return worker_context()


def test_every_worker_boots_with_the_pool_context():
    with WorkPool(2, context={"engine": "e"}) as pool:
        assert pool.map(read_context, [0, 1, 2]) == [{"engine": "e"}] * 3
    _assert_no_orphans()


def test_shutdown_reaps_workers_even_after_a_kill():
    pool = WorkPool(2, policy=FabricPolicy(pool_rebuilds=0))
    pool.map(kill_all, [1, 2], fallback=_left)
    pool.shutdown()
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Pool breaks: blame, isolation, resurrection, quarantine
# ----------------------------------------------------------------------
def test_poison_task_is_quarantined_and_innocents_survive():
    with WorkPool(2, policy=FabricPolicy(pool_rebuilds=3)) as pool:
        results = pool.map(poison_three, [1, 2, 3, 4], fallback=_left)
    # the poison task degrades to the caller; every innocent completes
    assert results[2] is None
    assert [results[0], results[1], results[3]] == [1, 4, 16]
    assert pool.last_failure_reasons[2][0] == "quarantine"
    assert pool.health.quarantines == 1
    assert pool.health.resurrections >= 1
    assert not pool.health.healthy
    _assert_no_orphans()


def test_quarantine_persists_across_map_calls():
    with WorkPool(
        2, policy=FabricPolicy(pool_rebuilds=3, quarantine_after=1)
    ) as pool:
        first = pool.map(poison_three, [1, 2, 3, 4], fallback=_left)
        second = pool.map(poison_three, [1, 2, 3, 4], fallback=_left)
    assert first[2] is None and second[2] is None
    assert second == [1, 4, None, 16]
    assert pool.health.quarantines == 1  # convicted exactly once
    # the second call never re-submits the poison task.  Its first
    # break convicts it when it was the only task running; when task 4
    # had started too, neither is convicted and a solo re-run of 3
    # breaks the pool once more to convict it: at most two rebuilds
    assert pool.health.resurrections <= 2
    assert pool.last_failure_reasons[2] == (
        "quarantine", "task is quarantined; running in-process"
    )
    _assert_no_orphans()


@pytest.mark.parametrize("policy", [
    FabricPolicy(quarantine_after=1),
    FabricPolicy(),
], ids=["quarantine_after=1", "default"])
def test_break_with_two_started_tasks_convicts_only_the_culprit(tmp_path,
                                                                policy):
    """Tasks 3 and 4 were both running when the pool broke: neither is
    convicted, each re-runs alone, and only the solo break convicts.
    The shared break still counts as a strike, so at the default policy
    convicting 3 takes two breaks and the rebuild budget survives."""
    marker = str(tmp_path / "corunner-started")
    with WorkPool(2, policy=policy) as pool:
        results = pool.map(poison_after_corunner,
                           [(v, marker) for v in (3, 4, 5, 6)],
                           describe=lambda t: f"task {t[0]}",
                           fallback=_left)
    assert results == [None, 16, 25, 36]
    assert pool.last_failure_reasons == {
        0: ("quarantine", "task broke the pool repeatedly; "
                          "quarantined and ran in-process"),
    }
    assert pool.health.quarantines == 1
    assert [e.task for e in pool.health.of_kind("quarantine")] == ["task 3"]
    assert pool.health.resurrections == 2
    assert pool.health.count("pool_lost") == 0
    _assert_no_orphans()


def test_rebuild_budget_exhaustion_degrades_everything():
    with WorkPool(2, policy=FabricPolicy(pool_rebuilds=0)) as pool:
        results = pool.map(kill_all, [1, 2, 3, 4], fallback=_left)
    assert results == [None, None, None, None]
    assert pool.health.count("pool_lost") == 1
    assert pool.health.degraded_tasks == 4
    assert all(pool.last_failure_reasons[i][0] in ("pool_lost", "fault")
               for i in range(4))
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Forking from a threaded parent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("owner", [METRICS, TRACER],
                         ids=["metrics", "tracer"])
def test_fork_while_another_thread_holds_an_obs_lock(owner):
    """A served miss forks its worker while other server threads count
    requests: a singleton lock held at the fork must not stay held in
    the child, whose initializer takes it first thing."""
    held, forked = threading.Event(), threading.Event()

    def hold_across_the_fork():
        with owner._lock:
            held.set()
            deadline = time.monotonic() + 10.0
            while not multiprocessing.active_children() \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            forked.set()

    holder = threading.Thread(target=hold_across_the_fork)
    holder.start()
    assert held.wait(5.0)
    start = time.monotonic()
    try:
        with WorkPool(
            1, policy=FabricPolicy(task_timeout=8.0, pool_rebuilds=0),
        ) as pool:
            [result] = pool.map(square, [3], fallback=_left)
    finally:
        holder.join()
    assert forked.is_set()
    assert result == 9, pool.last_failure_reasons
    assert time.monotonic() - start < 5.0
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_hung_workers_are_deadline_bounded():
    tasks = [(v, os.getpid()) for v in (3, 5)]
    start = time.monotonic()
    with WorkPool(
        2, policy=FabricPolicy(task_timeout=1.0, pool_rebuilds=3)
    ) as pool:
        results = pool.map(hang_in_worker, tasks)
    elapsed = time.monotonic() - start
    # without the deadline this would sit for 60s per hang; each expiry
    # kills the workers, so the stall is bounded by the budget per task
    assert elapsed < 30.0
    assert pool.health.timeouts >= 1
    assert all(code == "timeout"
               for code, _ in pool.last_failure_reasons.values())
    # the default fallback: same fn, same payload, in-process
    assert results == [9, 25]
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Chaos-driven rungs
# ----------------------------------------------------------------------
def test_corrupt_chaos_is_retried_transparently():
    chaos = FabricChaos(1.0, seed=0, modes=("corrupt",))
    with WorkPool(2, chaos=chaos) as pool:
        results = pool.map(square, [2, 3, 4])
    # every submission corrupts once; the retry resubmits clean
    assert results == [4, 9, 16]
    assert chaos.injected == 3
    assert pool.health.retries == 3
    assert pool.health.quarantines == 0
    _assert_no_orphans()


def test_kill_chaos_resurrects_without_quarantining():
    chaos = FabricChaos(1.0, seed=0, modes=("kill",))
    with WorkPool(
        2, chaos=chaos, policy=FabricPolicy(pool_rebuilds=4)
    ) as pool:
        results = pool.map(square, [2, 3, 4, 5])
    # chaos fires once per task (the retry runs clean), so the run
    # converges with correct results and no task blamed as poison
    assert results == [4, 9, 16, 25]
    assert pool.health.resurrections >= 1
    assert pool.health.quarantines == 0
    _assert_no_orphans()


def test_exhausted_corrupt_retries_degrade_as_fault():
    chaos = FabricChaos(1.0, seed=0, modes=("corrupt",))
    with WorkPool(2, chaos=chaos,
                  policy=FabricPolicy(task_retries=0)) as pool:
        results = pool.map(square, [7], fallback=_left)
    # with a zero retry budget the corrupt submission degrades straight
    # to the caller instead of looping
    assert results == [None]
    code, detail = pool.last_failure_reasons[0]
    assert code == "fault"
    assert "submission kept failing" in detail
    _assert_no_orphans()


# ----------------------------------------------------------------------
# Flow-level: chaos runs stay byte-identical to fault-free serial
# ----------------------------------------------------------------------
def _flow_quality(result, tech):
    rep = evaluate_result(result, tech)
    return (rep.clock_wl_um, rep.skew_ps, rep.num_buffers, rep.latency_ps)


def test_chaotic_flow_matches_fault_free_serial():
    tech = Technology()
    sinks, side = make_uniform_sinks(200, 0)
    source = Point(side / 2, side / 2)

    serial_engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=30), jobs=1
    )
    serial = serial_engine.run(list(sinks), source)

    chaos = FabricChaos(0.5, seed=2, delay_s=0.01)
    chaotic_engine = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=30), jobs=2,
        policy=FabricPolicy(pool_rebuilds=4), fabric_chaos=chaos,
    )
    chaotic = chaotic_engine.run(list(sinks), source)

    assert chaos.injected > 0, "chaos never fired; test is vacuous"
    assert _flow_quality(serial, tech) == _flow_quality(chaotic, tech)
    assert serial.levels == chaotic.levels
    assert serial.top_buffers == chaotic.top_buffers
    # fabric incidents land in RunHealth, never in the result payload
    assert serial.health is not None and serial.health.healthy
    assert chaotic.health is not None
    _assert_no_orphans()

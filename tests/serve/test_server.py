"""Serve-layer semantics: determinism, single-flight, admission,
deadlines, and the HTTP surface.

Execution-dependent tests monkeypatch ``repro.serve.service.
compute_record`` with a controllable fake (counted, optionally
blocking), so concurrency windows are deterministic rather than
timing-dependent; one end-to-end test runs the real flow to pin the
byte-identity contract against genuinely stored records.
"""

import asyncio
import json
import logging
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
import repro.parallel
import repro.serve.service as service_mod
import repro.sweep.runner
from repro.cli import build_parser
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER, capture
from repro.resilience import FabricPolicy
from repro.serve import (
    AdmissionRejected,
    CTSServer,
    CTSService,
    DeadlineExceeded,
    parse_request,
)
from repro.sweep.runner import PointOutcome
from repro.sweep.store import SweepStore, canonical_json
from tests.cts.test_fabric import _assert_no_orphans
from tests.serve.test_schema import HOSTILE_BODIES

DESIGN = "s38584"


@pytest.fixture(autouse=True)
def _fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


def _request(eps=0.5, **extra):
    return parse_request({
        "design": DESIGN, "scale": 0.02,
        "config": {"eps": eps}, **extra,
    })


def _payload(eps=0.5, **extra):
    return {"design": DESIGN, "scale": 0.02,
            "config": {"eps": eps}, **extra}


class FakeFlow:
    """A counted, optionally gated stand-in for ``compute_record``."""

    def __init__(self, status="ok", gate: threading.Event | None = None):
        self.status = status
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, task) -> PointOutcome:
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(30), "test gate never opened"
        record = {
            "status": self.status,
            "key": task.key,    # store.get verifies record["key"]
            "index": task.point.index,
            "design": task.point.design,
            "quality": {"skew_ps": 1.0},
        }
        if self.status != "ok":
            record["error"] = {"type": "Fake", "detail": "injected"}
        return PointOutcome(index=task.point.index, record=record,
                            runtime_s=0.0)


async def _post(host, port, payload: dict, path="/v1/cts",
                method="POST", raw_body: bytes | None = None):
    reader, writer = await asyncio.open_connection(host, port)
    body = raw_body if raw_body is not None \
        else json.dumps(payload).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    data = await reader.read()
    writer.close()
    head, _, raw = data.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), raw


async def _get(host, port, path):
    return await _post(host, port, {}, path=path, method="GET",
                       raw_body=b"")


# ----------------------------------------------------------------------
# Service-level semantics
# ----------------------------------------------------------------------
def test_single_flight_runs_the_flow_exactly_once(tmp_path, monkeypatch):
    """N concurrent identical misses coalesce onto one execution."""
    gate = threading.Event()
    flow = FakeFlow(gate=gate)
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=1, queue_depth=8)
        await service.start()
        try:
            request = _request()
            waiters = [asyncio.create_task(service.submit(request))
                       for _ in range(5)]
            while service.inflight == 0:      # first miss admitted
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)          # let the rest coalesce
            gate.set()
            return await asyncio.gather(*waiters)
        finally:
            gate.set()
            await service.aclose()

    results = asyncio.run(scenario())
    assert flow.calls == 1
    assert sorted(r.source for r in results) == \
        ["coalesced"] * 4 + ["computed"]
    records = [r.record for r in results]
    assert all(r == records[0] for r in records)
    counters = METRICS.as_dict()["counters"]
    assert counters["serve.flow.executed"] == 1
    assert counters["serve.flight.coalesced"] == 4
    assert counters["serve.cache.miss"] == 5


@pytest.mark.parametrize("jobs", [1, 2])
def test_served_miss_runs_a_serial_flow(tmp_path, monkeypatch, jobs):
    """A default-config miss builds no cluster pool in either dispatch
    mode: in-process it runs on a dispatcher thread, where forking is
    unsafe; pooled, it already owns a worker.  A forked worker inherits
    the patch, so a pool built there turns the record into an error."""
    import repro.cts.framework as framework
    import repro.parallel

    def no_pool(*args, **kwargs):
        raise AssertionError("a served miss built a cluster pool")

    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(framework, "WorkPool", no_pool)

    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=jobs, queue_depth=4)
        await service.start()
        try:
            return await service.submit(_request())
        finally:
            await service.aclose()

    result = asyncio.run(scenario())
    assert result.source == "computed"
    assert result.record["status"] == "ok", result.record["error"]


_SERVER_PID = os.getpid()


def _raise_in_process(task):
    """``compute_record`` that refuses to run in the serving process."""
    if os.getpid() == _SERVER_PID:
        raise AssertionError("the miss ran in the serving process")
    return repro.sweep.runner.compute_record(task)


def test_serve_jobs_default_is_auto():
    assert build_parser().parse_args(["serve"]).jobs == 0


def _one_miss_on_the_default_service(tmp_path):
    """``CTSService(store)`` answers one miss; returns its
    (jobs, dispatchers, pools) shape and the result."""
    async def scenario():
        service = CTSService(SweepStore(tmp_path))
        await service.start()
        try:
            shape = (service.jobs, len(service._dispatchers),
                     len(service._pools))
            return shape, await service.submit(_request())
        finally:
            await service.aclose()

    return asyncio.run(scenario())


def test_auto_jobs_runs_misses_in_workers_on_two_cpus(tmp_path,
                                                      monkeypatch):
    """The default service on two usable CPUs: two dispatchers, each
    owning a one-worker pool.  In-process execution is patched to fail,
    so only a forked worker can produce this real record."""
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(service_mod, "compute_record", _raise_in_process)
    shape, result = _one_miss_on_the_default_service(tmp_path)
    assert shape == (2, 2, 2)
    assert result.source == "computed"
    assert result.record["status"] == "ok", result.record["error"]
    _assert_no_orphans()


def test_pooled_miss_ships_its_spans_home_when_tracing(tmp_path):
    """A traced server keeps the flow spans of misses its workers ran,
    as a sweep does: adopted under the worker's pid."""
    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=2)
        await service.start()
        try:
            return await service.submit(_request())
        finally:
            await service.aclose()

    with capture(TRACER):
        result = asyncio.run(scenario())
        spans = [s for root in TRACER.roots for s in root.walk()]
    points = [s for s in spans if s.name == "sweep.point"]
    assert result.record["status"] == "ok"
    assert len(points) == 1
    assert points[0].attrs["worker"] not in (0, os.getpid())
    assert any(s.name == "flow" for s in spans)


def test_auto_jobs_runs_in_process_on_one_cpu(tmp_path, monkeypatch):
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 1)
    flow = FakeFlow()
    monkeypatch.setattr(service_mod, "compute_record", flow)
    shape, result = _one_miss_on_the_default_service(tmp_path)
    assert shape == (1, 1, 0)
    assert result.source == "computed"
    assert flow.calls == 1


_STARTS = None     # where _blocking_flow logs its starts


def _blocking_flow(task):       # runs in the forked worker
    with open(_STARTS, "a") as fh:
        fh.write("started\n")
    time.sleep(20.0)
    raise AssertionError("the blocked flow was never stopped")


def test_aclose_during_a_pooled_miss_stops_it_once(tmp_path, monkeypatch):
    """Stopping the server mid-miss terminates the worker and returns:
    the shut-down pool must not read its own kill as a pool break and
    re-run the flow on a rebuilt pool that nothing will stop."""
    starts = tmp_path / "starts"
    monkeypatch.setattr(sys.modules[__name__], "_STARTS", str(starts))
    monkeypatch.setattr(service_mod, "compute_record", _blocking_flow)
    grace = 0.5
    timing = {}

    async def scenario():
        service = CTSService(SweepStore(tmp_path / "store"), jobs=2,
                             policy=FabricPolicy(shutdown_grace=grace))
        await service.start()
        miss = asyncio.create_task(service.submit(_request()))
        deadline = time.monotonic() + 30.0
        while not starts.exists():
            assert time.monotonic() < deadline, "the miss never started"
            await asyncio.sleep(0.02)
        timing["stop"] = time.monotonic()
        await service.aclose()
        miss.cancel()
        return service

    service = asyncio.run(scenario())
    # asyncio.run returns only once the dispatcher thread has finished
    assert time.monotonic() - timing["stop"] < grace + 5.0
    assert starts.read_text().count("started") == 1
    assert service.health.count("resurrect") == 0
    _assert_no_orphans()


def _children(pid: int) -> list[int]:
    """Live child pids of ``pid``, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == pid:
            children.append(int(entry))
    return children


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    """The port from the server's "listening on" line; fails, rather
    than blocks, when no such line comes before ``deadline``."""
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.1)
        if not ready:
            continue
        line = proc.stdout.readline()
        assert line, "server exited before listening"
        listening = re.search(r"listening on http://[^:\s]+:(\d+)", line)
        if listening:
            return int(listening.group(1))
    raise AssertionError("server did not report its port")


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="finds the pool workers through /proc")
def test_sigterm_stops_a_pooled_server_and_reaps_its_workers(tmp_path):
    """A plain ``kill`` stops the server through aclose(), as SIGINT
    does; dying on the signal's default action would orphan its pool
    workers, idle but alive."""
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(tmp_path / "store"), "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env,
    )
    workers: list[int] = []
    try:
        port = _read_port(proc, deadline=time.monotonic() + 30.0)
        status, _ = asyncio.run(asyncio.wait_for(
            _post("127.0.0.1", port, _payload()), timeout=60))
        assert status == 200
        workers = _children(proc.pid)
        assert workers, "the miss forked no pool worker"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + 10.0
        while orphans := [pid for pid in workers
                          if os.path.exists(f"/proc/{pid}")]:
            if time.monotonic() > deadline:
                for pid in orphans:
                    os.kill(pid, signal.SIGKILL)
                break
            time.sleep(0.05)
    assert code == 0
    assert not orphans, f"orphaned pool workers: {orphans}"


def test_repeat_request_is_a_store_hit_not_a_run(tmp_path, monkeypatch):
    flow = FakeFlow()
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=1, queue_depth=8)
        await service.start()
        try:
            first = await service.submit(_request())
            second = await service.submit(_request())
            return first, second
        finally:
            await service.aclose()

    first, second = asyncio.run(scenario())
    assert (first.source, second.source) == ("computed", "cache")
    assert flow.calls == 1
    assert second.record == first.record
    counters = METRICS.as_dict()["counters"]
    assert counters["serve.cache.hit"] == 1
    assert counters["serve.flow.executed"] == 1


def test_full_queue_rejects_admission(tmp_path, monkeypatch):
    gate = threading.Event()
    flow = FakeFlow(gate=gate)
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=1, queue_depth=1)
        await service.start()
        try:
            blocker = asyncio.create_task(service.submit(_request(0.1)))
            while service.inflight == 0:   # dispatcher holds request #1
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)      # ... and has drained the queue
            queued = asyncio.create_task(service.submit(_request(0.2)))
            await asyncio.sleep(0.05)      # request #2 occupies the slot
            with pytest.raises(AdmissionRejected, match="queue is full"):
                await service.submit(_request(0.3))
            gate.set()
            return await asyncio.gather(blocker, queued)
        finally:
            gate.set()
            await service.aclose()

    results = asyncio.run(scenario())
    assert [r.source for r in results] == ["computed", "computed"]
    assert METRICS.as_dict()["counters"]["serve.admit.rejected"] == 1


def test_deadline_expiry_is_typed_and_does_not_kill_the_flight(
        tmp_path, monkeypatch):
    gate = threading.Event()
    flow = FakeFlow(gate=gate)
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        store = SweepStore(tmp_path)
        service = CTSService(store, jobs=1, queue_depth=4)
        await service.start()
        try:
            request = _request(deadline_s=0.05)
            with pytest.raises(DeadlineExceeded, match="deadline"):
                await service.submit(request)
            # the computation was shielded: it finishes and lands in
            # the store, so the client's retry is a plain cache hit
            gate.set()
            for _ in range(200):
                if store.get(request.key) is not None:
                    break
                await asyncio.sleep(0.05)
            retry = await service.submit(request)
            return retry
        finally:
            gate.set()
            await service.aclose()

    retry = asyncio.run(scenario())
    assert retry.source == "cache"
    assert METRICS.as_dict()["counters"]["serve.deadline.expired"] == 1


def test_failed_flow_is_returned_but_never_cached(tmp_path, monkeypatch):
    flow = FakeFlow(status="error")
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        store = SweepStore(tmp_path)
        service = CTSService(store, jobs=1, queue_depth=4)
        await service.start()
        try:
            first = await service.submit(_request())
            second = await service.submit(_request())
            return first, second, store.get(_request().key)
        finally:
            await service.aclose()

    first, second, stored = asyncio.run(scenario())
    assert first.record["status"] == "error"
    assert stored is None                  # errors are not cached...
    assert second.source == "computed"     # ...so the retry re-runs
    assert flow.calls == 2
    assert METRICS.as_dict()["counters"]["serve.request.error"] == 2


def test_priority_orders_queued_requests(tmp_path, monkeypatch):
    gate = threading.Event()
    order: list[float] = []

    class OrderedFlow(FakeFlow):
        def __call__(self, task):
            order.append(dict(task.point.overrides)["eps"])
            return super().__call__(task)

    flow = OrderedFlow(gate=gate)
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario():
        service = CTSService(SweepStore(tmp_path), jobs=1, queue_depth=8)
        await service.start()
        try:
            head = asyncio.create_task(service.submit(_request(0.9)))
            while not order:               # head occupies the dispatcher
                await asyncio.sleep(0.01)
            low = asyncio.create_task(
                service.submit(_request(0.1, priority=0)))
            await asyncio.sleep(0.05)
            high = asyncio.create_task(
                service.submit(_request(0.2, priority=5)))
            await asyncio.sleep(0.05)
            gate.set()
            await asyncio.gather(head, low, high)
        finally:
            gate.set()
            await service.aclose()

    asyncio.run(scenario())
    assert order == [0.9, 0.2, 0.1]        # high priority overtakes


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
def _serve(tmp_path, scenario, monkeypatch=None, flow=None, **kwargs):
    if flow is not None:
        monkeypatch.setattr(service_mod, "compute_record", flow)

    async def run():
        service = CTSService(SweepStore(tmp_path),
                             jobs=kwargs.pop("jobs", 1),
                             queue_depth=kwargs.pop("queue_depth", 8),
                             **kwargs)
        server = CTSServer(service, port=0)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.aclose()

    return asyncio.run(run())


def test_http_round_trip_and_cache_hit_is_byte_identical(tmp_path):
    """End-to-end with the real flow: the stored record, the cache-hit
    response, and the raw record route all carry identical bytes."""
    async def scenario(server):
        status1, raw1 = await _post(server.host, server.port, _payload())
        status2, raw2 = await _post(server.host, server.port, _payload())
        body1, body2 = json.loads(raw1), json.loads(raw2)
        key = body1["key"]
        raw_route = await _get(server.host, server.port,
                               f"/v1/records/{key}")
        stored = server.service.store.record_path(key).read_bytes()
        return status1, status2, body1, body2, raw_route, stored

    status1, status2, body1, body2, (raw_status, raw), stored = \
        _serve(tmp_path, scenario)
    assert (status1, status2, raw_status) == (200, 200, 200)
    assert body1["source"] == "computed"
    assert body2["source"] == "cache"
    assert body1["record"]["status"] == "ok"
    # byte-identity: hit payload re-encodes to exactly the stored bytes
    assert (canonical_json(body2["record"]) + "\n").encode() == stored
    assert raw == stored
    counters = METRICS.as_dict()["counters"]
    assert counters["serve.cache.hit"] == 1
    assert counters["serve.flow.executed"] == 1


def test_http_error_statuses(tmp_path, monkeypatch):
    flow = FakeFlow()

    async def scenario(server):
        host, port = server.host, server.port
        results = {}
        results["bad_json"] = await _post(host, port, {},
                                          raw_body=b"{nope")
        results["bad_design"] = await _post(host, port,
                                            {"design": "nope"})
        results["not_found"] = await _get(host, port, "/nope")
        results["no_record"] = await _get(host, port,
                                          "/v1/records/feedface")
        results["bad_method"] = await _post(host, port, {},
                                            path="/healthz")
        big = b"x" * (64 * 1024 + 1)
        results["too_big"] = await _post(host, port, {}, raw_body=big)
        return results

    results = _serve(tmp_path, scenario, monkeypatch, flow)
    expected = {
        "bad_json": (400, "RequestError"),
        "bad_design": (400, "RequestError"),
        "not_found": (404, "Not Found"),
        "no_record": (404, "Not Found"),
        "bad_method": (405, "Method Not Allowed"),
        "too_big": (413, "Payload Too Large"),
    }
    for name, (status, type_) in expected.items():
        got_status, raw = results[name]
        assert got_status == status, name
        assert json.loads(raw)["error"]["type"] == type_, name


@pytest.mark.parametrize("size", [20_000, 70_000])
def test_http_oversize_header_is_413(tmp_path, monkeypatch, caplog, size):
    """Past the stream reader's own 64 KiB limit too: that overrun used
    to escape as an unhandled error, logged with a traceback and
    answered 500."""
    # an earlier configure_logging() may have detached "repro" from the
    # root logger, where caplog listens
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)

    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nX-Pad: "
                     + b"a" * size + b"\r\n\r\n")
        await writer.drain()
        data = await reader.read()
        writer.close()
        head, _, raw = data.partition(b"\r\n\r\n")
        return int(head.split(b" ")[1]), raw

    with caplog.at_level(logging.ERROR, logger="repro"):
        status, raw = _serve(tmp_path, scenario, monkeypatch, FakeFlow())
    assert status == 413
    assert json.loads(raw)["error"]["type"] == "Payload Too Large"
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.ERROR] == []


@pytest.mark.parametrize("path", ["/v1/cts", "/v1/predict"])
@pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
def test_http_hostile_json_is_400_without_an_error_log(
        tmp_path, monkeypatch, caplog, name, path):
    """A body ``json.loads`` rejects with a plain ``ValueError`` or a
    ``RecursionError`` used to escape as 500 "internal error", logged
    with a traceback."""
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    flow = FakeFlow()

    async def scenario(server):
        return await _post(server.host, server.port, {}, path=path,
                           raw_body=HOSTILE_BODIES[name])

    with caplog.at_level(logging.ERROR, logger="repro"):
        status, raw = _serve(tmp_path, scenario, monkeypatch, flow)
    assert status == 400
    assert json.loads(raw)["error"]["type"] == "RequestError"
    assert flow.calls == 0
    assert [r.getMessage() for r in caplog.records
            if r.levelno >= logging.ERROR] == []


def test_http_execution_knobs_are_rejected(tmp_path, monkeypatch):
    """A served miss always runs a serial flow, so a request naming an
    execution setting is an error, not a silently ignored knob."""
    flow = FakeFlow()

    async def scenario(server):
        return await _post(server.host, server.port,
                           _payload(config={"jobs": 2}))

    status, raw = _serve(tmp_path, scenario, monkeypatch, flow)
    assert status == 400
    error = json.loads(raw)["error"]
    assert error["type"] == "RequestError"
    assert "jobs" in error["detail"]
    assert flow.calls == 0


def test_http_infinite_deadline_is_400_and_runs_nothing(tmp_path,
                                                        monkeypatch):
    """Python's json reads ``Infinity``; such a deadline used to be
    accepted, run its flow and answer 500 with a logged traceback."""
    flow = FakeFlow()

    async def scenario(server):
        body = (b'{"design": "s38584", "scale": 0.02, '
                b'"deadline_s": Infinity}')
        return await _post(server.host, server.port, {}, raw_body=body)

    status, raw = _serve(tmp_path, scenario, monkeypatch, flow)
    assert status == 400
    error = json.loads(raw)["error"]
    assert error["type"] == "RequestError"
    assert "deadline_s" in error["detail"]
    assert flow.calls == 0


def test_http_healthz_and_metrics(tmp_path, monkeypatch):
    flow = FakeFlow()

    async def scenario(server):
        health = await _get(server.host, server.port, "/healthz")
        metrics = await _get(server.host, server.port, "/metrics")
        return health, metrics

    (h_status, h_raw), (m_status, m_raw) = \
        _serve(tmp_path, scenario, monkeypatch, flow)
    assert h_status == m_status == 200
    health = json.loads(h_raw)
    assert health["status"] == "ok"
    assert health["queue_capacity"] == 8
    counters = json.loads(m_raw)["counters"]
    # every serve counter is present-at-zero from the first snapshot,
    # so dashboards and the CI smoke can assert on names, not guesses
    for name in service_mod.SERVE_COUNTERS:
        assert name in counters, name


def test_http_429_when_queue_is_full(tmp_path, monkeypatch):
    gate = threading.Event()
    flow = FakeFlow(gate=gate)

    async def scenario(server):
        host, port = server.host, server.port
        blocker = asyncio.create_task(
            _post(host, port, _payload(0.1)))
        while server.service.inflight == 0:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)
        queued = asyncio.create_task(_post(host, port, _payload(0.2)))
        await asyncio.sleep(0.05)
        rejected = await _post(host, port, _payload(0.3))
        gate.set()
        done = await asyncio.gather(blocker, queued)
        return rejected, done

    (status, raw), done = _serve(tmp_path, scenario, monkeypatch, flow,
                                 queue_depth=1)
    assert status == 429
    assert json.loads(raw)["error"]["type"] == "AdmissionRejected"
    assert all(s == 200 for s, _ in done)


def test_http_stream_emits_progress_then_result(tmp_path, monkeypatch):
    flow = FakeFlow()

    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        body = json.dumps(_payload(stream=True)).encode()
        writer.write(
            f"POST /v1/cts HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        data = await reader.read()
        writer.close()
        return data

    data = _serve(tmp_path, scenario, monkeypatch, flow)
    head, _, payload = data.partition(b"\r\n\r\n")
    assert b"200 OK" in head.split(b"\r\n")[0]
    assert b"application/x-ndjson" in head
    # de-chunk: drop size lines, keep data lines
    lines = [json.loads(line) for line in payload.split(b"\r\n")
             if line.startswith(b"{")]
    events = [e["event"] for e in lines]
    assert events[0] == "accepted"
    assert "queued" in events and "started" in events
    assert events[-1] == "result"
    assert lines[-1]["record"]["status"] == "ok"
    assert lines[-1]["source"] == "computed"


def test_http_pooled_stream_emits_lifecycle_then_result(tmp_path):
    """A streamed miss on a pooled dispatcher: no span events (those
    come only from in-process execution), but the full lifecycle."""
    async def scenario(server):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        body = json.dumps(_payload(stream=True)).encode()
        writer.write(
            f"POST /v1/cts HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await writer.drain()
        data = await asyncio.wait_for(reader.read(), timeout=60)
        writer.close()
        return data

    data = _serve(tmp_path, scenario, jobs=2)
    _, _, payload = data.partition(b"\r\n\r\n")
    lines = [json.loads(line) for line in payload.split(b"\r\n")
             if line.startswith(b"{")]
    events = [e["event"] for e in lines]
    assert events == ["accepted", "queued", "started", "done", "result"]
    assert lines[-1]["source"] == "computed"
    assert lines[-1]["record"]["status"] == "ok"


def test_http_pooled_workers_do_not_capture_server_sockets(tmp_path):
    """Regression: fork-context pool workers inherit the listening and
    accepted sockets; unless the worker initializer closes them, the
    client's read-to-EOF never sees EOF (the child keeps the connection
    alive after the parent closes it) and this test hangs.  Runs the
    real flow in a forked worker, so it also covers the jobs>=2 path
    end to end."""
    async def scenario(server):
        return await asyncio.wait_for(
            _post(server.host, server.port, _payload()), timeout=60)

    status, raw = _serve(tmp_path, scenario, jobs=2)
    body = json.loads(raw)
    assert status == 200
    assert body["source"] == "computed"
    assert body["record"]["status"] == "ok"

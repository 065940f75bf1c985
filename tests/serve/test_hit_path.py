"""The served hit path: warm model reads stay on the event loop, and
stored records are read from disk once, then answered from memory.

Hits are planted with ``SweepStore.put`` (or computed by a counted
fake flow), so each test controls which keys exist on disk and which
the service has already read; one test runs the real flow to pin the
byte-identity contract for records computed in this process.
"""

import asyncio
import json

import pytest

import repro.predict.features as features
import repro.serve.service as service_mod
from repro.obs.metrics import METRICS
from repro.serve import CTSService
from repro.sweep.runner import PointTask, compute_record
from repro.sweep.store import SweepStore, canonical_json

from tests.serve.test_predict_route import _serve, model  # noqa: F401
from tests.serve.test_server import DESIGN, FakeFlow, _get, _payload, \
    _post, _request


@pytest.fixture(autouse=True)
def _fresh_metrics():
    METRICS.reset()
    yield
    METRICS.reset()


@pytest.fixture
def cold_designs(monkeypatch):
    """An empty design-feature memo, so no design starts warm."""
    monkeypatch.setattr(features, "_DESIGN_CACHE", {})


def _plant(root, eps=0.5) -> None:
    """Store a minimal ok record for ``_request(eps)`` under ``root``."""
    key = _request(eps).key
    SweepStore(root).put(key, {"status": "ok", "key": key,
                               "design": DESIGN, "quality": {"skew_ps": eps}})


def _count_hops(monkeypatch) -> list:
    """Record every ``asyncio.to_thread`` call from here on."""
    hops = []
    real = asyncio.to_thread

    def counted(fn, *args, **kwargs):
        hops.append(getattr(fn, "__name__", repr(fn)))
        return real(fn, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", counted)
    return hops


def _counter(name: str) -> int:
    return METRICS.as_dict()["counters"][name]


def _service(root, scenario):
    async def run():
        service = CTSService(SweepStore(root), jobs=1, queue_depth=8)
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.aclose()

    return asyncio.run(run())


async def _stream(host, port, payload: dict) -> list[dict]:
    """One streamed /v1/cts request, de-chunked into its events."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(dict(payload, stream=True)).encode()
    writer.write(f"POST /v1/cts HTTP/1.1\r\nHost: t\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    _, _, chunked = data.partition(b"\r\n\r\n")
    return [json.loads(line) for line in chunked.split(b"\r\n")
            if line.startswith(b"{")]


# ----------------------------------------------------------------------
# Model reads: on the loop once warm
# ----------------------------------------------------------------------
def test_warm_model_reads_make_no_thread_hop(tmp_path, monkeypatch, model,
                                             cold_designs):
    """With the design's features memoised, hits, predictions and
    streamed hits answer with zero ``asyncio.to_thread`` calls."""
    _plant(tmp_path)
    features.design_features(DESIGN, 0.02)
    hops = _count_hops(monkeypatch)

    async def scenario(server):
        host, port = server.host, server.port
        hits = [await _post(host, port, _payload()) for _ in range(3)]
        predicted = await _post(host, port, _payload(), path="/v1/predict")
        streamed = await _stream(host, port, _payload())
        return hits, predicted, streamed

    hits, (p_status, p_raw), streamed = _serve(tmp_path, scenario,
                                               predictor=model)
    assert hops == []
    for status, raw in hits:
        body = json.loads(raw)
        assert status == 200 and body["source"] == "cache"
        assert set(body["predicted"]) == set(model.target_names)
    assert p_status == 200 and json.loads(p_raw)["cached"] is True
    assert [e["event"] for e in streamed] == \
        ["accepted", "predicted", "cache", "result"]
    assert _counter("predict.hint") == 4
    assert _counter("predict.request") == 1


def test_a_cold_designs_first_hint_hops_once(tmp_path, monkeypatch, model,
                                             cold_designs):
    """Only the hint that generates the design's placement leaves the
    loop; it memoises the features, so the next hint stays."""
    _plant(tmp_path)
    hops = _count_hops(monkeypatch)

    async def scenario(server):
        return [await _post(server.host, server.port, _payload())
                for _ in range(2)]

    answers = _serve(tmp_path, scenario, predictor=model)
    assert hops == ["predict_hint"]
    assert features.design_features_memoised(DESIGN, 0.02)
    assert [json.loads(raw)["source"] for _, raw in answers] == \
        ["cache", "cache"]


def test_a_cold_prediction_hops_once(tmp_path, monkeypatch, model,
                                     cold_designs):
    hops = _count_hops(monkeypatch)

    async def scenario(server):
        return [await _post(server.host, server.port, _payload(),
                            path="/v1/predict") for _ in range(2)]

    answers = _serve(tmp_path, scenario, predictor=model)
    assert hops == ["predict_answer"]
    first, second = (json.loads(raw) for _, raw in answers)
    assert first == second


# ----------------------------------------------------------------------
# Stored records: read once, then answered from memory
# ----------------------------------------------------------------------
def test_repeat_hits_read_the_store_once(tmp_path):
    _plant(tmp_path)

    async def scenario(service):
        return [await service.submit(_request()) for _ in range(5)]

    results = _service(tmp_path, scenario)
    assert [r.source for r in results] == ["cache"] * 5
    assert all(r.record == results[0].record for r in results)
    assert _counter("serve.cache.hit") == 5
    assert _counter("serve.store.read") == 1


def test_a_computed_record_is_hit_with_no_store_read(tmp_path, monkeypatch):
    flow = FakeFlow()
    monkeypatch.setattr(service_mod, "compute_record", flow)

    async def scenario(service):
        return [await service.submit(_request()) for _ in range(4)]

    results = _service(tmp_path, scenario)
    assert [r.source for r in results] == ["computed"] + ["cache"] * 3
    assert flow.calls == 1
    assert SweepStore(tmp_path).get(_request().key) == results[0].record
    assert _counter("serve.store.read") == 0


def test_the_least_recently_used_record_is_evicted(tmp_path, monkeypatch):
    monkeypatch.setattr(service_mod, "HOT_RECORDS", 2)
    for eps in (0.1, 0.2, 0.3):
        _plant(tmp_path, eps)

    async def scenario(service):
        reads = []
        # 0.1 is used again after 0.2, so 0.3 evicts 0.2, not 0.1
        for eps in (0.1, 0.2, 0.1, 0.3, 0.1, 0.2):
            result = await service.submit(_request(eps))
            assert result.source == "cache"
            reads.append(_counter("serve.store.read"))
        return reads

    assert _service(tmp_path, scenario) == [1, 2, 2, 3, 3, 4]


def test_every_hit_re_encodes_to_the_stored_bytes(tmp_path):
    """A hit read from disk, a hit held since that read, and hits of a
    record this process computed all carry the stored bytes."""
    store = SweepStore(tmp_path)
    swept = _request(0.3)
    store.put(swept.key, compute_record(PointTask(
        point=swept.point, fingerprint=swept.fingerprint, key=swept.key,
        flow_jobs=1)).record)

    async def scenario(server):
        host, port = server.host, server.port
        bodies = {swept.key: [], _request().key: []}
        for payload in [_payload(0.3)] * 2 + [_payload()] * 3:
            status, raw = await _post(host, port, payload)
            assert status == 200
            body = json.loads(raw)
            bodies[body["key"]].append(body)
        routed = {key: await _get(host, port, f"/v1/records/{key}")
                  for key in bodies}
        return bodies, routed

    bodies, routed = _serve(tmp_path, scenario)
    sources = {key: [b["source"] for b in answers]
               for key, answers in bodies.items()}
    assert sources == {swept.key: ["cache", "cache"],
                       _request().key: ["computed", "cache", "cache"]}
    for key, answers in bodies.items():
        stored = store.record_path(key).read_bytes()
        assert answers[0]["record"]["status"] == "ok"
        for body in answers:
            assert (canonical_json(body["record"]) + "\n").encode() == stored
        assert routed[key] == (200, stored)
    assert _counter("serve.store.read") == 1


def test_predict_cached_reads_memory_then_disk(tmp_path, monkeypatch, model,
                                               cold_designs):
    """``cached`` is true for a key held in memory (even once its file
    is gone) and for one only on disk, and false for an absent key."""
    features.design_features(DESIGN, 0.02)
    store = SweepStore(tmp_path)
    _plant(tmp_path, 0.2)

    async def scenario(server):
        host, port = server.host, server.port

        async def cached(eps):
            _, raw = await _post(host, port, _payload(eps),
                                 path="/v1/predict")
            return json.loads(raw)["cached"]

        await _post(host, port, _payload(0.1))          # computed, held
        store.record_path(_request(0.1).key).unlink()
        return {"held": await cached(0.1), "disk": await cached(0.2),
                "absent": await cached(0.3),
                "reads": _counter("serve.store.read")}

    got = _serve(tmp_path, scenario, monkeypatch, FakeFlow(),
                 predictor=model)
    assert got == {"held": True, "disk": True, "absent": False, "reads": 1}

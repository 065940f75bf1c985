"""The CTS service: cache → single-flight → admission → execution.

:class:`CTSService` answers validated :class:`~repro.serve.schema.
ServeRequest`\\ s through four layers, cheapest first:

1. **Store hit** — the request's content-addressed key is already in
   the :class:`~repro.sweep.store.SweepStore` (``serve.cache.hit``),
   the common case at scale.  The service keeps up to
   :data:`HOT_RECORDS` records in memory, least recently used out
   first, so a key's first hit reads its file (``serve.store.read``)
   and every later one is a dict lookup.  A record is written once
   under its key, so the copy in memory is the stored record, and a
   hit response's payload is byte-identical to the stored bytes.
2. **Single-flight** — an identical request is already executing: the
   newcomer coalesces onto the in-flight computation instead of
   running it again (``serve.flight.coalesced``); N concurrent
   identical misses execute the flow exactly once.
3. **Admission** — a genuine new miss must win a slot on the bounded
   priority queue; a full queue raises the typed
   :class:`~repro.serve.queue.AdmissionRejected` (HTTP 429,
   ``serve.admit.rejected``) instead of buffering unboundedly.
4. **Execution** — dispatcher workers pop flights in priority order
   and run them through the *same* ``PointTask``/``compute_record``
   path sweeps use.  With two or more dispatchers — the default auto
   (``jobs=0``) on a machine with two or more usable CPUs — each
   owns a one-worker :class:`~repro.parallel.WorkPool`, so the
   CPU-bound flow runs in a forked worker and the serving interpreter
   only parses, looks up and answers; the pool's resilience ladder
   (deadline → retry → resurrect → quarantine → in-process) absorbs
   worker failures per request.  Per-request deadlines ride the
   ladder's deadline rung via :meth:`~repro.parallel.WorkPool.map`'s
   timeout override; on expiry the workers are killed and the request
   fails with the typed :class:`DeadlineExceeded` (HTTP 504).  With
   one dispatcher (``jobs=1``, or auto on one usable CPU) the flow
   runs on the dispatcher's thread in this process.

Successful records are stored and kept in memory, so the next
identical request is a layer-1 hit that reads no file.  Progress
streams to subscribers as events: lifecycle (``queued``/``started``/
``done``) always, plus live per-stage ``span`` events from
:meth:`repro.obs.tracer.Tracer.subscribe` when the flow runs
in-process.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.parallel import WorkPool, resolve_jobs
from repro.resilience import FabricChaos, FabricPolicy, RunHealth
from repro.serve.queue import AdmissionQueue, AdmissionRejected
from repro.serve.schema import ServeRequest
from repro.sweep.runner import PointOutcome, PointTask, compute_record
from repro.sweep.store import SweepStore

_LOG = get_logger("serve")

#: Counters the service maintains; pre-created at zero on start so a
#: metrics snapshot always carries them (the CI smoke asserts presence).
SERVE_COUNTERS = (
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.flight.coalesced",
    "serve.admit.rejected",
    "serve.flow.executed",
    "serve.deadline.expired",
    "serve.request.ok",
    "serve.request.error",
    "serve.store.read",
)

#: Stored records a service keeps in memory (least recently used out
#: first): about 3.6 KB per parsed record, so about 3.7 MB when full.
HOT_RECORDS = 1024

#: Span depth forwarded to streaming clients (flow / level / stage);
#: anything deeper is per-cluster noise at service granularity.
_STREAM_SPAN_DEPTH = 3


class DeadlineExceeded(Exception):
    """Typed per-request deadline expiry (HTTP 504)."""

    def __init__(self, deadline_s: float, key: str):
        self.deadline_s = deadline_s
        self.key = key
        super().__init__(
            f"request {key[:12]} exceeded its {deadline_s:g}s deadline"
        )


@dataclass(slots=True)
class ServeResult:
    """One answered request: the record and where it came from."""

    record: dict
    source: str                # "cache" | "computed" | "coalesced"


class _Flight:
    """One in-flight computation, shared by every coalesced waiter."""

    __slots__ = ("request", "future", "subscribers")

    def __init__(self, request: ServeRequest, loop):
        self.request = request
        self.future: asyncio.Future = loop.create_future()
        self.subscribers: list = []     # on_event callables (loop thread)

    def emit(self, event: dict) -> None:
        for fn in list(self.subscribers):
            try:
                fn(event)
            except Exception:  # noqa: BLE001 — a listener never kills a flight
                pass


class CTSService:
    """Long-running request broker over the content-addressed store."""

    def __init__(
        self,
        store: SweepStore,
        jobs: int = 0,
        queue_depth: int = 64,
        default_deadline_s: float = 0.0,
        policy: FabricPolicy | None = None,
        chaos: FabricChaos | None = None,
        predictor=None,
    ):
        self.store = store
        #: Optional fitted :class:`repro.predict.RidgeModel`; enables
        #: ``/v1/predict`` and the ``predicted`` hint on ``/v1/cts``.
        self.predictor = predictor
        self.jobs = resolve_jobs(jobs)
        self.queue = AdmissionQueue(queue_depth)
        self.default_deadline_s = default_deadline_s
        self.policy = policy if policy is not None else FabricPolicy()
        self.chaos = chaos
        self.health = RunHealth()
        # key -> stored record, least recently used first; read and
        # written on the event-loop thread only (see stored_record)
        self._hot: OrderedDict[str, dict] = OrderedDict()
        self._inflight: dict[str, _Flight] = {}
        self._dispatchers: list[asyncio.Task] = []
        self._pools: list[WorkPool] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        # in-process span streaming bookkeeping (see _execute_local)
        self._stream_lock = threading.Lock()
        self._streamers = 0
        self._trace_was_enabled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the dispatcher workers (one per job slot).

        Two or more slots give each dispatcher its own one-worker pool,
        forked on its first miss; one slot executes in-process.
        """
        if self._dispatchers:
            return
        self._loop = asyncio.get_running_loop()
        for name in SERVE_COUNTERS:
            METRICS.inc(name, 0)    # present-at-zero for /metrics
        if self.predictor is not None:
            for name in ("predict.request", "predict.hint"):
                METRICS.inc(name, 0)
        for i in range(self.jobs):
            pool = None
            if self.jobs > 1:
                # each dispatcher owns a one-worker pool: per-request
                # deadlines can kill a hung flow without touching a
                # sibling dispatcher's request
                pool = WorkPool(1, policy=self.policy, chaos=self.chaos,
                                health=self.health)
                self._pools.append(pool)
            self._dispatchers.append(asyncio.create_task(
                self._dispatch(pool), name=f"cts-dispatch-{i}"
            ))
        _LOG.info("service started: %d dispatcher(s), queue depth %d, "
                  "default deadline %gs", self.jobs, self.queue.depth,
                  self.default_deadline_s)

    async def aclose(self) -> None:
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._dispatchers = []
        pools, self._pools = self._pools, []
        if pools:
            await asyncio.to_thread(
                lambda: [pool.shutdown() for pool in pools]
            )

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # ------------------------------------------------------------------
    # Request path (event-loop side)
    # ------------------------------------------------------------------
    async def submit(self, request: ServeRequest,
                     on_event=None) -> ServeResult:
        """Answer one request; see the module doc for the four layers.

        ``on_event``, when given, receives progress events (dicts) on
        the event loop until the request resolves.  Raises
        :class:`~repro.serve.queue.AdmissionRejected` on a full queue
        and :class:`DeadlineExceeded` on budget expiry; any returned
        record may still carry ``status: "error"`` when the flow
        itself degraded to a failure (the caller inspects it).  A
        returned record may be the one held in memory: read it, do not
        change it.
        """
        record = self.stored_record(request.key)
        if record is not None:
            METRICS.inc("serve.cache.hit")
            if on_event is not None:
                on_event({"event": "cache", "key": request.key})
            return ServeResult(record=record, source="cache")
        METRICS.inc("serve.cache.miss")

        flight = self._inflight.get(request.key)
        if flight is not None:
            METRICS.inc("serve.flight.coalesced")
            if on_event is not None:
                flight.subscribers.append(on_event)
                on_event({"event": "coalesced", "key": request.key})
            try:
                record = await self._await_flight(flight, request)
            finally:
                if on_event is not None and \
                        on_event in flight.subscribers:
                    flight.subscribers.remove(on_event)
            return ServeResult(record=record, source="coalesced")

        flight = _Flight(request, self._loop
                         or asyncio.get_running_loop())
        if on_event is not None:
            flight.subscribers.append(on_event)
        try:
            position = self.queue.put_nowait(flight, request.priority)
        except AdmissionRejected:
            METRICS.inc("serve.admit.rejected")
            raise
        self._inflight[request.key] = flight
        flight.emit({"event": "queued", "key": request.key,
                     "position": position, "priority": request.priority})
        try:
            record = await self._await_flight(flight, request)
        finally:
            if on_event is not None and on_event in flight.subscribers:
                flight.subscribers.remove(on_event)
        return ServeResult(record=record, source="computed")

    def _deadline_of(self, request: ServeRequest) -> float:
        return request.deadline_s or self.default_deadline_s

    def stored_record(self, key: str) -> dict | None:
        """The stored record under ``key``, or None; loop thread only.

        Answered from memory when held there.  Otherwise the store is
        read, and a record found there (``serve.store.read``) is held
        from then on; past :data:`HOT_RECORDS` held records, the least
        recently used one is dropped and would be read again.
        """
        record = self._hot.get(key)
        if record is not None:
            self._hot.move_to_end(key)
            return record
        record = self.store.get(key)
        if record is not None:
            METRICS.inc("serve.store.read")
            self._hold(key, record)
        return record

    def _hold(self, key: str, record: dict) -> None:
        self._hot[key] = record
        self._hot.move_to_end(key)
        if len(self._hot) > HOT_RECORDS:
            self._hot.popitem(last=False)

    # ------------------------------------------------------------------
    # Prediction (model only — never touches the queue or the fabric)
    # ------------------------------------------------------------------
    def predict_hint(self, request: ServeRequest) -> dict | None:
        """The model's estimate for a request's metrics, or None.

        Pure read: one matrix multiply against the loaded model, with
        the request's design features memoised after the first call —
        no queue slot, no flight, no flow execution.  Safe on any
        thread.  Until the design's features are memoised
        (:func:`repro.predict.features.design_features_memoised`),
        call it on a worker thread (``asyncio.to_thread``): the first
        hint for a design generates its placement to summarise it,
        which is milliseconds-to-tenths work that must not stall the
        loop.
        """
        if self.predictor is None:
            return None
        point = request.point
        predicted = self.predictor.predict_point(
            point.design, point.scale, request.config)
        METRICS.inc("predict.hint")
        return predicted

    def predict_answer(self, request: ServeRequest, cached: bool) -> dict:
        """The full ``/v1/predict`` payload (requires a predictor).

        ``cached`` says whether the request's record is stored; the
        caller looks it up on the loop (:meth:`stored_record`), since
        this may run on a worker thread as :meth:`predict_hint` does.
        """
        point = request.point
        predicted = self.predictor.predict_point(
            point.design, point.scale, request.config)
        METRICS.inc("predict.request")
        return {
            "key": request.key,
            "design": point.design,
            "scale": point.scale,
            "cached": cached,
            "model": self.predictor.key(),
            "predicted": predicted,
        }

    async def _await_flight(self, flight: _Flight,
                            request: ServeRequest) -> dict:
        deadline = self._deadline_of(request)
        if deadline <= 0:
            return await asyncio.shield(flight.future)
        try:
            # shielded: one waiter's deadline must not cancel the
            # computation out from under its coalesced siblings — and
            # the finished record still lands in the store, so the
            # client's retry is a cache hit
            return await asyncio.wait_for(
                asyncio.shield(flight.future), deadline
            )
        except asyncio.TimeoutError:
            METRICS.inc("serve.deadline.expired")
            raise DeadlineExceeded(deadline, request.key) from None

    # ------------------------------------------------------------------
    # Dispatch (one coroutine per job slot)
    # ------------------------------------------------------------------
    async def _dispatch(self, pool: WorkPool | None) -> None:
        while True:
            flight: _Flight = await self.queue.get()
            request = flight.request
            flight.emit({"event": "started", "key": request.key})
            # the flow itself stays serial: an in-process miss runs on
            # a dispatcher thread, where forking a cluster pool is
            # unsafe, and a pooled miss already owns its worker — the
            # server's concurrency is its dispatcher count
            task = PointTask(point=request.point,
                             fingerprint=request.fingerprint,
                             key=request.key, flow_jobs=1)
            try:
                record = await asyncio.to_thread(
                    self._execute, task, flight, pool,
                    self._deadline_of(request),
                )
            except Exception as exc:  # noqa: BLE001 — typed or truly foreign
                self._inflight.pop(request.key, None)
                if not flight.future.done():
                    flight.future.set_exception(exc)
                    flight.future.exception()   # mark retrieved
                flight.emit({"event": "error",
                             "key": request.key,
                             "type": exc.__class__.__name__,
                             "detail": str(exc)})
                continue
            if record["status"] == "ok":
                self.store.put(request.key, record)
                self._hold(request.key, record)
                METRICS.inc("serve.request.ok")
            else:
                METRICS.inc("serve.request.error")
            # unregister *before* resolving: a request arriving after
            # this instant finds the store populated (or, for a failed
            # flow, starts a fresh attempt — errors are never cached)
            self._inflight.pop(request.key, None)
            if not flight.future.done():
                flight.future.set_result(record)
            flight.emit({"event": "done", "key": request.key,
                         "status": record["status"]})

    # ------------------------------------------------------------------
    # Execution (dispatcher thread side)
    # ------------------------------------------------------------------
    def _execute(self, task: PointTask, flight: _Flight,
                 pool: WorkPool | None, deadline: float) -> dict:
        METRICS.inc("serve.flow.executed")
        if pool is None:
            return self._execute_local(task, flight).record

        def degraded(task: PointTask, code: str,
                     detail: str) -> PointOutcome:
            if code == "closed":
                # aclose() shut the pool down under this request: the
                # server is stopping, so nothing runs it again here
                raise RuntimeError(
                    f"server stopped before {task.key[:12]} finished")
            if code == "timeout":
                METRICS.inc("serve.deadline.expired")
                raise DeadlineExceeded(deadline, task.key)
            # any other rung exhausted: same degradation contract as
            # the sweep runner — the computation still happens, here
            _LOG.warning("pooled execution degraded (%s: %s); "
                         "running %s in-process", code, detail,
                         task.key[:12])
            return self._execute_local(task, flight)

        return pool.map(
            compute_record, [task],
            describe=lambda t: f"serve {t.key[:12]}",
            fallback=degraded,
            timeout=deadline if deadline > 0 else None,
        )[0].record

    def _execute_local(self, task: PointTask,
                       flight: _Flight) -> PointOutcome:
        """Run the flow on this dispatcher's thread, streaming spans.

        While subscribers are attached, the global tracer is enabled
        and its span-open feed — filtered to this thread, capped at
        stage depth — is forwarded to the flight as ``span`` events:
        live per-stage progress without a separate progress channel.
        """
        if not flight.subscribers:
            return compute_record(task)
        loop = self._loop
        ident = threading.get_ident()

        def on_span(span, depth):
            if span.tid != ident or depth > _STREAM_SPAN_DEPTH:
                return
            event = {
                "event": "span", "name": span.name, "depth": depth,
                "attrs": {k: v if isinstance(v, (str, int, float, bool))
                          else str(v) for k, v in span.attrs.items()},
            }
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(flight.emit, event)

        with self._stream_lock:
            self._streamers += 1
            if self._streamers == 1:
                self._trace_was_enabled = TRACER.enabled
                TRACER.enable()
        TRACER.subscribe(on_span)
        try:
            return compute_record(task)
        finally:
            TRACER.unsubscribe(on_span)
            with self._stream_lock:
                self._streamers -= 1
                if self._streamers == 0 and not self._trace_was_enabled:
                    # a long-running server must not accumulate spans
                    TRACER.disable()
                    TRACER.reset()

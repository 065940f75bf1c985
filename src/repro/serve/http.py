"""Minimal asyncio HTTP front-end for the CTS service.

Stdlib-only (``asyncio.start_server`` plus hand-rolled HTTP/1.1): the
container bakes in no web framework and the protocol surface is four
routes, so a framework would be all liability.  One connection carries
one request (``Connection: close``), bodies are ``Content-Length``
delimited and size-capped, and responses are JSON throughout — errors
included, as ``{"error": {"type", "detail"}}`` with the status code
carrying the semantics:

===========================  ======================================
``400 RequestError``         malformed payload / unknown knob
``404``                      unknown route or record key
``405``                      wrong method on a known route
``413``                      body beyond ``MAX_BODY`` bytes, or a
                             header section beyond 16 KiB
``429 AdmissionRejected``    queue full — back off and retry
``503 ModelUnavailable``     ``/v1/predict`` without ``--model``
``504 DeadlineExceeded``     per-request budget expired
===========================  ======================================

Routes:

``GET /healthz``
    Liveness: queue depth, in-flight count, store root.
``GET /metrics``
    The process's full metrics snapshot (``METRICS.as_dict()``).
``GET /v1/records/<key>``
    Direct lookup by content-addressed key (in memory, else the store);
    never computes.
``POST /v1/cts``
    The main entry: a validated request (see :mod:`repro.serve.
    schema`) answered from cache, a coalesced flight, or a fresh
    execution.  With ``"stream": true`` the response is chunked
    NDJSON — progress events as they happen, then a final ``result``
    (or ``error``) line.  When a model is loaded the response carries
    a ``predicted`` hint (streaming: a ``predicted`` event right after
    ``accepted``) — the model's estimate, available before the flow
    finishes.
``POST /v1/predict``
    The same request payload answered *from the model alone*: no
    queue slot, no flight, no flow execution — microseconds, plus a
    ``cached`` flag saying whether the exact record already exists.
    503 ``ModelUnavailable`` when the server was started without
    ``--model``.
"""

from __future__ import annotations

import asyncio
import json

from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.serve.queue import AdmissionRejected
from repro.serve.schema import RequestError, parse_request_bytes
from repro.serve.service import CTSService, DeadlineExceeded

_LOG = get_logger("serve.http")

#: Request-body ceiling; a CTS request is a handful of knobs, so
#: anything near this size is malformed or hostile (HTTP 413).
MAX_BODY = 64 * 1024

#: Header-section ceiling (start line + headers).
_MAX_HEADER = 16 * 1024

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HttpError(Exception):
    """Internal: carries a status code up to the connection handler."""

    def __init__(self, status: int, detail: str, type_: str | None = None):
        self.status = status
        self.detail = detail
        self.type = type_ or _STATUS_TEXT.get(status, "Error")
        super().__init__(detail)


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


class CTSServer:
    """``asyncio.start_server`` wrapper around one :class:`CTSService`."""

    def __init__(self, service: CTSService,
                 host: str = "127.0.0.1", port: int = 8765):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]    # resolve port 0
        _LOG.info("listening on http://%s:%d", self.host, self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.aclose()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as err:
                await self._send_error(writer, err)
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return    # client went away mid-request
            try:
                await self._route(method, path, body, writer)
            except _HttpError as err:
                await self._send_error(writer, err)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except Exception:  # noqa: BLE001 — a connection never kills the server
            _LOG.exception("unhandled error serving a connection")
            try:
                await self._send_error(
                    writer, _HttpError(500, "internal error"))
            except Exception:  # noqa: BLE001
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001
                pass

    async def _read_request(self, reader) -> tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            # the stream's own buffer limit (64 KiB) ran out first
            raise _HttpError(413, "header section too large") from None
        if len(head) > _MAX_HEADER:
            raise _HttpError(413, "header section too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError:
            raise _HttpError(400,
                             f"bad Content-Length {length!r}") from None
        if length > MAX_BODY:
            raise _HttpError(
                413, f"body of {length} bytes exceeds the "
                     f"{MAX_BODY}-byte limit")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, body: bytes,
                     writer) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            self._require_method(method, "GET")
            await self._send_json(writer, 200, {
                "status": "ok",
                "queue_depth": len(self.service.queue),
                "queue_capacity": self.service.queue.depth,
                "inflight": self.service.inflight,
                "jobs": self.service.jobs,
                "store": str(self.service.store.root),
            })
        elif path == "/metrics":
            self._require_method(method, "GET")
            await self._send_json(writer, 200, METRICS.as_dict())
        elif path.startswith("/v1/records/"):
            self._require_method(method, "GET")
            key = path[len("/v1/records/"):]
            record = self.service.stored_record(key) if key else None
            if record is None:
                raise _HttpError(404, f"no record under key {key!r}")
            await self._send_json(writer, 200, record)
        elif path == "/v1/cts":
            self._require_method(method, "POST")
            await self._serve_cts(body, writer)
        elif path == "/v1/predict":
            self._require_method(method, "POST")
            await self._serve_predict(body, writer)
        else:
            raise _HttpError(404, f"no route {path!r}")

    @staticmethod
    def _require_method(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}, not {method}")

    # ------------------------------------------------------------------
    # The main route
    # ------------------------------------------------------------------
    async def _serve_cts(self, body: bytes, writer) -> None:
        try:
            request = parse_request_bytes(body)
        except RequestError as exc:
            raise _HttpError(400, str(exc), "RequestError") from exc
        if request.stream:
            await self._serve_streaming(request, writer)
            return
        hint = None
        if self.service.predictor is not None:
            hint = await self._ask_model(self.service.predict_hint, request)
        try:
            result = await self.service.submit(request)
        except AdmissionRejected as exc:
            raise _HttpError(429, str(exc), "AdmissionRejected") from exc
        except DeadlineExceeded as exc:
            raise _HttpError(504, str(exc), "DeadlineExceeded") from exc
        payload = {
            "source": result.source,
            "key": request.key,
            "record": result.record,
        }
        if hint is not None:
            payload["predicted"] = hint
        await self._send_json(writer, 200, payload)

    async def _serve_predict(self, body: bytes, writer) -> None:
        """``/v1/predict``: the model's answer, never the fabric's."""
        try:
            request = parse_request_bytes(body)
        except RequestError as exc:
            raise _HttpError(400, str(exc), "RequestError") from exc
        if self.service.predictor is None:
            raise _HttpError(
                503, "no model loaded; start the server with --model "
                     "<artifact from 'repro fit'>", "ModelUnavailable")
        cached = self.service.stored_record(request.key) is not None
        payload = await self._ask_model(self.service.predict_answer,
                                        request, cached)
        await self._send_json(writer, 200, payload)

    @staticmethod
    async def _ask_model(method, request, *args):
        """``method(request, *args)`` of the service's model reads.

        On the loop once the request's design features are memoised,
        when a read is one matrix multiply (about 20 µs, less than the
        thread hop).  Until then on a worker thread: the first read for
        a design generates its placement.
        """
        # a server without a model never imports repro.predict
        from repro.predict.features import design_features_memoised

        point = request.point
        if design_features_memoised(point.design, point.scale):
            return method(request, *args)
        return await asyncio.to_thread(method, request, *args)

    async def _serve_streaming(self, request, writer) -> None:
        """Chunked NDJSON: progress events, then one result/error line."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

        def write_chunk(payload: dict) -> None:
            data = _json_bytes(payload)
            writer.write(f"{len(data):x}\r\n".encode("ascii")
                         + data + b"\r\n")

        write_chunk({"event": "accepted", "key": request.key})
        if self.service.predictor is not None:
            hint = await self._ask_model(self.service.predict_hint, request)
            if hint is not None:
                write_chunk({"event": "predicted", "key": request.key,
                             "predicted": hint})
        try:
            result = await self.service.submit(request,
                                               on_event=write_chunk)
            write_chunk({"event": "result", "source": result.source,
                         "key": request.key, "record": result.record})
        except (AdmissionRejected, DeadlineExceeded, Exception) as exc:  # noqa: B014
            status = (429 if isinstance(exc, AdmissionRejected)
                      else 504 if isinstance(exc, DeadlineExceeded)
                      else 500)
            write_chunk({"event": "error", "status": status,
                         "type": exc.__class__.__name__,
                         "detail": str(exc)})
        writer.write(b"0\r\n\r\n")    # terminal chunk
        await writer.drain()

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------
    async def _send_json(self, writer, status: int, payload: dict) -> None:
        data = _json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + data)
        await writer.drain()

    async def _send_error(self, writer, err: _HttpError) -> None:
        await self._send_json(writer, err.status, {
            "error": {"type": err.type, "detail": err.detail}
        })

"""Hierarchical span tracing for the CTS flow.

A *span* is a named, attributed, timed region of the run; spans nest, so
a traced flow yields a tree::

    flow
    ├── level (level=0)
    │   ├── partition
    │   └── cluster (net=L0_c0)
    │       ├── route
    │       │   └── refine
    │       │       └── pass (n=0)
    │       ├── buffer
    │       └── check
    └── ...

Tracing is **off by default** and the disabled path is engineered to be
near-free (the same pattern as ``repro.salt.refine.VALIDATE_REFINED``):
:meth:`Tracer.span` on a disabled tracer returns one shared no-op
context manager — no allocation, no clock read, no locking — so
instrumentation can stay in hot-ish code unconditionally.  The module
singleton :data:`TRACER` is what the instrumented packages import;
harnesses turn it on with :func:`capture` (or ``repro flow --trace``).

Thread safety: each thread keeps its own span stack (``threading.
local``), so concurrent flows interleave without corrupting nesting;
only the root-span list is shared and it is lock-guarded.  Durations
come from :mod:`repro.obs.clock`, the flow's single clock.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.obs.clock import now


class Span:
    """One timed region; ``duration`` is valid once the span has closed."""

    __slots__ = ("name", "attrs", "start", "end", "children", "tid")

    def __init__(self, name: str, attrs: dict, tid: int):
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list["Span"] = []
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self):
        """Yield this span and every descendant, preorder."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def shape(self) -> tuple:
        """Timing-free structural signature (name, attrs, child shapes).

        Two runs of a deterministic flow must produce equal shapes —
        the property the determinism regression test pins.
        """
        return (
            self.name,
            tuple(sorted(self.attrs.items())),
            tuple(c.shape() for c in self.children),
        )

    def max_depth(self) -> int:
        depth = 1
        stack = [(self, 1)]
        while stack:
            span, d = stack.pop()
            depth = max(depth, d)
            stack.extend((c, d + 1) for c in span.children)
        return depth

    def restamp_tid(self, tid: int) -> None:
        """Rewrite the thread id of this span and every descendant.

        Spans shipped back from a worker process carry the worker's
        thread ident, which can collide with the parent's; adopting
        them under a synthetic per-worker tid keeps each worker on its
        own track in trace viewers and keeps the timestamp-containment
        re-nesting of :func:`repro.obs.export.spans_from_trace` sound
        (one worker runs its tasks serially, so its spans never
        overlap within a tid).
        """
        for span in self.walk():
            span.tid = tid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {self.attrs}, "
                f"{self.duration * 1e3:.3f}ms, "
                f"{len(self.children)} children)")


class _NullSpan:
    """The shared do-nothing context manager of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens/closes one :class:`Span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self._span = Span(name, attrs, threading.get_ident())

    def __enter__(self) -> Span:
        span = self._span
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with tracer._lock:
                tracer.roots.append(span)
        stack.append(span)
        span.start = now()
        if tracer._subscribers:
            tracer._notify(span, len(stack))
        return span

    def __exit__(self, *exc) -> bool:
        span = self._span
        span.end = now()
        stack = self._tracer._stack()
        # tolerate a foreign/corrupt stack rather than raise in a finally
        if stack and stack[-1] is span:
            stack.pop()
        return False


class Tracer:
    """Collects a forest of spans; disabled by default."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # span-open listeners (see subscribe); empty list = zero cost
        # on the span path beyond one truthiness check
        self._subscribers: list = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a span; use as ``with tracer.span("route", net=n):``.

        On a disabled tracer this returns the shared no-op context
        manager and touches nothing else.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(
        self,
        roots: list[Span],
        *,
        parent: Span | None = None,
        tid: int | None = None,
        **attrs,
    ) -> None:
        """Graft foreign spans (e.g. from a worker process) into this
        tracer's forest.

        Each root in ``roots`` is stamped with ``attrs`` (the caller
        passes ``worker=<pid>`` so the origin stays visible), its whole
        subtree is re-stamped to ``tid`` when one is given (see
        :meth:`Span.restamp_tid`), and it is appended under ``parent``
        — defaulting to the calling thread's innermost open span — or
        collected as a new root when no span is open.
        """
        target = parent if parent is not None else self.current()
        for root in roots:
            root.attrs.update(attrs)
            if tid is not None:
                root.restamp_tid(tid)
            if target is not None:
                target.children.append(root)
            else:
                with self._lock:
                    self.roots.append(root)

    # ------------------------------------------------------------------
    # Live span events (the serve layer's progress feed)
    # ------------------------------------------------------------------
    def subscribe(self, fn) -> None:
        """Call ``fn(span, depth)`` whenever a span *opens*.

        The hook fires on the opening thread with the span's start
        already stamped, so a listener can stream live progress
        (:mod:`repro.serve` forwards these to clients as NDJSON
        events).  Listeners must be fast and must never raise; a
        raising listener is dropped.  With no subscribers the span
        path pays only one truthiness check.
        """
        with self._lock:
            if fn not in self._subscribers:
                self._subscribers.append(fn)

    def unsubscribe(self, fn) -> None:
        with self._lock:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

    def _notify(self, span: Span, depth: int) -> None:
        for fn in list(self._subscribers):
            try:
                fn(span, depth)
            except Exception:  # noqa: BLE001 — listeners never break a flow
                self.unsubscribe(fn)

    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop collected spans (and the calling thread's open stack)."""
        with self._lock:
            self.roots = []
        self._local.stack = []

    # ------------------------------------------------------------------
    def max_depth(self) -> int:
        return max((r.max_depth() for r in self.roots), default=0)


#: The tracer the instrumented packages import.  Off by default.
TRACER = Tracer()

if hasattr(os, "register_at_fork"):
    # same hazard as METRICS' lock: a fork while another thread holds
    # it would deadlock the child's first TRACER.reset()
    os.register_at_fork(
        after_in_child=lambda: setattr(TRACER, "_lock", threading.Lock()))


@contextmanager
def capture(tracer: Tracer = TRACER):
    """Enable ``tracer`` fresh for one block; restore its state after.

    The CLI and the tests use this so a traced run never leaks spans or
    an enabled flag into the next run in the same process.
    """
    previous = tracer.enabled
    tracer.reset()
    tracer.enable()
    try:
        yield tracer
    finally:
        tracer.enabled = previous

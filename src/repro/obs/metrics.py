"""Named counters, gauges and histograms for the CTS flow.

The registry answers "how much work did the flow actually do" at a
granularity stage timings cannot: grid-index probes vs. prunes,
dirty-region skips, SALT reattachment gains, DME merge-region areas,
min-cost-flow assignment costs, per-cluster skew/wirelength
contributions.  Instrumented code updates the module singleton
:data:`METRICS`; harnesses snapshot it per run (``--trace`` embeds it
in the trace file).

The registry is always on — instrumentation sites update it at *flush*
granularity (once per pass / per net / per query batch), never from an
inner loop, so the nominal-flow cost is far below measurement noise.
Hot loops accumulate plain local integers and flush once (see
``repro.salt.refine``).  All operations are lock-guarded and therefore
safe under concurrent flows; the counts then aggregate across threads.
"""

from __future__ import annotations

import os
import threading


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and min/max histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, total, min, max]
        self._hists: dict[str, list[float]] = {}
        # ordered (kind, name, value) log, kept only while event
        # recording is on (see begin_event_log) — the cross-process
        # transport that lets a parent replay a worker's updates in
        # their original order, bit-exact against the serial fold
        self._events: list[tuple[str, str, float]] | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name`` (created at zero)."""
        with self._lock:
            if self._events is not None:
                self._events.append(("inc", name, value))
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of ``name`` (last write wins)."""
        with self._lock:
            if self._events is not None:
                self._events.append(("gauge", name, value))
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram ``name``."""
        with self._lock:
            if self._events is not None:
                self._events.append(("obs", name, value))
            h = self._hists.get(name)
            if h is None:
                self._hists[name] = [1, value, value, value]
            else:
                h[0] += 1
                h[1] += value
                if value < h[2]:
                    h[2] = value
                if value > h[3]:
                    h[3] = value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> dict | None:
        h = self._hists.get(name)
        if h is None:
            return None
        count, total, lo, hi = h
        return {"count": int(count), "total": total, "min": lo, "max": hi,
                "mean": total / count}

    def as_dict(self, precision: int | None = 4) -> dict:
        """Structured snapshot; ``precision`` rounds floats for JSON."""

        def _r(x: float):
            if precision is None:
                return x
            if isinstance(x, float):
                return round(x, precision)
            return x

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = {k: list(v) for k, v in self._hists.items()}
        return {
            "counters": {k: _r(v) for k, v in sorted(counters.items())},
            "gauges": {k: _r(v) for k, v in sorted(gauges.items())},
            "histograms": {
                k: {
                    "count": int(c),
                    "total": _r(t),
                    "min": _r(lo),
                    "max": _r(hi),
                    "mean": _r(t / c),
                }
                for k, (c, t, lo, hi) in sorted(hists.items())
            },
        }

    # ------------------------------------------------------------------
    # Cross-process transport
    # ------------------------------------------------------------------
    def begin_event_log(self) -> None:
        """Start recording every update as an ordered event.

        Worker processes turn this on so :meth:`raw_snapshot` can ship
        the exact update sequence home; replaying it (see
        :meth:`merge_raw`) reproduces the serial flow's float folds
        bit-for-bit, which mere aggregate merging cannot (float
        addition is not associative — per-task subtotals drift in the
        last bit).  Recording survives :meth:`reset` so a worker
        enables it once and resets per task.
        """
        with self._lock:
            self._events = []

    def raw_snapshot(self) -> dict:
        """Unrounded, picklable dump for cross-process merging.

        Unlike :meth:`as_dict` (the rounded JSON view), this preserves
        every float bit-exactly.  When event recording is on (see
        :meth:`begin_event_log`) the snapshot also carries the ordered
        update log, and a parent registry that folds worker snapshots
        back in via :meth:`merge_raw` in serial task order reproduces
        the serial flow's numbers exactly (see docs/PARALLELISM.md).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "hists": {k: list(v) for k, v in self._hists.items()},
                "events": None if self._events is None
                else list(self._events),
            }

    def merge_raw(self, snapshot: dict) -> None:
        """Fold a :meth:`raw_snapshot` into this registry.

        A snapshot carrying an event log is replayed update-by-update
        in its original order — identical, bit-for-bit, to the updates
        having happened here.  Without one, aggregates fold: counters
        add, gauges take the snapshot's value (last write wins, so
        merging in task order matches serial ordering), histograms
        combine count/total/min/max — correct, but per-task subtotals
        may differ from the serial flat fold in the last float bit.
        """
        events = snapshot.get("events")
        with self._lock:
            if events is not None:
                for kind, name, value in events:
                    if self._events is not None:
                        self._events.append((kind, name, value))
                    if kind == "inc":
                        self._counters[name] = \
                            self._counters.get(name, 0) + value
                    elif kind == "gauge":
                        self._gauges[name] = value
                    else:
                        h = self._hists.get(name)
                        if h is None:
                            self._hists[name] = [1, value, value, value]
                        else:
                            h[0] += 1
                            h[1] += value
                            if value < h[2]:
                                h[2] = value
                            if value > h[3]:
                                h[3] = value
                return
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                self._gauges[name] = value
            for name, (count, total, lo, hi) in \
                    snapshot.get("hists", {}).items():
                h = self._hists.get(name)
                if h is None:
                    self._hists[name] = [count, total, lo, hi]
                else:
                    h[0] += count
                    h[1] += total
                    if lo < h[2]:
                        h[2] = lo
                    if hi > h[3]:
                        h[3] = hi

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            if self._events is not None:
                self._events = []


#: The registry the instrumented packages import.
METRICS = MetricsRegistry()

if hasattr(os, "register_at_fork"):
    # A fork can land while another thread holds the lock (a serving
    # event loop counts every request), leaving it held forever in the
    # child, whose worker initializer takes it first thing.  The child
    # runs only the forking thread, so a fresh lock is safe there.
    os.register_at_fork(
        after_in_child=lambda: setattr(METRICS, "_lock", threading.Lock()))

"""Structured diagnostics for the guarded hierarchical flow.

Every non-nominal thing that happens during a run — a router retry, a
topology downgrade, a constraint repair, a residual violation, a forced
partition split, an injected fault — is recorded as a :class:`FlowEvent`
in a :class:`FlowDiagnostics` instead of aborting the flow.  The object
rides on :class:`repro.cts.framework.CTSResult`, is rendered by
:func:`repro.io.report.format_diagnostics`, and drives the CLI's
``--strict`` semantics: *degraded* means any event whose kind is in
:data:`DEGRADED_KINDS` occurred (successful repairs are normal
fix-and-recheck operation, not degradation).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.clock import now
from repro.obs.logcfg import get_logger
from repro.obs.tracer import TRACER

_LOG = get_logger("flowguard")

#: Event kinds a guarded flow may record.
EVENT_KINDS = (
    "retry",         # a stage was re-attempted with relaxed parameters
    "downgrade",     # a stage fell back to a weaker algorithm
    "repair",        # a constraint repair action was applied (and helped)
    "violation",     # a constraint violation survived repair
    "forced_split",  # partitioning was replaced by the forced median split
    "fault",         # an injected/unexpected fault was absorbed
    "timeout",       # a parallel task blew its deadline; ran in parent
)

#: Kinds that make a run "degraded" for ``--strict`` purposes.
DEGRADED_KINDS = frozenset(
    {"retry", "downgrade", "violation", "forced_split", "fault", "timeout"}
)


@dataclass(frozen=True, slots=True)
class FlowEvent:
    """One recorded incident of a guarded flow."""

    stage: str          # "partition" | "route" | "buffer" | "check" | ...
    kind: str           # one of EVENT_KINDS
    level: int          # hierarchy level, -1 when not level-bound
    net: str            # net name, "" when not net-bound
    detail: str         # human-readable description

    def describe(self) -> str:
        where = []
        if self.level >= 0:
            where.append(f"L{self.level}")
        if self.net:
            where.append(self.net)
        loc = "/".join(where) or "-"
        return f"[{self.stage}:{self.kind}] {loc}: {self.detail}"


class FlowDiagnostics:
    """Collects :class:`FlowEvent`s and per-stage wall time for one run."""

    def __init__(self) -> None:
        self.events: list[FlowEvent] = []
        self.stage_time_s: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        stage: str,
        kind: str,
        *,
        level: int = -1,
        net: str = "",
        detail: str = "",
    ) -> FlowEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        event = FlowEvent(stage=stage, kind=kind, level=level, net=net,
                          detail=detail)
        self.events.append(event)
        # per-event lines are DEBUG: a large flow records hundreds, and
        # the engine logs one summary per level (see degradation_line)
        _LOG.debug("%s", event.describe())
        return event

    def add_time(self, stage: str, seconds: float) -> None:
        self.stage_time_s[stage] = self.stage_time_s.get(stage, 0.0) + seconds

    @contextmanager
    def timed(self, stage: str, **attrs):
        """Accumulate wall time under ``stage`` and open a trace span.

        Stage times and span durations are the *same measurement*: when
        tracing is enabled the duration recorded by the span (read from
        the single obs clock) is exactly what lands in
        ``stage_time_s``, so the two can never disagree.
        """
        cm = TRACER.span(stage, **attrs)
        span = cm.__enter__()
        start = now() if span is None else 0.0
        try:
            yield self
        finally:
            cm.__exit__(None, None, None)
            self.add_time(
                stage,
                span.duration if span is not None else now() - start,
            )

    def event_breakdown(self, since: int = 0) -> dict[str, int]:
        """Per-kind event counts plus a total — the structured form of
        the old opaque ``flow_events: N`` bench field — over the events
        recorded from index ``since`` on."""
        events = self.events[since:]
        breakdown: dict[str, int] = {"total": len(events)}
        for kind in EVENT_KINDS:
            n = sum(1 for e in events if e.kind == kind)
            if n:
                breakdown[kind] = n
        return breakdown

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def downgrades(self) -> int:
        return self.count("downgrade")

    @property
    def repairs(self) -> int:
        return self.count("repair")

    @property
    def violations(self) -> int:
        return self.count("violation")

    @property
    def forced_splits(self) -> int:
        return self.count("forced_split")

    @property
    def degraded(self) -> bool:
        """True when anything non-nominal (beyond successful repairs)
        happened — what ``repro flow --strict`` fails on."""
        return any(e.kind in DEGRADED_KINDS for e in self.events)

    # ------------------------------------------------------------------
    # Rendering helpers (consumed by repro.io.report)
    # ------------------------------------------------------------------
    def summary_rows(self) -> list[list[object]]:
        """Aggregated ``(stage, kind) -> count, last detail`` table rows."""
        agg: dict[tuple[str, str], list[object]] = {}
        for e in self.events:
            key = (e.stage, e.kind)
            if key not in agg:
                agg[key] = [e.stage, e.kind, 0, e.detail]
            agg[key][2] = int(agg[key][2]) + 1
            agg[key][3] = e.detail  # keep the most recent example
        return [agg[k] for k in sorted(agg)]

    def degradation_line(self, since: int = 0) -> str | None:
        """Degraded events recorded from index ``since`` on, as one line.

        Counts by kind plus the first event as an example, or None when
        there are none — what the hierarchical engine logs once per
        level instead of one WARNING per event.
        """
        example = next((e for e in self.events[since:]
                        if e.kind in DEGRADED_KINDS), None)
        if example is None:
            return None
        counts = ", ".join(
            f"{n} {kind}" for kind, n in self.event_breakdown(since).items()
            if kind in DEGRADED_KINDS
        )
        return f"{counts}; e.g. {example.describe()}"

    def summary(self) -> str:
        """One-line digest for logs and CLI footers."""
        status = "degraded" if self.degraded else "clean"
        return (
            f"flow {status}: {self.retries} retries, "
            f"{self.downgrades} downgrades, {self.repairs} repairs, "
            f"{self.violations} residual violations, "
            f"{self.forced_splits} forced splits over "
            f"{len(self.events)} events"
        )

    def merge(self, other: "FlowDiagnostics") -> None:
        """Fold another diagnostics object into this one (sub-flows)."""
        self.events.extend(other.events)
        for stage, t in other.stage_time_s.items():
            self.add_time(stage, t)

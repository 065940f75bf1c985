"""What the fabric absorbed during a run.

:class:`RunHealth` is the fabric-side counterpart of
:class:`repro.flowguard.diagnostics.FlowDiagnostics`: an append-only,
wall-clock-free record of every resilience action the execution fabric
took — timeouts, retries, pool resurrections, quarantines, in-process
degradations.  It is attached to :class:`~repro.cts.framework.CTSResult`
and :class:`~repro.sweep.runner.SweepReport` and serialised into a
``.health.json`` sidecar next to sweep JSONL (never *into* the JSONL:
record bytes must not depend on how bumpy the run was).

Events carry attempt counts, task labels and free-text detail — never
timestamps or durations — so two runs that hit the same faults produce
identical health reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Every kind of fabric incident, in ladder order.
FABRIC_EVENT_KINDS = (
    "timeout",      # task exceeded its wall-clock budget; workers killed
    "retry",        # task re-submitted after a transient failure
    "resurrect",    # broken pool rebuilt (initializer re-run)
    "quarantine",   # poison task permanently routed in-process
    "degraded",     # task ran in-process after exhausting the ladder
    "pool_lost",    # rebuild budget exhausted; fabric now in-process only
)


@dataclass(frozen=True, slots=True)
class FabricEvent:
    """One fabric incident.  Deliberately wall-clock-free."""

    kind: str
    task: str = ""
    attempt: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {"kind": self.kind}
        if self.task:
            d["task"] = self.task
        if self.attempt:
            d["attempt"] = self.attempt
        if self.detail:
            d["detail"] = self.detail
        return d


class RunHealth:
    """Append-only log of fabric incidents plus roll-up counters."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[FabricEvent] = []

    # ------------------------------------------------------------------
    def record(
        self, kind: str, task: str = "", attempt: int = 0, detail: str = ""
    ) -> FabricEvent:
        if kind not in FABRIC_EVENT_KINDS:
            raise ValueError(
                f"unknown fabric event kind {kind!r}; "
                f"expected one of {FABRIC_EVENT_KINDS}"
            )
        event = FabricEvent(kind=kind, task=task, attempt=attempt,
                            detail=detail)
        self.events.append(event)
        return event

    def merge(self, other: "RunHealth") -> None:
        """Fold another health log into this one (order-preserving)."""
        self.events.extend(other.events)

    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    @property
    def retries(self) -> int:
        return self.count("retry")

    @property
    def healthy(self) -> bool:
        """True when the fabric took no resilience action at all."""
        return not self.events

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        counters = {
            kind: self.count(kind)
            for kind in FABRIC_EVENT_KINDS
            if self.count(kind)
        }
        return {
            "healthy": self.healthy,
            "counters": counters,
            "events": [e.to_dict() for e in self.events],
        }

    def summary(self) -> str:
        if self.healthy:
            return "fabric healthy (no incidents)"
        parts = [
            f"{self.count(kind)} {kind}"
            for kind in FABRIC_EVENT_KINDS
            if self.count(kind)
        ]
        return "fabric incidents: " + ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunHealth({self.summary()})"

"""Flow-guard: fault-tolerant execution for the hierarchical CTS flow.

The subsystem wraps every stage of
:class:`repro.cts.framework.HierarchicalCTS` in typed failure handling
with graceful degradation:

* :mod:`repro.flowguard.fallback` — per-net router fallback chains with
  parameter backoff, the forced-median partition split, and the star
  topology of last resort;
* :mod:`repro.flowguard.checker` — DRC-style constraint checking
  (skew / cap / fanout / span) and bounded fix-and-recheck repair;
* :mod:`repro.flowguard.diagnostics` — the structured event log carried
  on ``CTSResult`` and rendered by ``repro.io.report``;
* :mod:`repro.flowguard.faults` — deterministic fault injection so the
  degradation paths above are testable.

This package intentionally imports nothing from :mod:`repro.cts` (it is
imported *by* the framework); constraint objects are passed in.
"""

from repro.flowguard.checker import (
    Violation,
    check_and_repair,
    check_tree,
    stage_fanouts,
)
from repro.flowguard.diagnostics import (
    DEGRADED_KINDS,
    FlowDiagnostics,
    FlowEvent,
)
from repro.flowguard.fallback import (
    BACKOFF_SCHEDULE,
    RouterFallbackChain,
    forced_median_split,
    star_topology,
)
from repro.flowguard.faults import FaultInjected, FaultInjector

__all__ = [
    "BACKOFF_SCHEDULE",
    "DEGRADED_KINDS",
    "FaultInjected",
    "FaultInjector",
    "FlowDiagnostics",
    "FlowEvent",
    "RouterFallbackChain",
    "Violation",
    "check_and_repair",
    "check_tree",
    "forced_median_split",
    "stage_fanouts",
    "star_topology",
]

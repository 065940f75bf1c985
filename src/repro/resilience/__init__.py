"""Resilience layer for the execution fabric.

The flow itself has been fault-tolerant since :mod:`repro.flowguard`
(every CTS stage degrades down to an unfailable star topology), but the
*fabric that runs it* — the process pools behind ``--jobs`` fan-out —
used to be brittle: a hung worker stalled a run forever, a broken pool
stayed broken for the rest of the run, and a task that crashed the pool
was re-fed to it with no memory of having done so.  This package holds
the pieces :class:`repro.parallel.WorkPool` composes into the
degradation ladder (docs/PARALLELISM.md, "Failure model"):

deadline → retry → resurrect → quarantine → in-process

* :class:`FabricPolicy` — the knobs: per-task wall-clock deadline,
  bounded immediate retries, pool-rebuild and quarantine budgets,
  shutdown grace;
* :class:`FabricChaos` — seeded, deterministic fault injection for the
  fabric itself (worker kills, task delays, unpicklable payloads), the
  chaos harness that exercises every rung of the ladder in tests/CI;
* :class:`RunHealth` — the wall-clock-free record of what the fabric
  absorbed during a run (timeouts, retries, resurrections,
  quarantines), attached to ``CTSResult`` and ``SweepReport``.

Nothing here may change *results*: quality outputs, store records and
sweep JSONL stay byte-identical under any interleaving of timeouts,
retries and resurrections, because every failure path ends in the same
computation running somewhere (a fresh worker or the parent process).
"""

from repro.resilience.chaos import FabricChaos, chaos_call
from repro.resilience.health import FABRIC_EVENT_KINDS, FabricEvent, RunHealth
from repro.resilience.policy import FabricPolicy

__all__ = [
    "FABRIC_EVENT_KINDS",
    "FabricChaos",
    "FabricEvent",
    "FabricPolicy",
    "RunHealth",
    "chaos_call",
]

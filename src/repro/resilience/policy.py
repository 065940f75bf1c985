"""The execution fabric's resilience knobs.

A :class:`FabricPolicy` bundles everything :class:`repro.parallel.
WorkPool` needs to decide how hard to fight for a task before running
it in-process: the per-task wall-clock deadline, the retry budget for
transient submission/payload failures, how many times a broken pool may
be rebuilt per run, how many pool breaks a single task may cause before
it is quarantined, and how long a shutdown waits before reaping worker
processes.  Retries are immediate: nothing wall-clock-dependent
decides when a task re-runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class FabricPolicy:
    """Deadline / retry / resurrection / quarantine budgets for a run."""

    #: Per-task wall-clock budget in seconds; ``0`` disables deadlines.
    #: On expiry the pool's workers are killed, the task degrades to
    #: in-process execution, and the run keeps its bound of
    #: ``(pool_rebuilds + 1) * task_timeout`` on pool-side stalls.
    task_timeout: float = 0.0
    #: Re-submissions allowed per task for transient payload failures
    #: (unpicklable payloads, failed submissions).  Worker-death retries
    #: are budgeted separately, by ``pool_rebuilds``: every pool break
    #: consumes a pool life, so they cannot loop unboundedly.
    task_retries: int = 1
    #: Times a broken pool may be rebuilt per run before the fabric
    #: gives up and routes everything in-process.
    pool_rebuilds: int = 2
    #: Pool breaks a single task may cause (confirmed in isolation
    #: rounds, or via deadline expiries) before it is quarantined —
    #: permanently routed in-process for the rest of the run.
    quarantine_after: int = 2
    #: Seconds a clean shutdown waits for workers to exit before
    #: terminating (then killing) them; bounds run-end latency and
    #: guarantees no orphaned children outlive the pool.
    shutdown_grace: float = 5.0

    def __post_init__(self) -> None:
        # an infinite wait overflows the platform's timeout type, and a
        # NaN one would silently disarm the deadline
        if not (math.isfinite(self.task_timeout) and self.task_timeout >= 0):
            raise ValueError(
                f"task_timeout must be finite and >= 0 (0 disables), "
                f"got {self.task_timeout}"
            )
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )
        if self.pool_rebuilds < 0:
            raise ValueError(
                f"pool_rebuilds must be >= 0, got {self.pool_rebuilds}"
            )
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )
        if not (math.isfinite(self.shutdown_grace)
                and self.shutdown_grace >= 0):
            raise ValueError(
                f"shutdown_grace must be finite and >= 0, "
                f"got {self.shutdown_grace}"
            )

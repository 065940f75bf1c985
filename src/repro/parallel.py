"""Process-pool parallel routing of cluster nets.

The hierarchical level loop (paper Fig. 3) is embarrassingly parallel
at its hottest point: each cluster net of a level routes, buffers,
constraint-checks and analyzes independently of its siblings — the only
cross-cluster coupling is the partition that produced the clusters
(computed before the fan-out) and the driver sinks fed to the *next*
level (collected after it).  :class:`ParallelRouter` exploits exactly
that window: it fans :meth:`repro.cts.framework.HierarchicalCTS.
_route_cluster` out over a process pool and hands the results back in
cluster-index order.

Determinism contract (the property ``tests/cts/test_parallel.py``
pins):

* every task is self-contained — a :class:`ClusterTask` carries the
  cluster's sinks and center, the net name and the level; the per-pool
  worker context (technology, buffer library, constraints, flow config)
  is installed once by the pool initializer;
* each worker routes its task with a **fresh**
  :class:`~repro.flowguard.diagnostics.FlowDiagnostics` and a fresh
  fallback chain, and snapshots its own ``METRICS``/``TRACER`` (reset
  per task), so nothing about a task's outcome depends on which worker
  ran it or on sibling tasks;
* the parent folds outcomes back **in cluster-index order** — subtree
  registration, next-level driver sinks, diagnostics events, metric
  snapshots and adopted spans all merge in the same order the serial
  loop would have produced them.

``jobs=1`` never constructs a pool: the framework keeps the original
serial loop, byte-identical to the pre-parallel flow.  The default,
auto (``jobs=0``), sizes the pool by :func:`usable_cpus` and lets each
level decide whether the process hop pays (docs/PARALLELISM.md).

Failure handling climbs the :mod:`repro.resilience` degradation ladder
(docs/PARALLELISM.md, "Failure model"):

    deadline → retry → resurrect → quarantine → in-process

A task that exceeds its wall-clock budget has its workers killed and
degrades to in-process execution; a transient failure (unpicklable
payload, failed submission) is retried on the policy's deterministic
backoff schedule; a broken pool is rebuilt — initializer re-run — up to
``pool_rebuilds`` times; a task that keeps breaking the pool (confirmed
by re-running suspects one at a time, so innocent co-runners are never
blamed) is quarantined in-process for the rest of the run.  Every rung
ends in the same computation running *somewhere*, so results stay
byte-identical however bumpy the run was; the bumps land in
``WorkPool.health`` (a :class:`~repro.resilience.RunHealth`) and the
``fabric.*`` metrics, never in results.

Worker-side observability rides home on the outcome: captured span
roots are re-parented under the parent's open ``level`` span via
:meth:`~repro.obs.tracer.Tracer.adopt` (stamped ``worker=<pid>``), and
the worker's metrics registry snapshot merges into the parent registry
via :meth:`~repro.obs.metrics.MetricsRegistry.merge_raw`.  See
docs/PARALLELISM.md for the full argument.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from dataclasses import dataclass, field

from repro.flowguard.diagnostics import FlowDiagnostics
from repro.netlist.sink import Sink
from repro.netlist.tree import RoutedTree
from repro.geometry import Point
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER, Span
from repro.partition.clustering import Cluster
from repro.resilience import FabricChaos, FabricPolicy, RunHealth, chaos_call
from repro.resilience.chaos import Unpicklable

_LOG = get_logger("parallel")


@dataclass(frozen=True, slots=True)
class ClusterTask:
    """One cluster net to route, as a picklable, self-contained payload."""

    index: int                 # cluster index within the level (merge key)
    name: str                  # net name, e.g. "L0_c3"
    level: int                 # hierarchy level
    sinks: tuple[Sink, ...]    # the cluster's sinks
    center: Point              # the partitioner's center for the cluster


@dataclass(slots=True)
class ClusterOutcome:
    """Everything a worker produced for one task."""

    index: int
    name: str
    driver: Sink               # next-level sink (the placed driver)
    tree: RoutedTree           # routed + buffered + repaired net tree
    buffers: int               # buffers added on this net (incl. driver)
    diagnostics: FlowDiagnostics  # task-local events + stage times
    metrics: dict | None = None  # MetricsRegistry.raw_snapshot() of the task
    spans: list[Span] = field(default_factory=list)  # captured roots
    worker: int = 0            # pid of the worker that ran the task


def usable_cpus() -> int:
    """CPUs this process may run on.

    The affinity mask where the platform has one, so ``taskset`` and
    cpuset-limited containers are honoured; the host's count otherwise.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_jobs(jobs: int) -> int:
    """Effective worker count: ``jobs >= 1`` verbatim, else usable CPUs."""
    if jobs >= 1:
        return jobs
    return usable_cpus()


# ----------------------------------------------------------------------
# Worker side (shared by every pool consumer)
# ----------------------------------------------------------------------
# Installed once per worker process by the pool initializer.  Under the
# preferred fork start method the context is inherited by memory image
# (no pickling); under spawn it must survive a pickle round-trip.
_WORKER: dict = {}

#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def init_worker(trace_enabled: bool, context=None) -> None:
    """Pool initializer of every fan-out: cluster routing, sweep points
    and served misses.

    ``context`` is the per-pool state tasks read back from ``_WORKER``
    (the engine, for cluster routing).
    """
    _obey_signals_and_parent()
    _WORKER["trace"] = trace_enabled
    _WORKER["context"] = context
    # a forked worker inherits the parent's collected spans/metrics;
    # they must not leak into (or double-count with) task snapshots
    TRACER.reset()
    TRACER.disable()
    METRICS.reset()
    # ordered update log: lets the parent replay this worker's metric
    # updates bit-exactly in serial task order (see metrics.merge_raw)
    METRICS.begin_event_log()


def _obey_signals_and_parent() -> None:
    """Give a worker a fresh interpreter's signal handling, and end it
    when its parent is gone.

    A worker forked under ``repro serve`` would otherwise keep the
    server's asyncio handlers, which only write the signal to the event
    loop's wakeup fd, shared with the server: a ``kill`` would leave the
    worker running and wake the server's loop instead.  A worker whose
    parent dies by SIGKILL would block on the task queue for good, as
    the workers' own inherited copies keep the queue's pipe open, so a
    daemon thread polls the parent pid.  ``PR_SET_PDEATHSIG`` would not do: it fires
    when the forking *thread* exits, and the server forks from
    ``asyncio.to_thread`` threads.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.set_wakeup_fd(-1)
    parent = multiprocessing.parent_process().pid

    def exit_with_parent() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)     # no one is left to take this worker's results

    threading.Thread(target=exit_with_parent, name="parent-watch",
                     daemon=True).start()


def run_captured(fn, task):
    """Run ``fn(task)`` in a worker against task-local metrics and spans.

    ``fn`` returns an outcome with ``metrics``, ``spans`` and ``worker``
    fields; they are filled here with the task's registry snapshot, its
    captured span roots and this worker's pid — everything the parent
    merges back in task order.  Resetting per task keeps an outcome
    independent of which worker ran it and of the tasks before it.
    """
    trace = _WORKER.get("trace", False)
    METRICS.reset()
    TRACER.reset()
    TRACER.enabled = trace
    try:
        outcome = fn(task)
    finally:
        TRACER.enabled = False
    outcome.metrics = METRICS.raw_snapshot()
    outcome.spans = list(TRACER.roots) if trace else []
    outcome.worker = os.getpid()
    return outcome


def _route_cluster_task(task: ClusterTask) -> ClusterOutcome:
    """Mirror one iteration of the serial loop in
    ``HierarchicalCTS._run_level`` exactly — same engine code, same
    ``cluster`` span — against a task-local diagnostics object."""
    engine = _WORKER["context"]
    diag = FlowDiagnostics()
    chain = engine.build_chain(diag)
    cluster = Cluster(list(task.sinks), task.center)
    with TRACER.span("cluster", net=task.name, sinks=cluster.size):
        driver, tree, nbuf = engine._route_cluster(
            task.name, cluster, task.level, chain, diag
        )
    return ClusterOutcome(
        index=task.index,
        name=task.name,
        driver=driver,
        tree=tree,
        buffers=nbuf,
        diagnostics=diag,
    )


def _run_cluster_task(task: ClusterTask) -> ClusterOutcome:
    """Route one cluster net inside a worker process."""
    return run_captured(_route_cluster_task, task)


def _tracked_call(sentinel_dir: str, token: str, fn, task, mode, arg):
    """Run one task in a worker, under the started-task ledger.

    The sentinel file exists exactly while the task is *executing* in a
    worker: created before the call, removed on any normal completion
    (including an ordinary exception, which leaves the worker alive).
    A sentinel that survives a pool break therefore marks a task whose
    execution the break interrupted — the parent's blame evidence for
    the quarantine ladder.  A chaos ``kill`` exits before the cleanup
    runs, exactly like a real segfault/OOM-kill would.
    """
    path = os.path.join(sentinel_dir, token)
    try:
        with open(path, "w"):
            pass
    except OSError:  # ledger unavailable: run anyway, blame-blind
        path = None
    try:
        if mode is not None:
            return chaos_call(fn, task, mode, arg)
        return fn(task)
    finally:
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkPool:
    """A lazily-created process pool with per-task degradation.

    The generic fan-out substrate shared by :class:`ParallelRouter`
    (per-cluster routing) and :mod:`repro.sweep` (per-point sweep
    execution).  Tasks must be picklable and the mapped function a
    module-level callable; the worker context, if any, is installed by
    ``initializer``.  Every failure mode degrades per task rather than
    aborting — a ``None`` result means the caller runs that task
    in-process — after climbing the resilience ladder ``policy``
    budgets: deadline, bounded retry, pool resurrection, quarantine.

    ``health`` collects every resilience action taken;
    ``last_failure_reasons`` maps task index → ``(code, detail)`` for
    the most recent :meth:`map` call so callers can attribute each
    degradation (``"timeout"`` vs ``"fault"`` vs ``"quarantine"`` ...).
    ``chaos``, when set, injects deterministic seeded faults into
    submissions — the test/CI harness for all of the above.

    The executor is created lazily on the first batch, so constructing
    a pool that never sees work costs nothing; ``fork`` is preferred
    when available (the initializer context then rides the memory
    image instead of a pickle round-trip).  :meth:`shutdown` is final
    and may come from another thread while a :meth:`map` is running.
    """

    def __init__(
        self,
        jobs: int,
        initializer=None,
        initargs: tuple = (),
        policy: FabricPolicy | None = None,
        chaos: FabricChaos | None = None,
        health: RunHealth | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else FabricPolicy()
        self.chaos = chaos
        self.health = health if health is not None else RunHealth()
        self.last_failure_reasons: dict[int, tuple[str, str]] = {}
        self._initializer = initializer
        self._initargs = initargs
        self._executor: ProcessPoolExecutor | None = None
        # guards executor construction against a concurrent shutdown
        self._lifecycle = threading.Lock()
        self._closed = False           # shutdown() ran; never build again
        self._dead = False
        self._built = False            # first construction happened
        self._rebuilds_used = 0
        self._strikes: dict[str, int] = {}     # label -> pool-break count
        self._quarantined: set[str] = set()    # labels routed in-process
        self._sentinel_dir: str | None = None
        self._token_counter = 0

    # -- lifecycle ------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        # atomic against shutdown(): a concurrent close either tears
        # down the executor built here or stops it being built at all
        with self._lifecycle:
            return self._current_executor()

    def _current_executor(self) -> ProcessPoolExecutor | None:
        if self._closed or self._dead:
            return None
        if self._executor is not None:
            return self._executor
        rebuilding = self._built
        if rebuilding:
            if self._rebuilds_used >= self.policy.pool_rebuilds:
                self._dead = True
                METRICS.inc("fabric.pool.lost")
                self.health.record(
                    "pool_lost",
                    detail=(f"rebuild budget "
                            f"({self.policy.pool_rebuilds}) exhausted; "
                            f"remaining tasks run in-process"),
                )
                _LOG.warning("pool rebuild budget (%d) exhausted; "
                             "running everything in-process",
                             self.policy.pool_rebuilds)
                return None
            self._rebuilds_used += 1
        try:
            if self._sentinel_dir is None:
                self._sentinel_dir = tempfile.mkdtemp(prefix="repro-fabric-")
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=self._initializer,
                initargs=self._initargs,
            )
        except Exception as exc:  # noqa: BLE001 — degrade, don't abort
            _LOG.warning("process pool unavailable (%s); "
                         "falling back to in-process execution", exc)
            self._dead = True
            return None
        self._built = True
        if rebuilding:
            METRICS.inc("fabric.pool.resurrected")
            self.health.record(
                "resurrect", attempt=self._rebuilds_used,
                detail=(f"broken pool rebuilt "
                        f"({self._rebuilds_used}/"
                        f"{self.policy.pool_rebuilds}); initializer re-run"),
            )
            _LOG.warning("broken process pool rebuilt (%d/%d)",
                         self._rebuilds_used, self.policy.pool_rebuilds)
        return self._executor

    def _kill_workers(self) -> None:
        """Hard-kill every live worker (deadline enforcement)."""
        executor = self._executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # noqa: BLE001 — already gone
                pass

    def _teardown_executor(self) -> None:
        """Drop the current executor and reap its workers (bounded)."""
        with self._lifecycle:   # one reaper when shutdown() races a break
            executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values())
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — broken pools may throw here
            pass
        self._reap(procs)

    def _reap(self, procs) -> None:
        """Join workers within ``shutdown_grace``; terminate, then kill.

        Guarantees no orphaned children outlive the pool while bounding
        run-end latency — the fix for the old ``shutdown(wait=False)``
        leak.
        """
        deadline = time.monotonic() + self.policy.shutdown_grace
        for proc in procs:
            if proc.is_alive():
                proc.join(max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in procs if p.is_alive()]
        for proc in stragglers:
            proc.terminate()
        for proc in stragglers:
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)

    def shutdown(self) -> None:
        """Close the pool for good and reap its workers.

        A closed pool never builds or rebuilds an executor: a
        :meth:`map` still running on another thread gets its queued
        and in-flight tasks back as ``None`` with reason ``"closed"``,
        rather than reading the killed workers as a pool break and
        re-running them on a fresh pool nobody will stop.
        """
        with self._lifecycle:
            self._closed = True
        self._teardown_executor()
        if self._sentinel_dir is not None:
            shutil.rmtree(self._sentinel_dir, ignore_errors=True)
            self._sentinel_dir = None

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    # -- ledger ---------------------------------------------------------
    def _next_token(self) -> str:
        self._token_counter += 1
        return f"t{self._token_counter}"

    def _had_started(self, token: str) -> bool:
        if self._sentinel_dir is None:
            return False
        return os.path.exists(os.path.join(self._sentinel_dir, token))

    def _drop_sentinel(self, token: str) -> None:
        if self._sentinel_dir is None:
            return
        try:
            os.unlink(os.path.join(self._sentinel_dir, token))
        except OSError:
            pass

    # -- bookkeeping ----------------------------------------------------
    def _abandon(self, indices) -> None:
        """Tasks ``indices`` end unrun because the pool was shut down."""
        for i in indices:
            self.last_failure_reasons[i] = (
                "closed", "the pool was shut down before the task finished")

    def _degrade(self, index: int, label: str, code: str,
                 detail: str) -> None:
        """Task ``index`` falls off the ladder: caller runs it in-process."""
        self.last_failure_reasons[index] = (code, detail)
        METRICS.inc("fabric.task.degraded")
        self.health.record("degraded", task=label, detail=detail)

    def _strike(self, label: str, convict: bool = True) -> bool:
        """One pool-break/timeout strike; True once ``label`` is poison.

        With ``convict`` false the strike only counts: the task shared
        the break with other started tasks, so it cannot be blamed yet.
        """
        self._strikes[label] = self._strikes.get(label, 0) + 1
        if (convict
                and self._strikes[label] >= self.policy.quarantine_after
                and label not in self._quarantined):
            self._quarantined.add(label)
            METRICS.inc("fabric.task.quarantined")
            self.health.record(
                "quarantine", task=label,
                detail=(f"broke the pool {self._strikes[label]} time(s); "
                        f"routed in-process for the rest of the run"),
            )
            _LOG.warning("task %s quarantined after %d pool break(s)",
                         label, self._strikes[label])
        return label in self._quarantined

    # -- mapping --------------------------------------------------------
    def run_one(self, fn, task, describe=str, timeout: float | None = None):
        """Run a single task; the serve layer's submission hook.

        A thin :meth:`map` of one that keeps the whole resilience
        ladder (deadline, retry, resurrect, quarantine) per submission.
        ``timeout`` overrides the policy's ``task_timeout`` for this
        call only — how :mod:`repro.serve` rides a *per-request*
        deadline on the shared ladder.  Returns the result, or ``None``
        when the task fell off the ladder (``last_failure_reasons[0]``
        says why).
        """
        return self.map(fn, [task], describe=describe, timeout=timeout)[0]

    def map(self, fn, tasks: list, describe=str,
            timeout: float | None = None) -> list:
        """Run ``fn`` over ``tasks``; returns results aligned to tasks.

        A ``None`` entry means that task fell off the resilience ladder
        (deadline expiry, exhausted retries, quarantine, lost pool) and
        the caller must run it in-process — the per-task degradation
        contract both the framework and the sweep runner rely on — or,
        with reason ``"closed"``, that :meth:`shutdown` stopped it.
        ``describe(task)`` labels failure logs, health events and the
        quarantine ledger; ``last_failure_reasons`` explains each
        ``None`` until the next ``map`` call.  ``timeout``, when given,
        overrides ``policy.task_timeout`` for this call (0 disarms the
        deadline; ``None`` keeps the policy's value).
        """
        results: list = [None] * len(tasks)
        self.last_failure_reasons = {}
        if not tasks:
            return results
        labels = [describe(t) for t in tasks]
        queue: list[int] = []
        for i, label in enumerate(labels):
            if label in self._quarantined:
                self._degrade(i, label, "quarantine",
                              "task is quarantined; running in-process")
            else:
                queue.append(i)
        transient = {i: 0 for i in queue}   # transient-retry budget used
        isolation: set[int] = set()         # suspects: run one at a time
        drawn: set[int] = set()             # chaos draw consumed

        while queue:
            executor = self._ensure_executor()
            if executor is None:
                if self._closed:
                    self._abandon(queue)
                    break
                for i in queue:
                    self._degrade(i, labels[i], "pool_lost",
                                  "no usable process pool; "
                                  "running in-process")
                break
            suspects = [i for i in queue if i in isolation]
            batch = [suspects[0]] if suspects else list(queue)
            submitted: dict[int, tuple] = {}   # index -> (future, token)
            for i in batch:
                mode, arg = None, 0.0
                if self.chaos is not None and i not in drawn:
                    drawn.add(i)
                    fault = self.chaos.draw()
                    if fault is not None:
                        mode, arg = fault
                        _LOG.warning("chaos: injecting %r into %s",
                                     mode, labels[i])
                payload = tasks[i]
                if mode == "corrupt":
                    payload, mode = Unpicklable(payload), None
                token = self._next_token()
                try:
                    future = executor.submit(
                        _tracked_call, self._sentinel_dir, token,
                        fn, payload, mode, arg,
                    )
                except Exception as exc:  # noqa: BLE001 — pool broke
                    _LOG.warning("task submission failed (%s); "
                                 "rebuilding the pool", exc)
                    break
                submitted[i] = (future, token)
            queue = [i for i in queue if i not in submitted]
            if not submitted:
                # the very first submission failed: the pool is gone;
                # tearing it down costs a rebuild life, which bounds
                # this loop by the policy's resurrection budget
                self._teardown_executor()
                continue
            requeue = self._collect(submitted, labels, transient,
                                    isolation, results, timeout)
            queue = sorted(set(queue) | set(requeue))
        return results

    def _collect(
        self,
        submitted: dict[int, tuple],
        labels: list[str],
        transient: dict[int, int],
        isolation: set[int],
        results: list,
        timeout_override: float | None = None,
    ) -> list[int]:
        """Resolve one submitted batch; returns indices to re-queue.

        Futures resolve in submission order.  With a deadline armed,
        each future gets up to ``task_timeout`` seconds *from the
        moment the parent starts waiting on it* — a conservative
        per-task budget (waits overlap siblings' execution, so nothing
        is killed early) whose worst-case stall per hung chain is one
        budget, because an expiry kills the pool and costs a
        resurrection life.  Tasks a pool break interrupted are judged
        together once the broken pool's workers are reaped (see
        :meth:`_resolve_break`).
        """
        timeout = self.policy.task_timeout if timeout_override is None \
            else timeout_override
        requeue: list[int] = []
        killed_by_deadline = False
        broke = False
        victims: list[tuple[int, str]] = []   # (index, token) of a break
        for i in sorted(submitted):
            future, token = submitted[i]
            label = labels[i]
            if timeout > 0 and not future.done():
                done, _ = futures_wait([future], timeout=timeout)
                if not done:
                    METRICS.inc("fabric.task.timeout")
                    self.health.record(
                        "timeout", task=label,
                        detail=(f"exceeded the {timeout:g}s wall-clock "
                                f"budget; workers killed"),
                    )
                    _LOG.warning("task %s exceeded its %gs deadline; "
                                 "killing workers and running it "
                                 "in-process", label, timeout)
                    self._strike(label)
                    self._degrade(
                        i, label, "timeout",
                        f"task exceeded its {timeout:g}s deadline; "
                        f"ran in-process",
                    )
                    self._drop_sentinel(token)
                    self._kill_workers()
                    killed_by_deadline = True
                    broke = True
                    continue
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 — classified below
                if self._closed:
                    # shutdown() killed the worker: not the task's fault,
                    # and nothing may run it again on this pool
                    self._abandon([i])
                elif _pool_is_broken(exc):
                    broke = True
                    victims.append((i, token))
                else:
                    self._resolve_failure(i, label, token, exc, transient,
                                          requeue)
            else:
                results[i] = result
                self._drop_sentinel(token)
        if broke:
            self._teardown_executor()
        if victims:
            self._resolve_break(victims, labels, isolation, requeue,
                                killed_by_deadline)
        return requeue

    def _resolve_break(
        self,
        victims: list[tuple[int, str]],
        labels: list[str],
        isolation: set[int],
        requeue: list[int],
        killed_by_deadline: bool,
    ) -> None:
        """Judge the tasks a pool break took down; the pool is reaped.

        A task whose sentinel survived had started and not finished,
        and takes a strike.  Only a task that was the *only* one
        started when the pool broke can be quarantined — always the
        case for an isolation re-run — so an innocent co-runner is
        never convicted alongside the poison task.  When several had
        started, each re-runs alone and the solo runs find the
        culprit, whose strike from the shared break still counts
        toward ``quarantine_after``.
        """
        started = set() if killed_by_deadline else {
            i for i, token in victims if self._had_started(token)
        }
        for i, token in victims:
            self._drop_sentinel(token)
            label = labels[i]
            if i not in started:
                # collateral damage of a deadline kill, or never even
                # started: presumed innocent, re-queued for free (the
                # break itself already cost a resurrection life)
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label,
                    detail="re-queued after a pool break it did not cause",
                )
                requeue.append(i)
            elif self._strike(label, convict=len(started) == 1):
                self._degrade(i, label, "quarantine",
                              "task broke the pool repeatedly; "
                              "quarantined and ran in-process")
            else:
                isolation.add(i)
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label, attempt=self._strikes.get(label, 0),
                    detail="suspected of breaking the pool; "
                           "re-queued in isolation",
                )
                requeue.append(i)

    def _resolve_failure(
        self,
        i: int,
        label: str,
        token: str,
        exc: Exception,
        transient: dict[int, int],
        requeue: list[int],
    ) -> None:
        """Classify one failed future that did not break the pool."""
        self._drop_sentinel(token)
        if isinstance(exc, pickle.PicklingError):
            transient[i] = transient.get(i, 0) + 1
            if transient[i] <= self.policy.task_retries:
                METRICS.inc("fabric.task.retry")
                self.health.record(
                    "retry", task=label, attempt=transient[i],
                    detail=f"transient submission failure ({exc}); "
                           f"re-submitting",
                )
                backoff = self.policy.backoff(transient[i])
                if backoff > 0:
                    time.sleep(backoff)
                requeue.append(i)
            else:
                self._degrade(
                    i, label, "fault",
                    f"submission kept failing "
                    f"({exc.__class__.__name__}: {exc}); ran in-process",
                )
        else:
            _LOG.warning("worker failed on %s (%s: %s)",
                         label, exc.__class__.__name__, exc)
            self._degrade(
                i, label, "fault",
                f"worker failed ({exc.__class__.__name__}: {exc}); "
                f"ran in-process",
            )


class ParallelRouter:
    """A per-run process pool that routes cluster tasks.

    Created by :class:`~repro.cts.framework.HierarchicalCTS` when the
    run resolves to more than one worker, and shut down when the run
    ends; the pool (and its forked worker context) is reused across all
    levels of the run.  A thin cluster-shaped wrapper over
    :class:`WorkPool` that passes the flow's
    :class:`~repro.resilience.FabricPolicy` and, for chaos runs, a
    :class:`~repro.resilience.FabricChaos` through.
    """

    def __init__(
        self,
        engine,
        jobs: int,
        trace_enabled: bool | None = None,
        policy: FabricPolicy | None = None,
        chaos: FabricChaos | None = None,
    ):
        trace = TRACER.enabled if trace_enabled is None else trace_enabled
        self._pool = WorkPool(
            jobs, initializer=init_worker, initargs=(trace, engine),
            policy=policy, chaos=chaos,
        )
        self.jobs = self._pool.jobs

    @property
    def health(self) -> RunHealth:
        return self._pool.health

    @property
    def last_failure_reasons(self) -> dict[int, tuple[str, str]]:
        return self._pool.last_failure_reasons

    def shutdown(self) -> None:
        self._pool.shutdown()

    def __enter__(self) -> "ParallelRouter":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False

    def route_clusters(
        self, tasks: list[ClusterTask]
    ) -> list[ClusterOutcome | None]:
        """Route ``tasks``; returns outcomes aligned with ``tasks``.

        A ``None`` entry means that task fell off the resilience ladder
        and the caller must route it serially;
        ``last_failure_reasons`` says why.
        """
        return self._pool.map(
            _run_cluster_task, tasks, describe=lambda t: f"net {t.name}"
        )


def _pool_is_broken(exc: Exception) -> bool:
    """True when the exception means the whole pool is unusable."""
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(exc, BrokenProcessPool)

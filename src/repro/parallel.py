"""The process pools behind every ``--jobs`` fan-out.

Four consumers hand independent, picklable tasks to a
:class:`WorkPool`: the hierarchical level loop (one cluster net per
task, paper Fig. 3), :func:`repro.sweep.run_sweep` (one sweep point),
:mod:`repro.serve` (one served miss) and :func:`repro.predict.
extract_dataset` (one design's features).  This module alone decides
how a task runs in a worker and how its observability comes home; a
consumer supplies only a module-level function, its tasks, and what to
do with a task the pool gives back.

Worker start-up is the same for every pool (:func:`_boot_worker`): the
worker closes the sockets it inherited, restores a fresh interpreter's
signal handling, starts watching for its parent's death, installs the
pool's ``context`` (read back with :func:`worker_context`), and resets
the ``METRICS``/``TRACER`` singletons it inherited, so nothing the
parent had collected leaks into (or double-counts with) a task's
snapshot.

Determinism contract (docs/PARALLELISM.md):

* each task runs against freshly reset metrics and spans, so its
  outcome does not depend on which worker ran it or on the tasks
  before it;
* :meth:`WorkPool.map` returns results in task order and replays each
  task's metric updates and span roots into the parent in that order —
  metrics through :meth:`~repro.obs.metrics.MetricsRegistry.merge_raw`,
  bit-exact against a serial fold, and spans through
  :meth:`~repro.obs.tracer.Tracer.adopt` under the caller's open span,
  stamped ``worker=<pid>``;
* a task that fell off the resilience ladder runs in the parent, in
  its own slot of that order, so results stay byte-identical however
  bumpy the run was.

Failure handling climbs the :mod:`repro.resilience` degradation ladder
(docs/PARALLELISM.md, "Failure model"):

    deadline → retry → resurrect → quarantine → in-process

A task that exceeds its wall-clock budget has its workers killed and
degrades to in-process execution; a transient failure (unpicklable
payload, failed submission) is re-submitted; a broken pool is rebuilt —
workers booted again — up to ``pool_rebuilds`` times; a task that keeps
breaking the pool (confirmed by re-running suspects one at a time, so
innocent co-runners are never blamed) is quarantined in-process for the
rest of the run.  The bumps land in ``WorkPool.health`` (a
:class:`~repro.resilience.RunHealth`) and the ``fabric.*`` metrics,
never in results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal
import stat
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.resilience import FabricChaos, FabricPolicy, RunHealth, chaos_call
from repro.resilience.chaos import Unpicklable

_LOG = get_logger("parallel")


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
# Worker side
# ----------------------------------------------------------------------
# Installed once per worker process at boot.  Under the preferred fork
# start method the context is inherited by memory image (no pickling);
# under spawn it must survive a pickle round-trip.
_WORKER: dict = {}

#: Seconds between a worker's checks that its parent is still alive.
_PARENT_POLL_S = 0.5


def worker_context():
    """The ``context`` of the pool whose worker is running this task
    (None outside a pool worker)."""
    return _WORKER.get("context")


def _boot_worker(trace: bool, context) -> None:
    """Start-up of every pool worker (the executor's initializer)."""
    _close_inherited_sockets()
    _obey_signals_and_parent()
    _WORKER["trace"] = trace
    _WORKER["context"] = context
    # a forked worker inherits the parent's collected spans/metrics;
    # they must not leak into (or double-count with) task snapshots
    TRACER.reset()
    TRACER.disable()
    METRICS.reset()
    # ordered update log: lets the parent replay this worker's metric
    # updates bit-exactly in serial task order (see metrics.merge_raw)
    METRICS.begin_event_log()


def _close_inherited_sockets() -> None:
    """Close every socket fd a freshly forked worker inherited.

    A worker forked under ``repro serve`` inherits the listening socket
    and every accepted connection, so a client waiting for EOF after
    ``Connection: close`` would hang on the worker's copy of its fd,
    and fds would leak across worker generations.  A pool's own
    plumbing (fork context) is pipes and semaphores, never sockets, so
    closing every socket is safe in any pool.  Best-effort: without
    /proc (non-Linux) it does nothing — responses carry
    Content-Length, so spec-following clients never depend on EOF.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except (OSError, ValueError):
        return
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


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


def _tracked_call(sentinel_dir: str, token: str, fn, task, mode, arg):
    """Run one task in a worker, under the started-task ledger.

    Returns ``(result, metrics, spans, pid)``: the task's result, its
    :meth:`~repro.obs.metrics.MetricsRegistry.raw_snapshot`, its
    captured span roots and this worker's pid — everything the parent
    replays in task order.

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
    trace = _WORKER["trace"]
    METRICS.reset()
    TRACER.reset()
    TRACER.enabled = trace
    try:
        if mode is not None:
            result = chaos_call(fn, task, mode, arg)
        else:
            result = fn(task)
        return (result, METRICS.raw_snapshot(),
                list(TRACER.roots) if trace else [], os.getpid())
    finally:
        TRACER.enabled = False
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

    The one fan-out substrate of the repo: cluster routing, sweep
    points, served misses and design features all run through it.
    Tasks must be picklable and the mapped function a module-level
    callable; ``context``, if any, is installed in every worker at boot
    and read back there with :func:`worker_context`.  Every failure
    mode degrades per task rather than aborting: after climbing the
    resilience ladder ``policy`` budgets (deadline, bounded retry, pool
    resurrection, quarantine) the task runs in the parent, through the
    ``fallback`` given to :meth:`map`.

    ``health`` collects every resilience action taken;
    ``last_failure_reasons`` maps task index → ``(code, detail)`` for
    the most recent :meth:`map` call (``"timeout"`` vs ``"fault"`` vs
    ``"quarantine"`` ...).  ``chaos``, when set, injects deterministic
    seeded faults into submissions — the test/CI harness for all of the
    above.  Whether workers capture spans is fixed when the pool is
    built, from ``TRACER.enabled``.

    The executor is created lazily on the first batch, so constructing
    a pool that never sees work costs nothing; ``fork`` is preferred
    when available (the context then rides the memory image instead of
    a pickle round-trip).  :meth:`shutdown` is final and may come from
    another thread while a :meth:`map` is running.
    """

    def __init__(
        self,
        jobs: int,
        context=None,
        policy: FabricPolicy | None = None,
        chaos: FabricChaos | None = None,
        health: RunHealth | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.policy = policy if policy is not None else FabricPolicy()
        self.chaos = chaos
        self.health = health if health is not None else RunHealth()
        self.last_failure_reasons: dict[int, tuple[str, str]] = {}
        self._boot_args = (TRACER.enabled, context)
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
                initializer=_boot_worker,
                initargs=self._boot_args,
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
                        f"{self.policy.pool_rebuilds}); workers re-booted"),
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
    def map(self, fn, tasks: list, describe=str, fallback=None,
            timeout: float | None = None) -> list:
        """Run ``fn`` over ``tasks``; returns results in task order.

        Each task's metric updates and span roots come home with its
        result and are replayed into the parent in task order (spans
        under the caller's open span, stamped ``worker=<pid>``), so the
        parent's registry and trace read as if the tasks had run here
        one after another.  A task that fell off the resilience ladder
        (deadline expiry, exhausted retries, quarantine, lost pool, or
        ``"closed"`` when :meth:`shutdown` stopped it) runs in its own
        slot of that order as ``fallback(task, code, detail)``; the
        default fallback is ``fn(task)`` in the parent.
        ``describe(task)`` labels failure logs, health events and the
        quarantine ledger; ``last_failure_reasons`` keeps each
        fallback's ``(code, detail)`` until the next call.  ``timeout``,
        when given, overrides ``policy.task_timeout`` for this call (0
        disarms the deadline; ``None`` keeps the policy's value).
        """
        shipped = self._run(fn, tasks, describe, timeout)
        results = []
        for i, (task, item) in enumerate(zip(tasks, shipped)):
            if item is None:
                code, detail = self.last_failure_reasons[i]
                results.append(fn(task) if fallback is None
                               else fallback(task, code, detail))
                continue
            result, metrics, spans, worker = item
            METRICS.merge_raw(metrics)
            if TRACER.enabled and spans:
                TRACER.adopt(spans, tid=worker, worker=worker)
            results.append(result)
        return results

    def _run(self, fn, tasks: list, describe,
             timeout: float | None) -> list:
        """Climb the ladder for ``tasks``; returns what each worker
        shipped home, aligned to tasks, or ``None`` where the task fell
        off (``last_failure_reasons`` says why)."""
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
                elif isinstance(exc, BrokenProcessPool):
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

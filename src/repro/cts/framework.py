"""The hierarchical CTS level loop (paper Fig. 3), flow-guarded.

``HierarchicalCTS.run(sinks, source)`` drives levels bottom-up:

1. **Partition** — balanced K-means with capacity = max_fanout (splitting
   further while any cluster violates the cap constraint; a level of
   several spatial blocks k-means them in the run's worker pool),
   optionally refined by the Fig. 4 simulated annealing;
2. **Routing topology generation** — one net per cluster, rooted at the
   cluster tap, routed by CBS (default; pluggable to plain BST / SALT /
   RSMT for the Section 3.3 trade-offs);
3. **Buffering** — a driver buffer at each tap, sized by load; over-long
   edges get repeater chains.  The driver becomes a sink of the next
   level, carrying either the Eq. (7) insertion-delay lower bound (the
   paper's method, default) or the exact Eq. (6) delay as its
   ``subtree_delay``.

The loop ends when the surviving taps fit one net from the clock source
within both ``max_fanout`` and ``max_cap`` (estimated as for a cluster);
cluster trees are then grafted into their parent nets to form the final
routed tree, which :func:`repro.cts.evaluation.evaluate_solution` scores.

Every stage is wrapped by the :mod:`repro.flowguard` subsystem: routing
runs through a :class:`~repro.flowguard.fallback.RouterFallbackChain`
(parameter backoff, then CBS → BST-DME → SALT → star degradation), each
net is constraint-checked and repaired in place with a bounded budget,
a partition that fails or does not reduce the sink count falls back to
the forced median split, and every incident lands in the
:class:`~repro.flowguard.diagnostics.FlowDiagnostics` carried on
:class:`CTSResult`.  The only exception ``run`` raises is the
empty-input ``ValueError``; everything else degrades and reports.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Callable

from repro.buffering.estimation import insertion_delay_estimate
from repro.buffering.insertion import place_driver, split_long_edges
from repro.cts.constraints import Constraints, TABLE5
from repro.dme.models import ElmoreDelay
from repro.dme.topology import TOPOLOGY_GENERATORS
from repro.flowguard.checker import check_and_repair
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.flowguard.fallback import (
    RouterFallbackChain,
    forced_median_split,
    star_topology,
)
from repro.geometry import Point, manhattan_center
from repro.netlist.net import ClockNet
from repro.obs.clock import now
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.netlist.sink import Sink
from repro.netlist.tree import RoutedTree
from repro.parallel import WorkPool, resolve_jobs, worker_context
from repro.resilience import FabricChaos, FabricPolicy, RunHealth
from repro.reuse import PARTITION, StageReuse, exact_key
from repro.partition.annealing import SAConfig, anneal_partition, total_cost
from repro.partition.clustering import Cluster, cluster_cap
from repro.partition.kmeans import balanced_kmeans
from repro.tech.buffer_library import BufferLibrary, default_library
from repro.tech.technology import Technology
from repro.timing.elmore import TimingReport

_LOG = get_logger("cts")

#: Bumped when the meaning of a :class:`FlowConfig` field changes in a
#: way that invalidates previously computed digests (a renamed knob, a
#: changed default semantic).  Part of every sweep-store cache key.
#: v2: execution-fabric fields left the canonical form (they have since
#: left the config for :class:`HierarchicalCTS` arguments).
CONFIG_SCHEMA_VERSION = 2

#: Fields that hold callables: pluggable, but not serialisable — a
#: config carrying one cannot round-trip through ``to_dict`` and has no
#: canonical digest.
_CALLABLE_FIELDS = ("router",)


def finite_float(name: str, value) -> float:
    """``value`` as a float; ``ValueError`` naming ``name`` unless it is
    a finite int or float (a bool is not a number here)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # an int beyond the float range
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{name!r} must be a finite number, got {value!r}")


def _knob_value(name: str, kind: str, value):
    """``value`` checked and normalised for the FlowConfig field ``name``
    of annotated type ``kind``."""
    if kind == "float":
        return finite_float(name, value)
    if kind == "int":
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    if kind == "bool":
        if isinstance(value, bool):
            return value
        raise ValueError(f"{name!r} must be a boolean, got {value!r}")
    if name == "topology" and not (isinstance(value, str)
                                   and value in TOPOLOGY_GENERATORS):
        raise ValueError(f"unknown topology {value!r}; "
                         f"choices: {sorted(TOPOLOGY_GENERATORS)}")
    return value


@dataclass(slots=True)
class FlowConfig:
    """Knobs of the hierarchical flow: what it computes, never where it
    runs (worker count and resilience budgets are
    :class:`HierarchicalCTS` arguments).

    Every scalar knob is checked and normalised on construction, however
    the config is built: a bool, non-number or non-finite value for a
    float knob, a non-integral one for an int knob, a non-bool for a
    bool knob, a ``topology`` that names no generator and a negative
    ``eps``, ``seed``, ``sa_iterations``, ``repair_budget`` or
    ``source_slew`` all raise ``ValueError`` naming the field.  Integral
    spellings normalise (``0`` is ``0.0`` for a float knob, ``200.0`` is
    ``200`` for an int one), so equal knobs give equal configs and equal
    digests.
    """

    topology: str = "greedy_dist"     # CBS Step 1 merge scheme
    eps: float = 0.3                  # CBS Step 3 relaxation
    use_sa: bool = True               # Fig. 4 refinement on/off (ablation)
    sa_iterations: int = 200
    use_insertion_estimate: bool = True  # Eq. (7) vs exact Eq. (6)
    seed: int = 0
    source_slew: float = 10.0         # ps at the clock source
    # pluggable per-net router: (net, skew_bound_ps, model) -> RoutedTree
    router: Callable | None = None
    # constraint-repair passes per net before violations become residual
    repair_budget: int = 2

    def __post_init__(self) -> None:
        for name, kind in _KNOB_FIELDS:
            setattr(self, name, _knob_value(name, kind, getattr(self, name)))
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name!r} must be >= 0, got {value!r}")

    # ------------------------------------------------------------------
    # Canonical serialisation (the sweep store's cache-key substrate)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical, JSON-ready form of this config.

        Every scalar knob appears under its field name with the type
        construction normalised it to, so two configs that compare
        equal serialise to identical dicts.  A config carrying a
        pluggable ``router`` is not serialisable and raises
        ``ValueError``.
        """
        for name in _CALLABLE_FIELDS:
            if getattr(self, name) is not None:
                raise ValueError(
                    f"FlowConfig.{name} holds a callable and cannot be "
                    f"serialised; clear it before to_dict()/digest()"
                )
        return {name: getattr(self, name) for name, _ in _KNOB_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "FlowConfig":
        """Rebuild a config from :meth:`to_dict` output (strict).

        Unknown keys raise ``ValueError`` — a sweep spec naming a knob
        that does not exist must fail loudly, not silently run the
        defaults.  Values are checked as on any construction, so
        ``from_dict(d).to_dict() == d`` for any canonical ``d``.
        """
        unknown = sorted(set(data) - set(FLOW_KNOBS))
        if unknown:
            raise ValueError(
                f"unknown FlowConfig field(s) {unknown}; "
                f"known fields: {sorted(FLOW_KNOBS)}"
            )
        return cls(**data)

    def digest(self) -> str:
        """Stable content hash of the canonical form (hex sha256).

        Includes :data:`CONFIG_SCHEMA_VERSION` so a semantic change to
        any knob invalidates every previously stored digest.
        """
        payload = json.dumps(
            {"schema": CONFIG_SCHEMA_VERSION, "config": self.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: (name, annotated type) of each serialisable :class:`FlowConfig` knob
#: in field order, read once here rather than from ``fields()`` on every
#: construction and serialisation.
_KNOB_FIELDS = tuple((f.name, f.type) for f in fields(FlowConfig)
                     if f.name not in _CALLABLE_FIELDS)

#: Names of the serialisable :class:`FlowConfig` knobs, in field order.
FLOW_KNOBS = tuple(name for name, _ in _KNOB_FIELDS)

#: Knobs below zero that would run (degraded or quietly different)
#: instead of failing: SALT rejects a negative ``eps`` on every rung,
#: numpy a negative seed, and a negative slew or budget means nothing.
_NON_NEGATIVE = ("eps", "seed", "sa_iterations", "repair_budget",
                 "source_slew")


@dataclass(slots=True)
class LevelStats:
    """Per-level digest (the data behind Fig. 3)."""

    level: int
    num_sinks: int
    num_clusters: int
    sa_cost_before: float
    sa_cost_after: float
    max_net_cap: float         # fF, largest cluster cap estimate (HPWL)
    # fF, largest driver-stage load among the level's routed nets (a
    # net whose timing analysis degraded counts 0.0)
    max_routed_cap: float
    max_net_fanout: int
    buffers_added: int


@dataclass(slots=True)
class CTSResult:
    """Outcome of a hierarchical run."""

    tree: RoutedTree              # full routed tree rooted at the source
    levels: list[LevelStats]
    runtime_s: float
    diagnostics: FlowDiagnostics | None = None
    top_buffers: int = 0          # buffers inserted on the top (source) net
    health: RunHealth | None = None  # what the execution fabric absorbed
    source_slew: float = 10.0     # ps at the source the tree was built for


@dataclass(frozen=True, slots=True)
class ClusterTask:
    """One cluster net to route, as a picklable, self-contained payload."""

    name: str                  # net name, e.g. "L0_c3"
    level: int                 # hierarchy level
    sinks: tuple[Sink, ...]    # the cluster's sinks
    center: Point              # the partitioner's center for the cluster


@dataclass(slots=True)
class ClusterOutcome:
    """Everything routing one task produced."""

    name: str
    driver: Sink               # next-level sink (the placed driver)
    tree: RoutedTree           # routed + buffered + repaired net tree
    buffers: int               # buffers added on this net (incl. driver)
    diagnostics: FlowDiagnostics  # task-local events + stage times
    routed_cap: float          # fF driven by the root driver (0.0 if
                               # the net's timing analysis degraded)


class HierarchicalCTS:
    """The paper's hierarchical CTS engine.

    ``jobs`` sets the worker processes for per-cluster routing (and a
    large level's spatial-block k-means): 0 or
    negative is auto (one per usable CPU; each level uses the pool only
    where the process hop pays), 1 the serial loop, and N > 1 a pool of
    N on every level.  ``policy`` budgets the pool's resilience ladder
    and ``fabric_chaos`` injects seeded faults into it.  None of the
    three can change results (docs/PARALLELISM.md).

    ``reuse`` lets the run share level partitions and CBS skeletons with
    the other runs that hold the same object (the points of one sweep,
    docs/SWEEP.md): each is looked up before it is computed and kept
    after.  It cannot change results either.
    """

    def __init__(
        self,
        tech: Technology | None = None,
        library: BufferLibrary | None = None,
        constraints: Constraints = TABLE5,
        config: FlowConfig | None = None,
        jobs: int = 0,
        policy: FabricPolicy | None = None,
        fabric_chaos: FabricChaos | None = None,
        reuse: StageReuse | None = None,
    ):
        self._tech = tech or Technology()
        self._lib = library or default_library()
        self._constraints = constraints
        self._config = config or FlowConfig()
        self._jobs = jobs
        self._policy = policy
        self._fabric_chaos = fabric_chaos
        self._reuse = reuse

    # ------------------------------------------------------------------
    def run(
        self,
        sinks: list[Sink],
        source: Point,
        diagnostics: FlowDiagnostics | None = None,
    ) -> CTSResult:
        if not sinks:
            raise ValueError("hierarchical CTS needs at least one sink")
        with TRACER.span("flow", engine="hierarchical", sinks=len(sinks)):
            return self._run_traced(sinks, source, diagnostics)

    def _run_traced(
        self,
        sinks: list[Sink],
        source: Point,
        diagnostics: FlowDiagnostics | None,
    ) -> CTSResult:
        start = now()
        cons = self._constraints
        diag = diagnostics if diagnostics is not None else FlowDiagnostics()
        current = list(sinks)
        levels: list[LevelStats] = []
        subtrees: dict[str, RoutedTree] = {}  # driver sink name -> its net tree
        level = 0
        workers = self._workers()
        pool = WorkPool(
            workers, context=self, policy=self._policy,
            chaos=self._fabric_chaos,
        ) if workers > 1 else None

        try:
            # the top net must fit fanout and cap; the cap estimate only
            # runs once the count fits, so large levels never pay for it
            while len(current) > cons.max_fanout or (
                    len(current) > 1
                    and cluster_cap(Cluster(current, source),
                                    self._tech.unit_cap) > cons.max_cap):
                mark = len(diag.events)
                with TRACER.span("level", level=level, sinks=len(current)):
                    clusters, sa_before, sa_after, outcomes = \
                        self._run_level(current, level, diag, subtrees, pool)
                next_sinks = [outcome.driver for outcome in outcomes]
                buffers_added = sum(outcome.buffers for outcome in outcomes)
                levels.append(LevelStats(
                    level=level,
                    num_sinks=len(current),
                    num_clusters=len(next_sinks),
                    sa_cost_before=sa_before,
                    sa_cost_after=sa_after,
                    max_net_cap=max(
                        (cluster_cap(c, self._tech.unit_cap)
                         for c in clusters if c.sinks),
                        default=0.0,
                    ),
                    max_routed_cap=max(
                        (outcome.routed_cap for outcome in outcomes),
                        default=0.0,
                    ),
                    max_net_fanout=max(
                        (c.size for c in clusters), default=0
                    ),
                    buffers_added=buffers_added,
                ))
                _LOG.debug(
                    "level %d: %d sinks -> %d clusters, %d buffers",
                    level, len(current), len(next_sinks), buffers_added,
                )
                _log_degradations(diag, mark, f"level {level}")
                current = next_sinks
                level += 1
        finally:
            if pool is not None:
                pool.shutdown()

        mark = len(diag.events)
        with TRACER.span("level", level=-1, sinks=len(current)):
            top_tree, top_buffers = self._route_top(
                current, source, self.build_chain(diag), diag
            )
        METRICS.inc("cts.top_buffers", top_buffers)
        full = self._assemble(top_tree, subtrees, sinks, diag)
        _log_degradations(diag, mark, "top net")
        return CTSResult(
            tree=full,
            levels=levels,
            runtime_s=now() - start,
            diagnostics=diag,
            top_buffers=top_buffers,
            health=pool.health if pool is not None else RunHealth(),
            source_slew=self._config.source_slew,
        )

    def _workers(self) -> int:
        """Worker processes for this run's cluster pool (1 = no pool).

        An explicit ``jobs`` is taken verbatim.  Auto (``jobs < 1``)
        means one per usable CPU, except while the config holds a user
        router: forked copies of a stateful one (a fault injector, a
        call counter) would diverge from the serial run, so auto stays
        serial.
        """
        if self._jobs < 1 and any(
                getattr(self._config, name) is not None
                for name in _CALLABLE_FIELDS):
            return 1
        return resolve_jobs(self._jobs)

    def build_chain(self, diagnostics: FlowDiagnostics) -> RouterFallbackChain:
        """The run's configured fallback chain, bound to ``diagnostics``.

        Every cluster net routes through a chain built here around its
        own diagnostics (see :meth:`_route_task`), so a cluster routes
        through exactly the same ladder in a worker or in the parent.
        """
        return RouterFallbackChain(
            self._constraints.skew_bound,
            eps=self._config.eps,
            topology=self._config.topology,
            primary=self._config.router,
            diagnostics=diagnostics,
            reuse=self._reuse,
        )

    def _run_level(
        self,
        current: list[Sink],
        level: int,
        diag: FlowDiagnostics,
        subtrees: dict[str, RoutedTree],
        pool: WorkPool | None = None,
    ) -> tuple[list[Cluster], float, float, list[ClusterOutcome]]:
        """One bottom-up level: partition, then route/buffer each cluster.

        With a ``pool``, a level of several spatial blocks k-means them
        in its workers (SA then runs here, over the whole level), and
        the clusters route in its workers; under auto (``jobs < 1``)
        only when :func:`pool_pays` for this level.  Either way the
        outcomes merge in cluster order.
        """
        cons = self._constraints
        with diag.timed("partition", level=level):
            clusters, sa_before, sa_after = self._partition(
                current, level, diag, pool
            )
            if len(clusters) >= len(current):
                diag.record(
                    "partition", "forced_split", level=level,
                    detail=(f"{len(clusters)} clusters for "
                            f"{len(current)} sinks does not reduce; "
                            f"forced median split"),
                )
                clusters = forced_median_split(
                    current, max(2, cons.max_fanout)
                )
                # the SA stats computed above describe the *discarded*
                # partition; report the cost of the clusters actually
                # used so LevelStats never quotes a dropped state
                forced_cost = total_cost(clusters, self._sa_config(level))
                sa_before = sa_after = forced_cost
        tasks = [
            ClusterTask(
                name=f"L{level}_c{j}",
                level=level,
                sinks=tuple(cluster.sinks),
                center=cluster.center,
            )
            for j, cluster in enumerate(clusters)
            if cluster.sinks
        ]
        pooled = pool is not None and len(tasks) > 1 and (
            self._jobs >= 1
            or pool_pays(tasks, pool.jobs, cons.max_fanout)
        )
        if pooled:
            outcomes = pool.map(
                _route_in_worker, tasks,
                describe=lambda t: f"net {t.name}",
                fallback=self._route_degraded,
            )
        else:
            outcomes = [self._route_task(task) for task in tasks]
        for outcome in outcomes:
            diag.merge(outcome.diagnostics)
            subtrees[outcome.name] = outcome.tree
        return clusters, sa_before, sa_after, outcomes

    def _route_task(
        self, task: ClusterTask, diag: FlowDiagnostics | None = None
    ) -> ClusterOutcome:
        """Route one cluster net against task-local diagnostics: the
        same code whether a pool worker or the parent runs it."""
        diag = diag if diag is not None else FlowDiagnostics()
        chain = self.build_chain(diag)
        cluster = Cluster(list(task.sinks), task.center)
        with TRACER.span("cluster", net=task.name, sinks=cluster.size):
            driver, tree, nbuf, routed_cap = self._route_cluster(
                task.name, cluster, task.level, chain, diag
            )
        return ClusterOutcome(name=task.name, driver=driver, tree=tree,
                              buffers=nbuf, diagnostics=diag,
                              routed_cap=routed_cap)

    def _route_degraded(
        self, task: ClusterTask, code: str, detail: str
    ) -> ClusterOutcome:
        """Route a task the pool gave back, here and in its slot, with
        the reason recorded ahead of its routing events."""
        diag = FlowDiagnostics()
        if code == "timeout":
            diag.record("route", "timeout", level=task.level, net=task.name,
                        detail=detail)
        else:
            diag.record(
                "route", "fault", level=task.level, net=task.name,
                detail=(f"parallel worker failed; routed serially in "
                        f"parent ({detail})"),
            )
        return self._route_task(task, diag)

    # ------------------------------------------------------------------
    # Stage 1: partition
    # ------------------------------------------------------------------
    def _partition(
        self, sinks: list[Sink], level: int, diag: FlowDiagnostics,
        pool: WorkPool | None = None,
    ) -> tuple[list[Cluster], float, float]:
        """The level's clusters with SA's cost before and after, served
        from the run's reuse object where it holds them.

        Only a partition whose computation recorded no flowguard event
        is kept, so a degraded partition computes, and records its
        events, every time.
        """
        key = self._partition_key(sinks, level) \
            if self._reuse is not None else None
        kept = self._reuse.get(PARTITION, key) if key is not None else None
        if kept is not None:
            groups, before, after = kept
            return ([Cluster([sinks[i] for i in members], center)
                     for members, center in groups], before, after)
        mark = len(diag.events)
        clusters, before, after = self._partition_guarded(
            sinks, level, diag, pool)
        if key is not None and len(diag.events) == mark:
            position = {id(sink): i for i, sink in enumerate(sinks)}
            groups = tuple(
                (tuple(position[id(sink)] for sink in cluster.sinks),
                 cluster.center)
                for cluster in clusters)
            self._reuse.put(PARTITION, key, (groups, before, after))
        return clusters, before, after

    def _partition_key(self, sinks: list[Sink], level: int) -> tuple | None:
        """Everything the partition reads, as an exact key."""
        cfg = self._config
        cons = self._constraints
        return exact_key(
            sinks, cfg.seed + level, cfg.use_sa, cfg.sa_iterations,
            cons.max_fanout, cons.max_cap, cons.max_length,
            self._tech.unit_cap,
        )

    def _partition_guarded(
        self, sinks: list[Sink], level: int, diag: FlowDiagnostics,
        pool: WorkPool | None = None,
    ) -> tuple[list[Cluster], float, float]:
        try:
            return self._partition_inner(sinks, level, diag, pool)
        except Exception as exc:  # noqa: BLE001 — degrade, don't abort
            diag.record(
                "partition", "downgrade", level=level,
                detail=(f"partitioner failed ({exc.__class__.__name__}: "
                        f"{exc}); forced median split"),
            )
            clusters = forced_median_split(
                sinks, max(2, self._constraints.max_fanout)
            )
            return clusters, 0.0, 0.0

    def _partition_inner(
        self, sinks: list[Sink], level: int, diag: FlowDiagnostics,
        pool: WorkPool | None = None,
    ) -> tuple[list[Cluster], float, float]:
        cons = self._constraints
        cfg = self._config
        mapper = _block_mapper(pool, level)
        points = [s.location for s in sinks]
        max_size = cons.max_fanout
        # split further while the densest cluster overruns the cap budget
        for _ in range(6):
            centers, labels = balanced_kmeans(
                points, max_size=max_size, seed=cfg.seed + level,
                mapper=mapper,
            )
            clusters = self._materialise(sinks, centers, labels, level, diag)
            worst = max(
                (cluster_cap(c, self._tech.unit_cap)
                 for c in clusters if c.sinks),
                default=0.0,
            )
            if worst <= cons.max_cap or max_size <= 2:
                break
            METRICS.inc("partition.resplit")
            max_size = max(2, max_size // 2)

        sa_cfg = self._sa_config(level)
        if cfg.use_sa and len(clusters) > 1:
            clusters, trace = anneal_partition(clusters, sa_cfg)
            # the trace opens with total_cost of the input clusters, and
            # its minimum is total_cost of the returned ones, bit for bit
            before, after = trace[0], min(trace)
        else:
            before = after = total_cost(clusters, sa_cfg)
        return [c for c in clusters if c.sinks], before, after

    def _sa_config(self, level: int) -> SAConfig:
        """The level's annealing/cost configuration (Table 5 units)."""
        cfg = self._config
        cons = self._constraints
        return SAConfig(
            iterations=cfg.sa_iterations,
            seed=cfg.seed + level,
            max_cap=cons.max_cap,
            max_fanout=cons.max_fanout,
            max_length=cons.max_length,
            unit_cap=self._tech.unit_cap,
        )

    def _materialise(
        self,
        sinks: list[Sink],
        centers: list[Point],
        labels: list[int],
        level: int,
        diag: FlowDiagnostics,
    ) -> list[Cluster]:
        """Group sinks by label into clusters around ``centers``.

        A label outside ``range(len(centers))`` is a partitioner bug;
        instead of silently dropping the clock sink (the old behaviour)
        the sink is attached to its nearest center and the degradation
        is recorded through flowguard.
        """
        if not centers and sinks:
            raise ValueError(
                f"partitioner returned no centers for {len(sinks)} sinks"
            )
        groups: dict[int, list[Sink]] = {}
        strays = 0
        for sink, label in zip(sinks, labels):
            if not 0 <= label < len(centers):
                label = min(
                    range(len(centers)),
                    key=lambda j: (
                        abs(centers[j].x - sink.location.x)
                        + abs(centers[j].y - sink.location.y)
                    ),
                )
                strays += 1
            groups.setdefault(label, []).append(sink)
        if strays:
            diag.record(
                "partition", "downgrade", level=level,
                detail=(f"{strays} sink(s) with out-of-range labels "
                        f"attached to nearest center instead of "
                        f"being dropped"),
            )
            METRICS.inc("partition.stray_sinks", strays)
        return [
            Cluster(groups.get(j, []), center)
            for j, center in enumerate(centers)
        ]

    # ------------------------------------------------------------------
    # Stages 2 + 3: routing topology + buffering for one cluster net
    # ------------------------------------------------------------------
    def _route_cluster(
        self,
        name: str,
        cluster: Cluster,
        level: int,
        chain: RouterFallbackChain,
        diag: FlowDiagnostics,
    ) -> tuple[Sink, RoutedTree, int, float]:
        tap = manhattan_center([s.location for s in cluster.sinks])
        net = ClockNet(name, tap, cluster.sinks)
        with diag.timed("route", level=level, net=name):
            tree = chain.route(net, ElmoreDelay(self._tech), level=level)
        METRICS.observe("cts.cluster_wl_um", tree.wirelength())
        nbuf = self._buffer_tree(tree, level, name, diag)
        report = self._check(tree, level, name, diag)
        driver = tree.node(tree.root).buffer  # repair may have re-sized it
        subtree_delay, routed_cap = self._subtree_delay(tree, report)
        driver_sink = Sink(
            name=name,
            location=tap,
            cap=driver.input_cap,
            subtree_delay=subtree_delay,
        )
        return driver_sink, tree, nbuf, routed_cap

    def _buffer_tree(
        self, tree: RoutedTree, level: int, name: str, diag: FlowDiagnostics
    ) -> int:
        """Repeater chains + root driver, each guarded with a fallback."""
        cons = self._constraints
        cfg = self._config
        with diag.timed("buffer", level=level, net=name):
            try:
                nbuf = split_long_edges(
                    tree, self._lib, self._tech,
                    cons.effective_span(self._tech), cfg.source_slew,
                )
            except Exception as exc:  # noqa: BLE001
                diag.record(
                    "buffer", "downgrade", level=level, net=name,
                    detail=f"split_long_edges failed ({exc}); "
                           f"repeaters skipped",
                )
                nbuf = 0
            try:
                place_driver(tree, self._lib, self._tech)
            except Exception as exc:  # noqa: BLE001
                diag.record(
                    "buffer", "downgrade", level=level, net=name,
                    detail=f"place_driver failed ({exc}); "
                           f"weakest driver used",
                )
                tree.set_buffer(tree.root, self._lib.weakest)
        return nbuf + 1

    def _check(
        self, tree: RoutedTree, level: int, name: str, diag: FlowDiagnostics
    ) -> TimingReport | None:
        """Check and repair ``tree`` in place; returns the analysis of the
        tree it leaves, the net's one timing view, or None (recorded as
        a downgrade) where the analysis raised."""
        cfg = self._config
        with diag.timed("check", level=level, net=name):
            try:
                _residual, report = check_and_repair(
                    tree, self._constraints, self._tech, self._lib,
                    budget=cfg.repair_budget, diagnostics=diag,
                    level=level, net=name, source_slew=cfg.source_slew,
                )
            except Exception as exc:  # noqa: BLE001
                diag.record(
                    "analyze", "downgrade", level=level, net=name,
                    detail=f"timing analysis failed ({exc}); "
                           f"zero insertion estimate and load",
                )
                return None
        return report

    def _subtree_delay(
        self, tree: RoutedTree, report: TimingReport | None
    ) -> tuple[float, float]:
        """Eq. (7) insertion estimate (or exact Eq. (6) latency) and the
        root driver's stage load, read off the net's analysis (both zero
        where it degraded)."""
        if report is None:
            return 0.0, 0.0
        METRICS.observe("cts.cluster_skew_ps", report.skew)
        load = report.stage_load[tree.root]
        if not self._config.use_insertion_estimate:
            return report.latency, load
        # Eq. (7): provisional delay charged before upstream merging —
        # latency below the driver plus the conservative driver bound
        below = report.latency - report.arrival[tree.root]
        return below + insertion_delay_estimate(self._lib, load), load

    # ------------------------------------------------------------------
    # Top net + assembly
    # ------------------------------------------------------------------
    def _route_top(
        self,
        sinks: list[Sink],
        source: Point,
        chain: RouterFallbackChain,
        diag: FlowDiagnostics,
    ) -> tuple[RoutedTree, int]:
        """Route and buffer the source net; returns (tree, #buffers).

        The buffer count used to be discarded here, leaving top-net
        buffers invisible in every stat; it now surfaces as
        ``CTSResult.top_buffers`` and the ``cts.top_buffers`` counter.
        """
        net = ClockNet("top", source, sinks)
        with diag.timed("route", level=-1, net="top"):
            tree = chain.route(net, ElmoreDelay(self._tech), level=-1)
        nbuf = self._buffer_tree(tree, -1, "top", diag)
        self._check(tree, -1, "top", diag)
        return tree, nbuf

    def _assemble(
        self,
        top: RoutedTree,
        subtrees: dict[str, RoutedTree],
        original_sinks: list[Sink],
        diag: FlowDiagnostics,
    ) -> RoutedTree:
        with diag.timed("assemble"):
            try:
                full = graft_subtrees(top, subtrees)
                full.validate()
                return full
            except Exception as exc:  # noqa: BLE001 — last-resort fallback
                diag.record(
                    "assemble", "downgrade",
                    detail=(f"graft failed ({exc.__class__.__name__}: "
                            f"{exc}); star fallback over "
                            f"{len(original_sinks)} sinks"),
                )
                net = ClockNet(
                    "star_fallback", top.node(top.root).location,
                    list(original_sinks),
                )
                tree = star_topology(net)
                try:
                    place_driver(tree, self._lib, self._tech)
                except Exception:  # noqa: BLE001
                    tree.set_buffer(tree.root, self._lib.weakest)
                return tree


def _log_degradations(diag: FlowDiagnostics, since: int, where: str) -> None:
    """At most one WARNING for a level's degraded events."""
    line = diag.degradation_line(since)
    if line is not None:
        _LOG.warning("%s: %s", where, line)


def _route_in_worker(task: ClusterTask) -> ClusterOutcome:
    """Route one cluster net in a pool worker, on the engine the pool
    was built with."""
    return worker_context()._route_task(task)


def _block_mapper(pool: WorkPool | None, level: int):
    """How ``balanced_kmeans`` solves one level's spatial blocks: in
    ``pool`` when there are at least two, here otherwise.

    The pool returns each block's outcome in block order and replays
    its metrics (the assignment counters) in that order; a block the
    pool gives back is solved here, in its slot.  Blocks are a function
    of the placement and ``max_fanout`` alone, so a pooled level
    partitions exactly as a serial one.
    """
    def mapper(fn, tasks):
        tasks = list(tasks)
        if pool is None or len(tasks) < 2:
            return map(fn, tasks)
        names = {id(task): f"L{level}_b{j}" for j, task in enumerate(tasks)}
        return pool.map(fn, tasks, describe=lambda task: names[id(task)])
    return mapper


def pool_pays(tasks: list[ClusterTask], workers: int,
              max_fanout: int) -> bool:
    """Auto's per-level rule: route a level in the pool only where the
    process hop pays.

    The level needs at least two clusters per worker, so every worker
    gets work to overlap with its siblings, and clusters averaging at
    least ``max_fanout // 4`` sinks, because a net of a few sinks routes
    in less time than its task and outcome take to cross the process
    boundary (and its outcome would bloat the parent's memory).  Reads
    only the level's own clusters.
    """
    if len(tasks) < 2 * workers:
        return False
    sinks = sum(len(task.sinks) for task in tasks)
    return sinks >= len(tasks) * (max_fanout // 4)


def graft_subtrees(
    top: RoutedTree, subtrees: dict[str, RoutedTree]
) -> RoutedTree:
    """Graft cluster trees into the sink nodes that reference them.

    A sink whose name appears in ``subtrees`` is replaced by that tree's
    root (inheriting its driver buffer); grafting recurses through sinks
    of grafted trees, so a full hierarchy assembles in one call.  The
    inputs are not modified.
    """
    full = top.copy()
    pending = [
        nid for nid in full.sink_node_ids()
        if full.node(nid).sink.name in subtrees
    ]
    while pending:
        nid = pending.pop()
        node = full.node(nid)
        sub = subtrees[node.sink.name]
        sub_root = sub.node(sub.root)
        node.sink = None
        node.buffer = sub_root.buffer
        mapping = {sub.root: nid}
        for sid in sub.preorder():
            if sid == sub.root:
                continue
            s_node = sub.node(sid)
            new_id = full.add_child(
                mapping[s_node.parent],
                s_node.location,
                sink=s_node.sink,
                detour=s_node.detour,
            )
            full.set_buffer(new_id, s_node.buffer)
            mapping[sid] = new_id
            if s_node.sink is not None and s_node.sink.name in subtrees:
                pending.append(new_id)
    return full

"""Reference simulated annealing the production kernel must reproduce.

``anneal_partition`` with ``_propose_move``, ``_move_delta`` and
``_apply_move`` is the ``Cluster``-based implementation of paper Fig. 4
that ``repro.partition.annealing`` replaced with per-net coordinate and
cap lists and a cached boundary list, kept verbatim as a test oracle.
It prices every move through ``net_cost`` on freshly built clusters and
takes boundary instances from the verbatim hull oracle
(``tests.geometry.hull_oracle``), so it shares no arithmetic with the
production kernel: production must return the same clusters (sink
order included), the same centers and the same cost trace, bit for bit.
"""

from __future__ import annotations

import math
import random

from repro.geometry import Point, manhattan
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.partition.annealing import SAConfig, net_cost, total_cost
from repro.partition.clustering import Cluster
from tests.geometry.hull_oracle import points_on_hull


def anneal_partition(
    clusters: list[Cluster],
    cfg: SAConfig | None = None,
) -> tuple[list[Cluster], list[float]]:
    """Refine a partition in place-style (returns new clusters + cost trace).

    The trace records the accepted cost after every iteration, which the
    Fig. 4 bench plots.  Deterministic for a given ``cfg.seed``.
    """
    cfg = cfg or SAConfig()
    rng = random.Random(cfg.seed)
    state = [Cluster(list(c.sinks), c.center) for c in clusters]
    costs = [net_cost(c, cfg) for c in state]
    current = sum(costs)
    best_state = [Cluster(list(c.sinks), c.center) for c in state]
    best_cost = current
    trace = [current]
    temp = cfg.initial_temp
    proposed = accepted = 0

    with TRACER.span("sa", iterations=cfg.iterations,
                     clusters=len(clusters)):
        for _ in range(cfg.iterations):
            move = _propose_move(state, costs, cfg, rng)
            if move is None:
                trace.append(current)
                temp *= cfg.cooling
                continue
            proposed += 1
            src, dst, sink_idx = move
            delta = _move_delta(state, costs, cfg, src, dst, sink_idx)
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                # the applied delta differs slightly from the estimate because
                # the move also re-centers both nets; re-sum the per-net
                # costs rather than accumulating deltas, so ``current``
                # (and therefore the trace and the best-state snapshot
                # decision) can never drift away from the cost the state
                # actually has — min(trace) equals
                # total_cost(best_state) bit-for-bit
                accepted += 1
                _apply_move(state, costs, cfg, src, dst, sink_idx)
                current = sum(costs)
                if current < best_cost:
                    best_cost = current
                    best_state = [Cluster(list(c.sinks), c.center)
                                  for c in state]
            trace.append(current)
            temp *= cfg.cooling

    METRICS.inc("partition.sa_moves_proposed", proposed)
    METRICS.inc("partition.sa_moves_accepted", accepted)
    METRICS.observe("partition.sa_cost_drop",
                    trace[0] - total_cost(best_state, cfg))
    return best_state, trace


# ----------------------------------------------------------------------
def _propose_move(
    state: list[Cluster], costs: list[float], cfg: SAConfig,
    rng: random.Random,
) -> tuple[int, int, int] | None:
    movable = [j for j, c in enumerate(state) if c.size > 1]
    if len(movable) < 1 or len(state) < 2:
        return None
    # (1) favour nets with large cost: a uniform draw over the costlier half
    ranked = sorted(movable, key=lambda j: -costs[j])
    top = ranked[: max(1, len(ranked) // 2)]
    src = rng.choice(top)
    cluster = state[src]
    # (2) boundary (convex hull) instances only
    hull_idx = points_on_hull([s.location for s in cluster.sinks])
    if not hull_idx:
        return None
    sink_idx = rng.choice(hull_idx)
    moved = cluster.sinks[sink_idx]
    # (3) the net closest to that instance
    dst = min(
        (j for j in range(len(state)) if j != src),
        key=lambda j: manhattan(state[j].center, moved.location),
    )
    return src, dst, sink_idx


def _move_delta(
    state: list[Cluster], costs: list[float], cfg: SAConfig,
    src: int, dst: int, sink_idx: int,
) -> float:
    moved = state[src].sinks[sink_idx]
    new_src = Cluster(
        [s for i, s in enumerate(state[src].sinks) if i != sink_idx],
        state[src].center,
    )
    new_dst = Cluster(state[dst].sinks + [moved], state[dst].center)
    return (
        net_cost(new_src, cfg) + net_cost(new_dst, cfg)
        - costs[src] - costs[dst]
    )


def _apply_move(
    state: list[Cluster], costs: list[float], cfg: SAConfig,
    src: int, dst: int, sink_idx: int,
) -> None:
    moved = state[src].sinks.pop(sink_idx)
    state[dst].sinks.append(moved)
    for j in (src, dst):
        cluster = state[j]
        if cluster.sinks:  # (4) re-route: refresh the center estimate
            xs = sorted(s.location.x for s in cluster.sinks)
            ys = sorted(s.location.y for s in cluster.sinks)
            cluster.center = Point(xs[len(xs) // 2], ys[len(ys) // 2])
        costs[j] = net_cost(cluster, cfg)

"""Simulated-annealing partition refinement (paper Fig. 4).

Each SA move follows the paper's local search strategy:

1. pick a net with large cost: a uniform draw over the costlier half of
   the movable nets (violations weigh in the cost, so violating nets rank
   first; the paper observes that net costs are independent, which makes
   this descending-cost greedy effective);
2. collect the instances on the net's convex hull boundary (moving an
   interior instance would let interconnections cross);
3. move one boundary instance to the closest other net;
4. re-route (here: recompute the HPWL estimate and centers).

Cost uses capacitance as the unified metric: capacitance, wirelength and
fanout violations are all expressed in fF so "all constraint costs have
equivalent numerical ranges" (Section 3.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain

from repro.geometry import Point
from repro.geometry.hull import points_on_hull
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.partition.clustering import Cluster, cluster_cap


@dataclass(slots=True)
class SAConfig:
    """Simulated-annealing knobs."""

    iterations: int = 400
    initial_temp: float = 20.0    # fF — scale of cost deltas worth exploring
    cooling: float = 0.99
    seed: int = 0
    # constraint set, in the units of Table 5
    max_cap: float = 150.0        # fF
    max_fanout: int = 32
    max_length: float = 300.0     # um
    unit_cap: float = 0.2         # fF/um
    mean_pin_cap: float = 1.0     # fF, converts fanout violations to cap
    violation_weight: float = 10.0


def net_cost(cluster: Cluster, cfg: SAConfig) -> float:
    """Unified capacitance-denominated cost of one cluster net."""
    cap = cluster_cap(cluster, cfg.unit_cap)
    hpwl = cluster.hpwl()
    over_cap = max(0.0, cap - cfg.max_cap)
    over_wl = max(0.0, hpwl - cfg.max_length) * cfg.unit_cap
    over_fan = max(0, cluster.size - cfg.max_fanout) * cfg.mean_pin_cap
    return cap + cfg.violation_weight * (over_cap + over_wl + over_fan)


def total_cost(clusters: list[Cluster], cfg: SAConfig) -> float:
    return sum(net_cost(c, cfg) for c in clusters)


def anneal_partition(
    clusters: list[Cluster],
    cfg: SAConfig | None = None,
) -> tuple[list[Cluster], list[float]]:
    """Refine a partition in place-style (returns new clusters + cost trace).

    The trace records the accepted cost after every iteration, which the
    Fig. 4 bench plots.  Deterministic for a given ``cfg.seed``.

    Each net keeps its sinks' x, y and pin-cap lists, and its boundary
    instances until it gains or loses a sink.  A move is priced from
    those lists with :func:`net_cost`'s float expressions in the same
    order (builtin ``sum`` over the caps in list order, never a running
    total), so clusters, centers and trace equal the ``Cluster``-based
    reference (``tests/partition/sa_oracle.py``) bit for bit.
    """
    cfg = cfg or SAConfig()
    rng = random.Random(cfg.seed)
    nets = [_Net(c) for c in clusters]
    costs = [_cost(net.xs, net.ys, net.caps, net.center, cfg)
             for net in nets]
    current = sum(costs)
    best_state = _snapshot(nets)
    best_cost = current
    trace = [current]
    temp = cfg.initial_temp
    proposed = accepted = 0

    with TRACER.span("sa", iterations=cfg.iterations,
                     clusters=len(clusters)):
        for _ in range(cfg.iterations):
            move = _propose_move(nets, costs, rng)
            if move is None:
                trace.append(current)
                temp *= cfg.cooling
                continue
            proposed += 1
            src, dst, sink_idx = move
            delta = _move_delta(nets, costs, cfg, src, dst, sink_idx)
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                # the applied delta differs slightly from the estimate because
                # the move also re-centers both nets; re-sum the per-net
                # costs rather than accumulating deltas, so ``current``
                # (and therefore the trace and the best-state snapshot
                # decision) can never drift away from the cost the state
                # actually has — min(trace) equals
                # total_cost(best_state) bit-for-bit
                accepted += 1
                _apply_move(nets, costs, cfg, src, dst, sink_idx)
                current = sum(costs)
                if current < best_cost:
                    best_cost = current
                    best_state = _snapshot(nets)
            trace.append(current)
            temp *= cfg.cooling

    METRICS.inc("partition.sa_moves_proposed", proposed)
    METRICS.inc("partition.sa_moves_accepted", accepted)
    METRICS.observe("partition.sa_cost_drop",
                    trace[0] - total_cost(best_state, cfg))
    return best_state, trace


# ----------------------------------------------------------------------
class _Net:
    """One cluster net as the annealer holds it: its sinks with their
    coordinates and pin caps in parallel lists, its center, and its
    boundary (convex hull) instances, cached until it gains or loses a
    sink (its center does not enter the hull)."""

    __slots__ = ("sinks", "xs", "ys", "caps", "center", "hull")

    def __init__(self, cluster: Cluster):
        self.sinks = list(cluster.sinks)
        self.xs = [s.location.x for s in self.sinks]
        self.ys = [s.location.y for s in self.sinks]
        self.caps = [s.cap for s in self.sinks]
        self.center = cluster.center
        self.hull: list[int] | None = None


def _snapshot(nets: list[_Net]) -> list[Cluster]:
    return [Cluster(list(net.sinks), net.center) for net in nets]


def _cost(xs: list[float], ys: list[float], caps: list[float],
          center: Point, cfg: SAConfig) -> float:
    """:func:`net_cost` of the net whose sinks have these coordinates
    and caps, around ``center``.

    The HPWL box is ``min``/``max`` over the center, then the sinks in
    list order, as :func:`~repro.geometry.hull.half_perimeter` takes it
    (so even a signed-zero tie picks the same operand), and every later
    expression matches :func:`net_cost` term for term.
    """
    if xs:
        cx, cy = center.x, center.y
        lo, hi = min(xs), max(xs)
        span_x = (hi if hi > cx else cx) - (lo if lo < cx else cx)
        lo, hi = min(ys), max(ys)
        span_y = (hi if hi > cy else cy) - (lo if lo < cy else cy)
        hpwl = span_x + span_y
    else:
        hpwl = 0.0
    cap = sum(caps) + cfg.unit_cap * hpwl
    over_cap = max(0.0, cap - cfg.max_cap)
    over_wl = max(0.0, hpwl - cfg.max_length) * cfg.unit_cap
    over_fan = max(0, len(xs) - cfg.max_fanout) * cfg.mean_pin_cap
    return cap + cfg.violation_weight * (over_cap + over_wl + over_fan)


def _propose_move(
    nets: list[_Net], costs: list[float], rng: random.Random,
) -> tuple[int, int, int] | None:
    movable = [j for j, net in enumerate(nets) if len(net.xs) > 1]
    if len(movable) < 1 or len(nets) < 2:
        return None
    # (1) favour nets with large cost: a uniform draw over the costlier
    # half, ranked by descending cost (ties by index: the sort is stable)
    ranked = sorted(movable, key=costs.__getitem__, reverse=True)
    top = ranked[: max(1, len(ranked) // 2)]
    src = rng.choice(top)
    net = nets[src]
    # (2) boundary (convex hull) instances only
    if net.hull is None:
        net.hull = points_on_hull(zip(net.xs, net.ys))
    if not net.hull:
        return None
    sink_idx = rng.choice(net.hull)
    mx, my = net.xs[sink_idx], net.ys[sink_idx]
    # (3) the net closest to that instance, the lowest index on ties
    dist = [abs(n.center.x - mx) + abs(n.center.y - my) for n in nets]
    dst = min(chain(range(src), range(src + 1, len(nets))),
              key=dist.__getitem__)
    return src, dst, sink_idx


def _move_delta(
    nets: list[_Net], costs: list[float], cfg: SAConfig,
    src: int, dst: int, sink_idx: int,
) -> float:
    a, b = nets[src], nets[dst]
    i, j = sink_idx, sink_idx + 1
    new_src = _cost(a.xs[:i] + a.xs[j:], a.ys[:i] + a.ys[j:],
                    a.caps[:i] + a.caps[j:], a.center, cfg)
    new_dst = _cost(b.xs + [a.xs[i]], b.ys + [a.ys[i]],
                    b.caps + [a.caps[i]], b.center, cfg)
    return new_src + new_dst - costs[src] - costs[dst]


def _apply_move(
    nets: list[_Net], costs: list[float], cfg: SAConfig,
    src: int, dst: int, sink_idx: int,
) -> None:
    a, b = nets[src], nets[dst]
    b.sinks.append(a.sinks.pop(sink_idx))
    b.xs.append(a.xs.pop(sink_idx))
    b.ys.append(a.ys.pop(sink_idx))
    b.caps.append(a.caps.pop(sink_idx))
    for j in (src, dst):
        net = nets[j]
        net.hull = None
        if net.xs:  # (4) re-route: refresh the center estimate
            xs, ys = sorted(net.xs), sorted(net.ys)
            net.center = Point(xs[len(xs) // 2], ys[len(ys) // 2])
        costs[j] = _cost(net.xs, net.ys, net.caps, net.center, cfg)

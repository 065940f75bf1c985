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
from bisect import bisect_left, insort
from dataclasses import dataclass

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
    reference (``tests/partition/sa_oracle.py``) bit for bit.  Work per
    iteration follows what a move touches: the cost ranking and the
    center index change only for its two nets, and the best state is
    recovered at the end by undoing the moves applied since it.
    """
    cfg = cfg or SAConfig()
    rng = random.Random(cfg.seed)
    nets = [_Net(c) for c in clusters]
    costs = [_cost(net.xs, net.ys, net.caps, net.center, cfg)
             for net in nets]
    current = sum(costs)
    best_cost = current
    # moves applied since the best state, undone at the end
    undo: list[tuple[int, int, int, Point, Point]] = []
    ranked = _Ranking(nets, costs)
    centers = _Centers(nets)
    trace = [current]
    temp = cfg.initial_temp
    proposed = accepted = 0

    with TRACER.span("sa", iterations=cfg.iterations,
                     clusters=len(clusters)):
        for _ in range(cfg.iterations):
            move = _propose_move(nets, ranked, centers, rng)
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
                # (and therefore the trace and the best-state decision)
                # can never drift away from the cost the state actually
                # has — min(trace) equals total_cost(best_state)
                # bit-for-bit
                accepted += 1
                src_center, dst_center = nets[src].center, nets[dst].center
                undo.append((src, dst, sink_idx, src_center, dst_center))
                ranked.discard(src, dst)
                _apply_move(nets, costs, cfg, src, dst, sink_idx)
                ranked.add(src, dst)
                centers.move(src, src_center, nets[src].center)
                centers.move(dst, dst_center, nets[dst].center)
                current = sum(costs)
                if current < best_cost:
                    best_cost = current
                    undo.clear()
            trace.append(current)
            temp *= cfg.cooling

    for src, dst, sink_idx, src_center, dst_center in reversed(undo):
        nets[src].sinks.insert(sink_idx, nets[dst].sinks.pop())
        nets[src].center, nets[dst].center = src_center, dst_center
    best_state = [Cluster(net.sinks, net.center) for net in nets]
    METRICS.inc("partition.sa_moves_proposed", proposed)
    METRICS.inc("partition.sa_moves_accepted", accepted)
    # best_cost sums the best state's net costs in net order, as
    # total_cost(best_state, cfg) would, to the same float
    METRICS.observe("partition.sa_cost_drop", trace[0] - best_cost)
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


class _Ranking:
    """The movable nets (more than one sink) ranked by descending cost,
    ties by index: ``(-cost, index)`` keys in a sorted list, the order
    ``sorted(movable, key=cost, reverse=True)`` gives, since that sort is
    stable.  A move changes only its two nets, so each is taken out
    before the move and put back after it."""

    __slots__ = ("keys", "nets", "costs")

    def __init__(self, nets: list[_Net], costs: list[float]):
        self.nets = nets
        self.costs = costs
        self.keys = sorted((-costs[j], j) for j, net in enumerate(nets)
                           if len(net.xs) > 1)

    def discard(self, *js: int) -> None:
        for j in js:
            if len(self.nets[j].xs) > 1:
                del self.keys[bisect_left(self.keys, (-self.costs[j], j))]

    def add(self, *js: int) -> None:
        for j in js:
            if len(self.nets[j].xs) > 1:
                insort(self.keys, (-self.costs[j], j))


class _Centers:
    """Net centers for the nearest-net query: y by index, and
    ``(x, index)`` pairs sorted by x.

    A query scans outward from its x and stops on each side once the x
    gap alone exceeds the best distance: a distance is that gap plus a
    non-negative y gap, and float addition is monotone, so no center
    past the stop is as near.  Distances repeat the reference's
    ``abs(cx - mx) + abs(cy - my)``, and ties go to the lowest index.
    """

    __slots__ = ("by_x", "ys")

    def __init__(self, nets: list[_Net]):
        self.by_x = sorted((net.center.x, j) for j, net in enumerate(nets))
        self.ys = [net.center.y for net in nets]

    def move(self, j: int, old: Point, new: Point) -> None:
        by_x = self.by_x
        del by_x[bisect_left(by_x, (old.x, j))]
        insort(by_x, (new.x, j))
        self.ys[j] = new.y

    def nearest(self, mx: float, my: float, skip: int) -> int:
        by_x, ys = self.by_x, self.ys
        best, best_j = math.inf, -1
        k = bisect_left(by_x, (mx, -1))
        for side in (range(k, len(by_x)), range(k - 1, -1, -1)):
            for r in side:
                x, j = by_x[r]
                gap = abs(x - mx)
                if gap > best:
                    break
                if j == skip:
                    continue
                d = gap + abs(ys[j] - my)
                if d < best or (d == best and j < best_j):
                    best, best_j = d, j
        return best_j


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
    nets: list[_Net], ranked: _Ranking, centers: _Centers,
    rng: random.Random,
) -> tuple[int, int, int] | None:
    keys = ranked.keys
    if len(keys) < 1 or len(nets) < 2:
        return None
    # (1) favour nets with large cost: a uniform draw over the costlier
    # half, ranked by descending cost (ties by index); ``randrange(n)``
    # draws exactly what ``choice`` over n items draws
    src = keys[rng.randrange(max(1, len(keys) // 2))][1]
    net = nets[src]
    # (2) boundary (convex hull) instances only
    if net.hull is None:
        net.hull = points_on_hull(zip(net.xs, net.ys))
    if not net.hull:
        return None
    sink_idx = rng.choice(net.hull)
    mx, my = net.xs[sink_idx], net.ys[sink_idx]
    # (3) the net closest to that instance, the lowest index on ties
    return src, centers.nearest(mx, my, src), sink_idx


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

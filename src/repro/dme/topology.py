"""Merge-topology generators for DME (paper Section 2.3, footnote 1).

Four candidate generators, as enumerated by the paper:

* **Greedy-Dist** — merge the two closest subtrees at each step;
* **Greedy-Merge** — merge the pair with minimum *merging cost*, which
  accounts for the detour wire a delay imbalance would force:
  cost = max(distance, estimated delay imbalance);
* **Bi-Partition** — recursive binary partition along the dimension with
  the larger diameter (median split);
* **Bi-Cluster** — recursive binary 2-means clustering.

All return a :class:`~repro.netlist.topology.TopologyNode` tree whose
leaves are the input sinks, and all are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.geometry import Point, rotate45
from repro.geometry.segment import Rect
from repro.netlist.sink import Sink
from repro.netlist.topology import TopologyNode


@dataclass(slots=True)
class _Cluster:
    topo: TopologyNode
    region: Rect       # rotated-space proxy of where the subtree root lands
    delay_est: float   # rough max path length inside the subtree, um


def _leaf_cluster(sink: Sink) -> _Cluster:
    return _Cluster(
        topo=TopologyNode.leaf(sink),
        region=Rect.from_point(rotate45(sink.location)),
        delay_est=0.0,
    )


def _merge_clusters(a: _Cluster, b: _Cluster) -> _Cluster:
    d = a.region.distance(b.region)
    region = a.region.inflate(d / 2.0).intersect(b.region.inflate(d / 2.0))
    assert region is not None, "half-distance inflations must intersect"
    return _Cluster(
        topo=TopologyNode.merge(a.topo, b.topo),
        region=region,
        delay_est=max(a.delay_est, b.delay_est) + d / 2.0,
    )


def _agglomerate_rowmin(sinks: list[Sink], use_delay: bool) -> TopologyNode:
    """Agglomerate by cached row minima: the least-cost pair merges first.

    Identical to the pairwise scan kept as the test oracle in
    ``tests/dme/agglomerate_oracle.py``.  Clusters get ids in creation
    order, which is their order in the reference's list (it pops the
    merged pair and appends the result), so the reference's row-major
    first minimum is the least ``(cost, i, j)`` over live ids ``i < j``.
    Each live row ``i`` caches its first minimum over later ids.  A
    merge costs the new cluster once against every live row; a row
    keeps its cached partner unless the new cluster is strictly cheaper
    (it has the largest id, so it loses ties), and a row whose partner
    was consumed is rescanned.
    """
    if not sinks:
        raise ValueError("cannot build a topology over zero sinks")
    clusters = [_leaf_cluster(s) for s in sinks]
    keys = [_key(c) for c in clusters]
    live = list(range(len(clusters)))
    # per id: the row's first minimum over later live ids, and that id;
    # dead rows read +inf, so the least row is the first minimum of the
    # list and its index the least id holding it
    row_cost: list[float] = []
    partner: list[int] = []
    for i in live:
        c, j = _row_min(keys[i], live[i + 1:], keys, use_delay)
        row_cost.append(c)
        partner.append(j)
    while len(live) > 1:
        i = row_cost.index(min(row_cost))
        j = partner[i]
        new = len(clusters)
        clusters.append(_merge_clusters(clusters[i], clusters[j]))
        keys.append(_key(clusters[new]))
        row_cost[i] = row_cost[j] = math.inf
        live.remove(i)
        live.remove(j)
        to_new = _costs(keys[new], live, keys, use_delay)
        for pos, r in enumerate(live):
            if partner[r] == i or partner[r] == j:
                row_cost[r], partner[r] = _row_min(
                    keys[r], live[pos + 1:] + [new], keys, use_delay)
            elif to_new[pos] < row_cost[r]:
                row_cost[r], partner[r] = to_new[pos], new
        live.append(new)
        row_cost.append(math.inf)
        partner.append(-1)
    return clusters[live[0]].topo


def _key(c: _Cluster) -> tuple[float, float, float, float, float]:
    region = c.region
    return region.ulo, region.uhi, region.vlo, region.vhi, c.delay_est


def _costs(
    key: tuple[float, float, float, float, float],
    ids: list[int],
    keys: list[tuple[float, float, float, float, float]],
    use_delay: bool,
) -> list[float]:
    """Merge cost of the cluster with ``key`` against each of ``ids``.

    ``Rect.distance``'s value (the larger per-axis gap, zero when the
    projections overlap), with the delay imbalance when ``use_delay``.
    Only comparisons read these costs, and the value is symmetric in the
    pair, so a signed zero or the operand order cannot change a merge.
    """
    aul, auh, avl, avh, ad = key
    out: list[float] = []
    append = out.append
    for j in ids:
        bul, buh, bvl, bvh, bd = keys[j]
        du = (bul if bul > aul else aul) - (buh if buh < auh else auh)
        dv = (bvl if bvl > avl else avl) - (bvh if bvh < avh else avh)
        if dv > du:
            du = dv
        if use_delay:
            dv = abs(ad - bd)
            if dv > du:
                du = dv
        append(du if du > 0.0 else 0.0)
    return out


def _row_min(
    key: tuple[float, float, float, float, float],
    later: list[int],
    keys: list[tuple[float, float, float, float, float]],
    use_delay: bool,
) -> tuple[float, int]:
    """First minimum of a row over ``later`` ids: (cost, id), or
    (+inf, -1) for an empty row."""
    costs = _costs(key, later, keys, use_delay)
    if not costs:
        return math.inf, -1
    c = min(costs)
    return c, later[costs.index(c)]


def greedy_dist(sinks: list[Sink]) -> TopologyNode:
    """Merge the two closest subtrees at each step."""
    return _agglomerate_rowmin(sinks, use_delay=False)


def greedy_merge(sinks: list[Sink]) -> TopologyNode:
    """Merge the pair with minimum merging cost.

    The cost of joining subtrees a and b is the wire the merge will commit:
    the connection distance, or the detour the delay imbalance forces when
    it exceeds that distance — i.e. ``max(dist, |delay_a - delay_b|)``.
    """
    return _agglomerate_rowmin(sinks, use_delay=True)


def bi_partition(sinks: list[Sink]) -> TopologyNode:
    """Recursive median split along the dimension with larger diameter."""
    if not sinks:
        raise ValueError("cannot build a topology over zero sinks")
    if len(sinks) == 1:
        return TopologyNode.leaf(sinks[0])
    xs = [s.location.x for s in sinks]
    ys = [s.location.y for s in sinks]
    if max(xs) - min(xs) >= max(ys) - min(ys):
        ordered = sorted(sinks, key=lambda s: (s.location.x, s.location.y, s.name))
    else:
        ordered = sorted(sinks, key=lambda s: (s.location.y, s.location.x, s.name))
    half = len(ordered) // 2
    return TopologyNode.merge(
        bi_partition(ordered[:half]), bi_partition(ordered[half:])
    )


def bi_cluster(sinks: list[Sink], lloyd_iters: int = 8) -> TopologyNode:
    """Recursive binary 2-means clustering (deterministic seeding)."""
    if not sinks:
        raise ValueError("cannot build a topology over zero sinks")
    if len(sinks) == 1:
        return TopologyNode.leaf(sinks[0])
    left, right = _two_means(sinks, lloyd_iters)
    return TopologyNode.merge(bi_cluster(left, lloyd_iters),
                              bi_cluster(right, lloyd_iters))


def _two_means(
    sinks: list[Sink], iters: int
) -> tuple[list[Sink], list[Sink]]:
    # seed with a mutually distant pair: farthest from centroid, then
    # farthest from that
    cx = sum(s.location.x for s in sinks) / len(sinks)
    cy = sum(s.location.y for s in sinks) / len(sinks)
    centroid = Point(cx, cy)
    seed_a = max(sinks, key=lambda s: s.location.manhattan_to(centroid)).location
    seed_b = max(sinks, key=lambda s: s.location.manhattan_to(seed_a)).location
    ca, cb = seed_a, seed_b
    assign: list[bool] = []
    for _ in range(iters):
        assign = [
            s.location.manhattan_to(ca) <= s.location.manhattan_to(cb)
            for s in sinks
        ]
        group_a = [s for s, in_a in zip(sinks, assign) if in_a]
        group_b = [s for s, in_a in zip(sinks, assign) if not in_a]
        if not group_a or not group_b:
            break
        ca = Point(
            sum(s.location.x for s in group_a) / len(group_a),
            sum(s.location.y for s in group_a) / len(group_a),
        )
        cb = Point(
            sum(s.location.x for s in group_b) / len(group_b),
            sum(s.location.y for s in group_b) / len(group_b),
        )
    group_a = [s for s, in_a in zip(sinks, assign) if in_a]
    group_b = [s for s, in_a in zip(sinks, assign) if not in_a]
    if not group_a or not group_b:
        # degenerate geometry (all sinks coincident): arbitrary even split
        half = len(sinks) // 2
        return sinks[:half], sinks[half:]
    return group_a, group_b


#: name -> generator, the menu the paper's footnote 1 enumerates
TOPOLOGY_GENERATORS: dict[str, Callable[[list[Sink]], TopologyNode]] = {
    "greedy_dist": greedy_dist,
    "greedy_merge": greedy_merge,
    "bi_partition": bi_partition,
    "bi_cluster": bi_cluster,
}

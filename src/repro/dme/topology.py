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

from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def _agglomerate_batched(sinks: list[Sink], use_delay: bool) -> TopologyNode:
    """Vectorised agglomeration: full pairwise cost matrix per merge.

    Identical to the scalar pairwise scan kept as the test oracle in
    ``tests/dme/agglomerate_oracle.py`` — the matrix entries repeat
    ``Rect.gap``'s arithmetic operation for operation, masking the
    diagonal and lower triangle to +inf makes the flat C-order argmin
    the exact row-major upper-triangle scan of the reference (so cost
    ties pick the same pair), and cluster-list mutation uses the same
    pop(j)/pop(i)/append discipline so indices line up at every step.
    """
    if not sinks:
        raise ValueError("cannot build a topology over zero sinks")
    clusters = [_leaf_cluster(s) for s in sinks]
    while len(clusters) > 1:
        m = len(clusters)
        ulo = np.array([c.region.ulo for c in clusters])
        uhi = np.array([c.region.uhi for c in clusters])
        vlo = np.array([c.region.vlo for c in clusters])
        vhi = np.array([c.region.vhi for c in clusters])
        du = np.maximum(
            0.0, np.maximum.outer(ulo, ulo) - np.minimum.outer(uhi, uhi))
        dv = np.maximum(
            0.0, np.maximum.outer(vlo, vlo) - np.minimum.outer(vhi, vhi))
        costm = np.maximum(du, dv)
        if use_delay:
            delay = np.array([c.delay_est for c in clusters])
            costm = np.maximum(
                costm, np.abs(np.subtract.outer(delay, delay)))
        costm[np.tri(m, dtype=bool)] = np.inf
        i, j = divmod(int(np.argmin(costm)), m)
        merged = _merge_clusters(clusters[i], clusters[j])
        clusters.pop(j)
        clusters.pop(i)
        clusters.append(merged)
    return clusters[0].topo


def greedy_dist(sinks: list[Sink]) -> TopologyNode:
    """Merge the two closest subtrees at each step."""
    return _agglomerate_batched(sinks, use_delay=False)


def greedy_merge(sinks: list[Sink]) -> TopologyNode:
    """Merge the pair with minimum merging cost.

    The cost of joining subtrees a and b is the wire the merge will commit:
    the connection distance, or the detour the delay imbalance forces when
    it exceeds that distance — i.e. ``max(dist, |delay_a - delay_b|)``.
    """
    return _agglomerate_batched(sinks, use_delay=True)


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

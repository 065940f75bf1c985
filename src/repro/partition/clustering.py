"""Clustering quality metrics (paper Section 3.2).

The paper scores a level-k partition by

    Cost^k = p * var(Cap^k) + q * var(T^k)

where Cap^k collects each cluster net's total capacitance and T^k each
net's maximum source-to-sink delay estimate.  Balancing these variances
"adapts the level characteristic of clock nets": delay variance matters
more at upper levels (it accumulates), capacitance at the bottom (where
most load lives).  A silhouette score evaluates raw geometric clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, half_perimeter, manhattan
from repro.netlist.sink import Sink


@dataclass(slots=True)
class Cluster:
    """One cluster of clock nodes with its driver tap location."""

    sinks: list[Sink]
    center: Point

    @property
    def size(self) -> int:
        return len(self.sinks)

    def hpwl(self) -> float:
        """Half-perimeter estimate of the cluster net's wirelength."""
        if not self.sinks:
            return 0.0
        return half_perimeter([self.center] + [s.location for s in self.sinks])

    def max_delay_estimate(self) -> float:
        """T_j^k proxy: worst (distance + accumulated subtree delay)."""
        if not self.sinks:
            return 0.0
        return max(
            manhattan(self.center, s.location) + s.subtree_delay
            for s in self.sinks
        )


def cluster_cap(cluster: Cluster, unit_cap: float) -> float:
    """Cap_j^k: pin capacitance plus estimated wire capacitance (fF)."""
    return sum(s.cap for s in cluster.sinks) + unit_cap * cluster.hpwl()


def clustering_cost(
    clusters: list[Cluster],
    unit_cap: float,
    p: float = 1.0,
    q: float = 1.0,
) -> float:
    """The paper's Cost^k = p * var(Cap) + q * var(T)."""
    if not clusters:
        raise ValueError("clustering_cost() needs at least one cluster")
    caps = np.array([cluster_cap(c, unit_cap) for c in clusters])
    delays = np.array([c.max_delay_estimate() for c in clusters])
    return float(p * caps.var() + q * delays.var())

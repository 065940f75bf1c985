"""Scalar reference for the DME merge-topology agglomeration.

This is the pairwise double loop — every cluster pair costed each merge
step — that ``repro.dme.topology._agglomerate_rowmin`` replaced with
cached row minima.  It is kept verbatim as the test oracle: the production
generators must reproduce its merge sequence exactly, ties included.
"""

from __future__ import annotations

from typing import Callable

from repro.dme.topology import _Cluster, _leaf_cluster, _merge_clusters
from repro.netlist.sink import Sink
from repro.netlist.topology import TopologyNode


def _agglomerate(
    sinks: list[Sink], cost: Callable[[_Cluster, _Cluster], float]
) -> TopologyNode:
    """Reference scalar agglomeration, kept as the equivalence oracle
    for :func:`_agglomerate_rowmin` (see
    ``tests/dme/test_topology_rowmin_property.py``)."""
    if not sinks:
        raise ValueError("cannot build a topology over zero sinks")
    clusters = [_leaf_cluster(s) for s in sinks]
    while len(clusters) > 1:
        best = (float("inf"), 0, 1)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                c = cost(clusters[i], clusters[j])
                if c < best[0]:
                    best = (c, i, j)
        _, i, j = best
        merged = _merge_clusters(clusters[i], clusters[j])
        # remove j first (j > i) to keep indices valid
        clusters.pop(j)
        clusters.pop(i)
        clusters.append(merged)
    return clusters[0].topo

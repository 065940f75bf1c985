"""Partitioning substrate for the hierarchical CTS flow (paper Section 3.2).

* :mod:`kmeans` — balanced K-means: Lloyd iterations (k-means++ seeded,
  deterministic) followed by capacity-respecting assignment, run on
  spatial blocks of at most 1,024 points;
* :mod:`mcf` — capacitated balanced assignment, the min-cost-flow step,
  solved exactly by rectangular assignment (scipy's compiled ``_lsap``,
  loaded without the ``scipy.optimize`` package);
* :mod:`clustering` — clusters, their capacitance estimate and the
  latency/capacitance-adaptive clustering cost
  Cost^k = p * var(Cap^k) + q * var(T^k);
* :mod:`annealing` — the simulated-annealing refinement with convex-hull
  boundary moves (paper Fig. 4).
"""

from repro.partition.kmeans import balanced_kmeans
from repro.partition.mcf import balanced_assign
from repro.partition.clustering import (
    Cluster,
    cluster_cap,
    clustering_cost,
)
from repro.partition.annealing import SAConfig, anneal_partition

__all__ = [
    "Cluster",
    "SAConfig",
    "anneal_partition",
    "balanced_assign",
    "balanced_kmeans",
    "cluster_cap",
    "clustering_cost",
]

"""Microbench: ``balanced_kmeans`` at the two ends of the halving ladder.

The placement is ``repro.perf.make_uniform_sinks(14000, 0)``, the
uniform 14k-sink design.  ``max_size`` 32 is its level-0 partition (one
pass over 16 spatial blocks, 438 clusters); 4 is the deepest rung the
flow's halving loop uses on a level whose clusters overrun the cap
budget (3500 clusters, every one filled to capacity).  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_partition.py
"""

from collections import Counter

import pytest

from repro.partition import balanced_kmeans
from repro.perf import make_uniform_sinks


@pytest.fixture(scope="module")
def points():
    sinks, _ = make_uniform_sinks(14000, 0)
    return [s.location for s in sinks]


@pytest.mark.parametrize("max_size", [32, 4])
def test_balanced_kmeans_uniform_14k(benchmark, points, max_size):
    centers, labels = benchmark.pedantic(
        balanced_kmeans, args=(points,),
        kwargs={"max_size": max_size, "seed": 0},
        rounds=3, iterations=1,
    )
    assert len(centers) == -(-len(points) // max_size)
    assert max(Counter(labels).values()) <= max_size

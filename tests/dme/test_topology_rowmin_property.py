"""Property test: the row-minimum agglomeration picks the *same merge
sequence* as the scalar reference — same topology, ties included.

The reference scans the upper triangle of its cluster list row-major
and keeps the first strict minimum.  Cluster ids follow creation order,
which is the reference's list order, so that pick is the least
``(cost, i, j)``; the production form caches each row's first minimum
over later ids, lets a new cluster (the largest id) replace a cached
partner only when strictly cheaper, and rescans a row whose partner was
merged.  Integer-snapped placements make exact cost ties common, which
is where any tie-break divergence would show up.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.dme.topology import _agglomerate_rowmin, greedy_dist, greedy_merge
from repro.geometry import Point
from repro.netlist.sink import Sink
from tests.dme.agglomerate_oracle import _agglomerate


def _random_sinks(seed: int, n: int, snapped: bool) -> list[Sink]:
    rng = random.Random(seed)
    sinks = []
    for i in range(n):
        if snapped:
            # small integer grid: many coincident/tied pair distances
            p = Point(float(rng.randint(0, 6)), float(rng.randint(0, 6)))
        else:
            p = Point(rng.uniform(0, 80.0), rng.uniform(0, 80.0))
        sinks.append(Sink(f"s{i}", p, cap=1.0))
    return sinks


def _sig(topo):
    if topo.sink is not None:
        return ("L", topo.sink.name)
    return ("M", _sig(topo.left), _sig(topo.right))


def _dist_cost(a, b):
    return a.region.distance(b.region)


def _merge_cost(a, b):
    return max(a.region.distance(b.region), abs(a.delay_est - b.delay_est))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    snapped=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_greedy_dist_matches_scalar_reference(seed, n, snapped):
    sinks = _random_sinks(seed, n, snapped)
    assert _sig(greedy_dist(sinks)) == _sig(_agglomerate(sinks, _dist_cost))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    snapped=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_greedy_merge_matches_scalar_reference(seed, n, snapped):
    sinks = _random_sinks(seed, n, snapped)
    assert _sig(greedy_merge(sinks)) == _sig(_agglomerate(sinks, _merge_cost))


def test_all_coincident_sinks_tie_break_identically():
    """Every pair costs exactly 0.0: pure tie-break stress."""
    sinks = [Sink(f"s{i}", Point(3.0, 3.0), cap=1.0) for i in range(12)]
    assert _sig(_agglomerate_rowmin(sinks, use_delay=False)) == \
        _sig(_agglomerate(sinks, _dist_cost))
    assert _sig(_agglomerate_rowmin(sinks, use_delay=True)) == \
        _sig(_agglomerate(sinks, _merge_cost))

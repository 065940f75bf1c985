"""Tests for merge-topology generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dme import (
    TOPOLOGY_GENERATORS,
    bi_cluster,
    bi_partition,
    greedy_dist,
    greedy_merge,
)
from repro.geometry import Point
from repro.netlist import Sink
from repro.netlist.topology import (
    topology_depth,
    topology_leaves,
    topology_size,
)


def make_sinks(n, seed=0):
    rng = random.Random(seed)
    return [
        Sink(f"s{i}", Point(rng.uniform(0, 75), rng.uniform(0, 75)))
        for i in range(n)
    ]


@pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
def test_all_generators_cover_all_sinks(name):
    gen = TOPOLOGY_GENERATORS[name]
    sinks = make_sinks(17, seed=3)
    topo = gen(sinks)
    leaves = topology_leaves(topo)
    assert sorted(s.name for s in leaves) == sorted(s.name for s in sinks)


@pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
def test_single_sink(name):
    gen = TOPOLOGY_GENERATORS[name]
    sinks = make_sinks(1)
    topo = gen(sinks)
    assert topo.is_leaf and topo.sink.name == "s0"


@pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
def test_empty_rejected(name):
    with pytest.raises(ValueError):
        TOPOLOGY_GENERATORS[name]([])


def test_bi_partition_is_balanced():
    sinks = make_sinks(32, seed=5)
    topo = bi_partition(sinks)
    # a median split of 32 leaves gives exactly depth 5
    assert topology_depth(topo) == 5


def test_bi_cluster_reasonably_balanced():
    sinks = make_sinks(32, seed=7)
    topo = bi_cluster(sinks)
    assert topology_depth(topo) <= 12


def test_greedy_dist_merges_nearest_first():
    # two tight pairs far apart: each pair must merge before the pairs join
    sinks = [
        Sink("a1", Point(0, 0)), Sink("a2", Point(1, 0)),
        Sink("b1", Point(100, 0)), Sink("b2", Point(101, 0)),
    ]
    topo = greedy_dist(sinks)
    assert not topo.is_leaf
    left_names = sorted(s.name for s in topology_leaves(topo.left))
    right_names = sorted(s.name for s in topology_leaves(topo.right))
    assert {tuple(left_names), tuple(right_names)} == {
        ("a1", "a2"), ("b1", "b2")
    }


def test_bi_cluster_coincident_sinks():
    sinks = [Sink(f"s{i}", Point(5, 5)) for i in range(6)]
    topo = bi_cluster(sinks)
    assert len(topology_leaves(topo)) == 6


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=999))
@settings(max_examples=25, deadline=None)
def test_generators_random_property(n, seed):
    sinks = make_sinks(n, seed=seed)
    for gen in (greedy_dist, greedy_merge, bi_partition, bi_cluster):
        topo = gen(sinks)
        assert len(topology_leaves(topo)) == n
        assert topology_size(topo) == 2 * n - 1  # a full binary tree

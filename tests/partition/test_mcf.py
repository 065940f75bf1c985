"""Tests for the min-cost-flow solver and balanced assignment."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, manhattan
from repro.obs.metrics import METRICS
from repro.partition import balanced_assign, min_cost_flow


def test_simple_path():
    # 0 -> 1 -> 2, capacities 5, costs 1 each
    cost, flows = min_cost_flow(
        3, [(0, 1, 5, 1.0), (1, 2, 5, 1.0)], source=0, sink=2, flow=3
    )
    assert cost == pytest.approx(6.0)
    assert flows == [3, 3]


def test_chooses_cheaper_route():
    edges = [
        (0, 1, 10, 1.0), (1, 3, 10, 1.0),   # cheap: cost 2
        (0, 2, 10, 5.0), (2, 3, 10, 5.0),   # expensive: cost 10
    ]
    cost, flows = min_cost_flow(4, edges, 0, 3, 5)
    assert cost == pytest.approx(10.0)
    assert flows[0] == 5 and flows[2] == 0


def test_splits_when_capacity_binds():
    edges = [
        (0, 1, 3, 1.0), (1, 3, 3, 1.0),
        (0, 2, 10, 5.0), (2, 3, 10, 5.0),
    ]
    cost, flows = min_cost_flow(4, edges, 0, 3, 5)
    # 3 units cheap (cost 2 each) + 2 units expensive (cost 10 each)
    assert cost == pytest.approx(3 * 2 + 2 * 10)


def test_infeasible_flow_raises():
    with pytest.raises(ValueError):
        min_cost_flow(2, [(0, 1, 1, 1.0)], 0, 1, 5)


def test_negative_cost_edges_supported():
    # Bellman-Ford potentials must handle an initial negative-cost edge
    edges = [(0, 1, 1, -2.0), (1, 2, 1, 1.0), (0, 2, 1, 5.0)]
    cost, flows = min_cost_flow(3, edges, 0, 2, 1)
    assert cost == pytest.approx(-1.0)


def brute_force_assignment_cost(points, centers, capacity):
    """Optimal balanced assignment by exhaustive search (tiny instances)."""
    n, k = len(points), len(centers)
    best = float("inf")
    for combo in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for c in combo:
            counts[c] += 1
        if max(counts) > capacity:
            continue
        cost = sum(manhattan(points[i], centers[combo[i]]) for i in range(n))
        best = min(best, cost)
    return best


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_balanced_assign_matches_bruteforce(n, k, seed):
    rng = random.Random(seed)
    points = [Point(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)]
    centers = [Point(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(k)]
    capacity = max(1, (n + k - 1) // k)
    if k * capacity < n:
        capacity += 1
    assignment = balanced_assign(points, centers, capacity, candidates=k)
    counts = [assignment.count(j) for j in range(k)]
    assert max(counts) <= capacity
    cost = sum(manhattan(points[i], centers[assignment[i]]) for i in range(n))
    assert cost == pytest.approx(
        brute_force_assignment_cost(points, centers, capacity), abs=1e-6
    )


def test_balanced_assign_respects_capacity_at_scale():
    rng = random.Random(1)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(12)]
    assignment = balanced_assign(points, centers, capacity=25)
    counts = [assignment.count(j) for j in range(12)]
    assert max(counts) <= 25
    assert sum(counts) == 300


def test_balanced_assign_greedy_fallback():
    rng = random.Random(2)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(200)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(10)]
    before = METRICS.counter("partition.assign_regret_greedy")
    assignment = balanced_assign(points, centers, capacity=20, exact_limit=10,
                                 lsa_limit=0)
    assert METRICS.counter("partition.assign_regret_greedy") == before + 1
    counts = [assignment.count(j) for j in range(10)]
    assert max(counts) <= 20 and sum(counts) == 200


def test_balanced_assign_infeasible():
    with pytest.raises(ValueError):
        balanced_assign([Point(0, 0)] * 5, [Point(0, 0)], capacity=4)


def test_balanced_assign_empty():
    assert balanced_assign([], [Point(0, 0)], capacity=1) == []

"""Tests for balanced (capacitated) assignment."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from repro.geometry import Point, manhattan
from repro.obs.metrics import METRICS
from repro.partition import balanced_assign


def xy(points):
    """The ``(n, 2)`` coordinate array ``balanced_assign`` takes."""
    return np.array([[p.x, p.y] for p in points]).reshape(-1, 2)


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
    assignment = balanced_assign(xy(points), xy(centers), capacity).tolist()
    counts = [assignment.count(j) for j in range(k)]
    assert max(counts) <= capacity
    cost = sum(manhattan(points[i], centers[assignment[i]]) for i in range(n))
    assert cost == pytest.approx(
        brute_force_assignment_cost(points, centers, capacity), abs=1e-6
    )


def transportation_lp_cost(points, centers, capacity):
    """Optimum of the transportation LP (each point assigned once, each
    center holding at most ``capacity``).  Its constraint matrix is
    totally unimodular, so this is the exact integer assignment cost."""
    n, k = len(points), len(centers)
    cost = np.array([[manhattan(p, c) for c in centers] for p in points])
    res = linprog(
        cost.ravel(),
        A_ub=np.kron(np.ones(n), np.eye(k)), b_ub=np.full(k, capacity),
        A_eq=np.kron(np.eye(n), np.ones(k)), b_eq=np.ones(n),
        bounds=(0, 1), method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


@given(st.integers(min_value=20, max_value=60),
       st.integers(min_value=6, max_value=12),
       st.integers(min_value=0, max_value=10**6))
# every optimum here sends some point beyond its 5 nearest centers: with
# arcs only to those, the best assignment costs 748.98 um, not 745.85
@example(n=42, k=7, seed=22)
@settings(max_examples=40, deadline=None)
def test_balanced_assign_cost_is_transportation_lp_optimum(n, k, seed):
    rng = random.Random(seed)
    points = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n)]
    centers = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(k)]
    capacity = math.ceil(n / k)
    assignment = balanced_assign(xy(points), xy(centers), capacity).tolist()
    assert max(assignment.count(j) for j in range(k)) <= capacity
    cost = sum(manhattan(points[i], centers[assignment[i]]) for i in range(n))
    assert cost == pytest.approx(
        transportation_lp_cost(points, centers, capacity), rel=1e-9, abs=1e-6
    )


def test_balanced_assign_respects_capacity_at_scale():
    rng = random.Random(1)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(300)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(12)]
    assignment = balanced_assign(xy(points), xy(centers), capacity=25)
    counts = np.bincount(assignment, minlength=12).tolist()
    assert max(counts) <= 25
    assert sum(counts) == 300


def test_balanced_assign_refuses_oversized_instance():
    # 2,001 x 100 x 201 is just over the 40 M-entry budget; the old
    # greedy tier would have answered approximately
    rng = random.Random(2)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100))
              for _ in range(2001)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100))
               for _ in range(100)]
    before = METRICS.counter("partition.assign_lsa")
    with pytest.raises(ValueError, match="exact assignment budget"):
        balanced_assign(xy(points), xy(centers), capacity=201)
    assert METRICS.counter("partition.assign_lsa") == before


def test_balanced_assign_infeasible():
    with pytest.raises(ValueError):
        balanced_assign(np.zeros((5, 2)), np.zeros((1, 2)), capacity=4)


def test_balanced_assign_empty():
    labels = balanced_assign(np.empty((0, 2)), np.zeros((1, 2)), capacity=1)
    assert labels.dtype == np.int64 and labels.size == 0


def test_assign_cost_is_observed_as_a_left_to_right_sum(monkeypatch):
    """``partition.assign_cost_um`` adds the assigned distances in row
    order, as a Python loop would; numpy's pairwise ``sum`` rounds
    differently on this instance."""
    rng = random.Random(3)
    points = [Point(rng.uniform(0, 100), rng.uniform(0, 100))
              for _ in range(300)]
    centers = [Point(rng.uniform(0, 100), rng.uniform(0, 100))
               for _ in range(12)]
    observed = []
    monkeypatch.setattr(METRICS, "observe",
                        lambda name, value: observed.append((name, value)))
    labels = balanced_assign(xy(points), xy(centers), capacity=25)
    chosen = [manhattan(p, centers[j]) for p, j in zip(points, labels)]
    total = 0.0
    for d in chosen:
        total += d
    assert observed == [("partition.assign_cost_um", total)]
    assert float(np.sum(chosen)) != total

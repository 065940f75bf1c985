"""Tests for (balanced) K-means."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.partition.kmeans as kmeans_mod
from repro.geometry import Point
from repro.partition import balanced_kmeans


def two_blobs(rng, n_per=20, sep=100.0):
    pts = [Point(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(n_per)]
    pts += [Point(rng.gauss(sep, 3), rng.gauss(sep, 3)) for _ in range(n_per)]
    return pts


def xy(points):
    return np.array([[p.x, p.y] for p in points])


def test_kmeans_separates_blobs():
    rng = random.Random(0)
    pts = two_blobs(rng)
    centers, labels = kmeans_mod._lloyd(xy(pts), 2, seed=1)
    left = {labels[i] for i in range(20)}
    right = {labels[i] for i in range(20, 40)}
    assert len(left) == 1 and len(right) == 1 and left != right


def test_kmeans_determinism():
    rng = random.Random(3)
    coords = xy(two_blobs(rng))
    a = kmeans_mod._lloyd(coords, 3, seed=7)
    b = kmeans_mod._lloyd(coords, 3, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_kmeans_validation():
    with pytest.raises(ValueError, match="at least one point"):
        balanced_kmeans([], max_size=2)


def test_nearest_center_labels_take_lowest_index_in_every_chunk(monkeypatch):
    # a 4 x 4 lattice makes equal Manhattan distances the norm
    rng = np.random.default_rng(3)
    coords = rng.integers(0, 4, size=(51, 2)).astype(float)
    centers = rng.integers(0, 4, size=(7, 2)).astype(float)
    expected = [
        min(range(7), key=lambda j: (abs(x - centers[j, 0])
                                     + abs(y - centers[j, 1]), j))
        for x, y in coords.tolist()
    ]
    assert kmeans_mod._nearest_center_labels(coords, centers).tolist() == expected
    # 2 rows a chunk with a 1-row tail; then 1 row, below one row's size
    for chunk in (20, 5):
        monkeypatch.setattr(kmeans_mod, "_CHUNK_ELEMS", chunk)
        assert kmeans_mod._nearest_center_labels(coords, centers).tolist() == expected


def test_balanced_kmeans_respects_max_size():
    rng = random.Random(5)
    pts = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(97)]
    centers, labels = balanced_kmeans(pts, max_size=10, seed=2)
    counts = [labels.count(j) for j in range(len(centers))]
    assert max(counts) <= 10
    assert sum(counts) == 97


def test_balanced_kmeans_validation():
    with pytest.raises(ValueError):
        balanced_kmeans([Point(0, 0)], max_size=0)


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_balanced_kmeans_property(n, max_size, seed):
    rng = random.Random(seed)
    pts = [Point(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(n)]
    centers, labels = balanced_kmeans(pts, max_size=max_size, seed=seed)
    assert len(labels) == n
    counts = {}
    for l in labels:
        counts[l] = counts.get(l, 0) + 1
    assert max(counts.values()) <= max_size

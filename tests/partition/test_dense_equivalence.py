"""Differential tests: the kd-tree partition kernels against the dense
n x k oracles in ``dense_oracles``.

Every property demands byte equality, not approximate agreement, and
the inputs are built to be tie-heavy: integer-snapped lattices put many
centers at equal Manhattan distance, and duplicate points and
coincident centers tie exactly.
"""

import importlib
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.obs.metrics import METRICS
from tests.partition import dense_oracles as oracle

# ``repro.partition`` re-exports the ``kmeans`` function under the
# module's name, so bind the module explicitly.
kmeans_mod = importlib.import_module("repro.partition.kmeans")


def _coordinate(lattice):
    if lattice is None:
        # ``+ 0.0`` folds a -0.0 draw into 0.0: placements never carry
        # signed zeros, and np.median may return either sign of an
        # all-zero group
        return st.floats(0, 100, allow_nan=False).map(lambda v: v + 0.0)
    return st.integers(0, lattice).map(float)


@st.composite
def placements(draw):
    """(points, centers) arrays; small lattices make ties the norm."""
    lattice = draw(st.sampled_from([2, 5, 12, None]))
    point = st.tuples(_coordinate(lattice), _coordinate(lattice))
    k = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 64),
                       st.integers(66, 120)))
    pts = draw(st.lists(point, min_size=1, max_size=160))
    if draw(st.booleans()):
        pts += pts[: draw(st.integers(1, len(pts)))]  # duplicate points
    ctr = draw(st.lists(point, min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        ctr[1:k // 2 + 1] = [ctr[0]] * (k // 2)  # coincident centers
    return np.array(pts, dtype=float), np.array(ctr, dtype=float)


def _bytes_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(placements())
@settings(max_examples=80, deadline=None)
def test_labels_match_dense(case):
    pts, ctr = case
    assert _bytes_equal(kmeans_mod._nearest_center_labels(pts, ctr),
                        oracle.nearest_center_labels(pts, ctr))


@given(placements(), st.data())
@settings(max_examples=80, deadline=None)
def test_group_medians_match_dense(case, data):
    pts, ctr = case
    k = len(ctr)
    # arbitrary labels leave some groups empty (they keep their center)
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1),
                                         min_size=len(pts), max_size=len(pts))),
                      dtype=np.int64)
    assert _bytes_equal(kmeans_mod._group_medians(pts, labels, ctr),
                        oracle.group_medians(pts, labels, ctr))


@given(placements(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_kmeans_pp_init_matches_dense(case, seed):
    pts, ctr = case
    k = min(len(ctr), len(pts))
    assert _bytes_equal(kmeans_mod._kmeans_pp_init(pts, k, seed),
                        oracle.kmeans_pp_init(pts, k, seed))


def test_balanced_kmeans_matches_dense_pipeline(monkeypatch):
    rng = np.random.default_rng(11)
    coords = rng.integers(0, 60, size=(1492, 2)).astype(float)
    points = [Point(float(x), float(y)) for x, y in coords]
    before = METRICS.counter("partition.assign_lsa")
    got = kmeans_mod.balanced_kmeans(points, max_size=4, seed=5)
    # half of 1492 points is 186.5 clusters of 4; the tie goes to the
    # even 186, so the cut is at 744 (rounding half up would give 748):
    # two blocks, each rebalanced by one exact solve
    blocks = oracle.spatial_blocks(coords, 4, kmeans_mod._BLOCK)
    assert [len(b) for b in blocks] == [744, 748]
    assert METRICS.counter("partition.assign_lsa") == before + 2

    monkeypatch.setattr(kmeans_mod, "_nearest_center_labels",
                        oracle.nearest_center_labels)
    monkeypatch.setattr(kmeans_mod, "_group_medians", oracle.group_medians)
    monkeypatch.setattr(kmeans_mod, "_kmeans_pp_init", oracle.kmeans_pp_init)
    centers, labels = [], [None] * len(points)
    for block in blocks:
        c, lab = kmeans_mod.balanced_kmeans([points[i] for i in block],
                                            max_size=4, seed=5)
        for i, label in zip(block, lab):
            labels[i] = label + len(centers)
        centers += c
    assert repr(got) == repr((centers, labels))


@st.composite
def block_placements(draw):
    """Placements of up to 300 points, tie-heavy on small lattices."""
    lattice = draw(st.sampled_from([3, 20, None]))
    point = st.tuples(_coordinate(lattice), _coordinate(lattice))
    pts = draw(st.lists(point, min_size=1, max_size=300))
    if draw(st.booleans()):
        pts += pts[: draw(st.integers(1, len(pts)))]  # duplicate points
    return [Point(x, y) for x, y in pts]


@given(block_placements(), st.integers(1, 100), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_blocked_balanced_kmeans_properties(points, max_size, seed):
    block = 64  # below and above max_size across the draws
    with mock.patch.object(kmeans_mod, "_BLOCK", block):
        centers, labels = kmeans_mod.balanced_kmeans(points, max_size, seed)
        again = kmeans_mod.balanced_kmeans(points, max_size, seed)
    assert repr(again) == repr((centers, labels))
    n = len(points)
    assert len(centers) == math.ceil(n / max_size)
    assert len(labels) == n
    assert all(0 <= label < len(centers) for label in labels)
    counts = np.bincount(labels, minlength=len(centers))
    assert counts.max() <= max_size
    coords = np.array([[p.x, p.y] for p in points])
    blocks = oracle.spatial_blocks(coords, max_size, block)
    where = {i: b for b, members in enumerate(blocks) for i in members}
    spans = {}
    for i, label in enumerate(labels):
        spans.setdefault(label, set()).add(where[i])
    assert all(len(s) == 1 for s in spans.values())

"""Differential tests: the kd-tree partition kernels against the dense
n x k oracles in ``dense_oracles``.

Every property demands byte equality, not approximate agreement, and
the inputs are built to be tie-heavy: integer-snapped lattices put many
centers at equal Manhattan distance, duplicate points and coincident
centers tie exactly, and capacity 1 exhausts the regret tier's
candidate windows so the dense-row fallback runs.
"""

import functools
import importlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.obs.metrics import METRICS
from tests.partition import dense_oracles as oracle

# ``repro.partition`` re-exports the ``kmeans`` function under the
# module's name, so bind the modules explicitly.
kmeans_mod = importlib.import_module("repro.partition.kmeans")
mcf_mod = importlib.import_module("repro.partition.mcf")


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


def _columns(a):
    return a[:, 0].copy(), a[:, 1].copy()


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


@given(placements(), st.sampled_from(["one", "tight", "loose"]), st.data())
@settings(max_examples=100, deadline=None)
def test_regret_greedy_matches_dense(case, mode, data):
    pts, ctr = case
    k = len(ctr)
    if mode == "one":
        pts = pts[:k]  # capacity 1 needs k >= n
        capacity = 1
    else:
        capacity = -(-len(pts) // k)
        if mode == "loose":
            capacity += data.draw(st.integers(1, 3))
    px, py = _columns(pts)
    cx, cy = _columns(ctr)
    assert mcf_mod._regret_greedy_kd(px, py, cx, cy, capacity) == \
        oracle.regret_greedy(oracle.dense_dists(px, py, cx, cy), capacity)


def test_capacity_one_lattice_exercises_dense_fallback():
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 20, size=(300, 2)).astype(float)
    ctr = rng.integers(0, 20, size=(300, 2)).astype(float)
    px, py = _columns(pts)
    cx, cy = _columns(ctr)
    before = METRICS.counter("partition.exact_fallback_rows")
    got = mcf_mod._regret_greedy_kd(px, py, cx, cy, 1)
    assert METRICS.counter("partition.exact_fallback_rows") > before
    assert got == oracle.regret_greedy(oracle.dense_dists(px, py, cx, cy), 1)
    assert sorted(got) == list(range(300))


def test_balanced_kmeans_matches_dense_pipeline(monkeypatch):
    rng = np.random.default_rng(11)
    coords = rng.integers(0, 60, size=(1500, 2)).astype(float)
    points = [Point(float(x), float(y)) for x, y in coords]
    # route the rebalance through the regret tier, as at flow scale
    monkeypatch.setattr(kmeans_mod, "balanced_assign",
                        functools.partial(mcf_mod.balanced_assign, lsa_limit=0))
    before = METRICS.counter("partition.assign_regret_greedy")
    got = kmeans_mod.balanced_kmeans(points, max_size=4, seed=5)
    assert METRICS.counter("partition.assign_regret_greedy") == before + 1

    monkeypatch.setattr(kmeans_mod, "_nearest_center_labels",
                        oracle.nearest_center_labels)
    monkeypatch.setattr(kmeans_mod, "_group_medians", oracle.group_medians)
    monkeypatch.setattr(kmeans_mod, "_kmeans_pp_init", oracle.kmeans_pp_init)
    monkeypatch.setattr(
        mcf_mod, "_regret_greedy_kd",
        lambda px, py, cx, cy, cap: oracle.regret_greedy(
            oracle.dense_dists(px, py, cx, cy), cap),
    )
    assert repr(got) == repr(kmeans_mod.balanced_kmeans(points, max_size=4,
                                                        seed=5))

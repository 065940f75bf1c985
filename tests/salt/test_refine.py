"""Unit tests for the refinement passes (median + edge reattachment)."""

import itertools
import random

import pytest

from repro.geometry import Point, manhattan
from repro.netlist import ClockNet, RoutedTree, Sink
from repro.rsmt import rsmt
from repro.salt.refine import (
    _nearest_on_l,
    _RefineState,
    edge_reattach_pass,
    refine,
)
from tests.salt import brute_oracle


def test_nearest_on_l_endpoints_and_corner():
    qx, qy, walk, d = _nearest_on_l(0.0, 0.0, 10.0, 6.0, 0.0, 0.0)
    assert (qx, qy, walk, d) == (0.0, 0.0, 0.0, 0.0)
    qx, qy, walk, d = _nearest_on_l(0.0, 0.0, 10.0, 6.0, 10.0, 6.0)
    assert (qx, qy, d) == (10.0, 6.0, 0.0)
    assert walk == pytest.approx(16.0)
    # a point beside one leg projects onto it
    qx, qy, walk, d = _nearest_on_l(0.0, 0.0, 10.0, 6.0, 5.0, -2.0)
    assert qy in (0.0, 6.0) or qx in (0.0, 10.0)
    assert d == manhattan(Point(qx, qy), Point(5.0, -2.0))
    assert d <= manhattan(Point(0.0, 0.0), Point(5.0, -2.0))


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def test_nearest_on_l_matches_oracle_bit_for_bit():
    """The float form returns the Point oracle's point, walk and
    distance exactly, signed zeros and 1e-12 near-ties included."""
    values = (-0.0, 0.0, -1.5, 2.0, 3.0, 3.0 + 4e-13, 7.25)
    for ax, ay, bx, by, tx, ty in itertools.product(values, repeat=6):
        q, walk = brute_oracle._nearest_on_l(
            Point(ax, ay), Point(bx, by), Point(tx, ty))
        d = manhattan(q, Point(tx, ty))
        got = _nearest_on_l(ax, ay, bx, by, tx, ty)
        assert _bits(*got) == _bits(q.x, q.y, walk, d), (
            (ax, ay, bx, by, tx, ty))


def test_reattach_finds_obvious_overlap():
    """A sink hanging off the root next to a long edge should re-home."""
    tree = RoutedTree(Point(0, 0))
    far = tree.add_child(tree.root, Point(100, 0),
                         sink=Sink("far", Point(100, 0)))
    tree.add_child(tree.root, Point(50, 1),
                   sink=Sink("near_edge", Point(50, 1)))
    before = tree.wirelength()  # 100 + 51
    gain = edge_reattach_pass(tree)
    assert gain > 0
    assert tree.wirelength() == pytest.approx(before - gain)
    assert tree.wirelength() == pytest.approx(101.0)  # 100 + 1 stub
    tree.validate()


@pytest.mark.parametrize("endpoint", ["parent", "child"])
def test_reattach_at_an_edge_endpoint_discards_it(endpoint):
    """A mover attached at an existing endpoint of the target edge
    changes that node's children, so it leaves the clean set with the
    mover and the mover's old parent; untouched nodes stay clean."""
    tree = RoutedTree(Point(0, 0))
    if endpoint == "parent":
        # v's nearest point on root -> w is the root itself
        w = tree.add_child(tree.root, Point(30, 30))
        v = tree.add_child(w, Point(-3, -4), sink=Sink("v", Point(-3, -4)))
        target, untouched = tree.root, set()
    else:
        # v's nearest point on root -> b is b itself
        b = tree.add_child(tree.root, Point(0, 10),
                           sink=Sink("b", Point(0, 10)))
        w = tree.add_child(tree.root, Point(30, -30))
        v = tree.add_child(w, Point(1, 12), sink=Sink("v", Point(1, 12)))
        target, untouched = b, {tree.root}
    n_nodes = len(tree)
    state = _RefineState()
    state.clean.update(tree.node_ids())

    assert edge_reattach_pass(tree, state=state) > 0
    assert len(tree) == n_nodes  # no split node was needed
    assert tree.node(v).parent == target
    assert state.clean == untouched


def test_reattach_never_lengthens_paths():
    rng = random.Random(5)
    for _ in range(5):
        pts = [Point(rng.uniform(0, 60), rng.uniform(0, 60))
               for _ in range(14)]
        net = ClockNet("n", Point(0, 0),
                       [Sink(f"s{i}", p) for i, p in enumerate(pts)])
        tree = rsmt(net)
        before = tree.sink_path_lengths()
        names_before = {
            tree.node(n).sink.name: pl for n, pl in before.items()
        }
        edge_reattach_pass(tree)
        after = {
            tree.node(n).sink.name: pl
            for n, pl in tree.sink_path_lengths().items()
        }
        for name, pl in after.items():
            assert pl <= names_before[name] + 1e-6


def test_reattach_skips_detoured_edges():
    tree = RoutedTree(Point(0, 0))
    far = tree.add_child(tree.root, Point(100, 0),
                         sink=Sink("far", Point(100, 0)))
    near = tree.add_child(tree.root, Point(50, 1),
                          sink=Sink("near", Point(50, 1)))
    tree.set_detour(near, 5.0)  # deliberate snaking: must not be rerouted
    assert edge_reattach_pass(tree) == 0.0
    tree.set_detour(near, 0.0)
    tree.set_detour(far, 5.0)   # target edge snaked: not a reattach target
    assert edge_reattach_pass(tree) == 0.0


def test_refine_terminates_and_validates():
    rng = random.Random(9)
    pts = [Point(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(20)]
    net = ClockNet("n", Point(20, 20),
                   [Sink(f"s{i}", p) for i, p in enumerate(pts)])
    tree = rsmt(net)
    saved = refine(tree)
    assert saved >= -1e-9
    tree.validate()
    # idempotence: a second refine finds (almost) nothing
    assert refine(tree) == pytest.approx(0.0, abs=1e-6)

"""Property test: the grid-indexed reattachment pass is *identical* to
the brute-force reference — same tree, same gain, bit for bit.

The claim the implementation rests on (docs/ALGORITHMS.md): the bbox
lower bound makes grid pruning exact, candidates are evaluated in the
same ascending-id order so ties break identically, and the dirty-region
worklist only ever skips evaluations that provably return "no move".
Hypothesis hunts for counterexamples on random trees, including
integer-snapped placements where exact distance ties are common.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.geometry import Point
from repro.netlist import ClockNet, Sink
from repro.netlist.tree_ops import prune_redundant_steiner
from repro.rsmt import rsmt
from repro.rsmt.steinerize import median_steinerize
from repro.salt.refine import edge_reattach_pass, refine
from tests.salt.brute_oracle import _edge_reattach_brute


#: Nets the random search rarely reaches, pinned as explicit examples of
#: both brute-force properties below.  Each exposes a deliberately broken
#: grid pass that the random examples alone let through: the first a
#: halved dirty-region radius or a moved subtree's edges missing from
#: the event log, the second a path-length budget loosened by 1 um.
_PINNED = ({"seed": 12, "n_pins": 20, "snapped": False},
           {"seed": 85, "n_pins": 11, "snapped": False})


def _random_net(seed: int, n_pins: int, snapped: bool) -> ClockNet:
    rng = random.Random(seed)
    pts: list[Point] = []
    while len(pts) < n_pins + 1:
        if snapped:
            p = Point(float(rng.randint(0, 12)), float(rng.randint(0, 12)))
        else:
            p = Point(rng.uniform(0, 60.0), rng.uniform(0, 60.0))
        if all(q.manhattan_to(p) > 1e-6 for q in pts):
            pts.append(p)
    return ClockNet(
        "n", pts[0],
        [Sink(f"s{i}", p, cap=1.0) for i, p in enumerate(pts[1:])],
    )


def _signature(tree):
    return [
        (nid, tree.node(nid).parent, tree.node(nid).location.x,
         tree.node(nid).location.y, tree.node(nid).detour)
        for nid in sorted(tree.node_ids())
    ]


def _brute_refine(tree, max_passes: int = 6) -> float:
    """The pre-index refine loop, reconstructed verbatim."""
    before = tree.wirelength()
    for _ in range(max_passes):
        gained = median_steinerize(tree)
        gained += _edge_reattach_brute(tree, 1e-9)
        if gained <= 1e-9:
            break
    prune_redundant_steiner(tree)
    return before - tree.wirelength()


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 28),
    snapped=st.booleans(),
)
@settings(max_examples=60, deadline=None)
@example(**_PINNED[0])
@example(**_PINNED[1])
def test_indexed_pass_matches_brute_force(seed, n_pins, snapped):
    net = _random_net(seed, n_pins, snapped)
    brute = rsmt(net)
    indexed = brute.copy()

    gain_brute = _edge_reattach_brute(brute, 1e-9)
    gain_indexed = edge_reattach_pass(indexed)

    assert gain_indexed == gain_brute  # exact, not approx
    assert _signature(indexed) == _signature(brute)
    assert indexed.wirelength() == brute.wirelength()
    indexed.validate()


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 24),
    snapped=st.booleans(),
)
@settings(max_examples=40, deadline=None)
@example(**_PINNED[0])
@example(**_PINNED[1])
def test_full_refine_matches_brute_force(seed, n_pins, snapped):
    """The dirty-region worklist carried across median/reattach rounds
    must not change a single move."""
    net = _random_net(seed, n_pins, snapped)
    brute = rsmt(net)
    indexed = brute.copy()

    gain_brute = _brute_refine(brute)
    gain_indexed = refine(indexed, validate=True)

    assert gain_indexed == gain_brute
    assert _signature(indexed) == _signature(brute)


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 28),
    snapped=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_reattach_shallowness_invariant(seed, n_pins, snapped):
    """No source-to-sink path ever lengthens, and the tree stays valid."""
    net = _random_net(seed, n_pins, snapped)
    tree = rsmt(net)
    before = {
        tree.node(nid).sink.name: pl
        for nid, pl in tree.sink_path_lengths().items()
    }
    wl_before = tree.wirelength()

    gain = edge_reattach_pass(tree)

    tree.validate()
    assert gain >= 0.0
    assert tree.wirelength() <= wl_before + 1e-9
    after = {
        tree.node(nid).sink.name: pl
        for nid, pl in tree.sink_path_lengths().items()
    }
    for name, pl in after.items():
        assert pl <= before[name] + 1e-6

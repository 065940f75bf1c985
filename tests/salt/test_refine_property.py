"""Property test: the grid-indexed reattachment pass is *identical* to
the brute-force reference — same tree, same gain, bit for bit.

The claim the implementation rests on (docs/ALGORITHMS.md): the bbox
lower bound makes grid pruning exact, candidates are evaluated in the
same ascending-id order so ties break identically, and the dirty-region
worklist only ever skips evaluations that provably return "no move".
Hypothesis hunts for counterexamples on random trees, including
integer-snapped placements where exact distance ties are common.

The same holds for median steinerisation: production must match the
full-pass oracle alone, and with a clean set carried across calls.
Random trees rarely make a skipped node gain, so the clean-set contract
(every node whose parent or children change is discarded) is also
checked structurally, one mutation at a time.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.geometry import Point
from repro.netlist import ClockNet, Sink
from repro.netlist.tree_ops import prune_redundant_steiner, tree_from_parent_map
from repro.rsmt import rectilinear_mst, rsmt
from repro.rsmt.steinerize import (
    _collapse_children_pairs,
    _collapse_parent_child,
    median_steinerize,
)
from repro.salt.refine import _RefineState, edge_reattach_pass, refine
from tests.salt import brute_oracle
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


def _mst_tree(net: ClockNet):
    """The net's rectilinear MST, before any steinerisation."""
    points = [net.source] + [s.location for s in net.sinks]
    parents = rectilinear_mst(points, root=0)
    return tree_from_parent_map(
        net.source, points[1:], [p - 1 for p in parents[1:]],
        dict(enumerate(net.sinks)),
    )


def _signature(tree):
    # children order sets later traversal order and tie-breaks
    return [
        (nid, tree.node(nid).parent, tuple(tree.node(nid).children),
         tree.node(nid).location.x, tree.node(nid).location.y,
         tree.node(nid).detour)
        for nid in sorted(tree.node_ids())
    ]


def _structure(tree):
    return {nid: (tree.node(nid).parent, tuple(tree.node(nid).children))
            for nid in tree.node_ids()}


def _restructured(before, tree):
    """Ids of the nodes that are new or whose parent or children changed."""
    after = _structure(tree)
    return {nid for nid, shape in after.items() if before.get(nid) != shape}


def _brute_refine(tree, max_passes: int = 6) -> float:
    """The pre-index refine loop, reconstructed verbatim."""
    before = tree.wirelength()
    for _ in range(max_passes):
        gained = brute_oracle.median_steinerize(tree)
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


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 28),
    snapped=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_median_steinerize_matches_oracle(seed, n_pins, snapped):
    """Called alone, as rsmt calls it, production makes the oracle's
    collapses and logs the same dirty regions."""
    tree = _mst_tree(_random_net(seed, n_pins, snapped))
    ref = tree.copy()
    changes, ref_changes = [], []

    gain = median_steinerize(tree, changes=changes)
    ref_gain = brute_oracle.median_steinerize(ref, changes=ref_changes)

    assert gain == ref_gain
    assert _signature(tree) == _signature(ref)
    assert changes == ref_changes


def _mutate(tree, rng, clean):
    """One random external edit, applied as a caller of the clean-set
    contract must: discard every node whose parent or children change.
    Returns the edit so it can be replayed on another copy."""
    ids = tree.node_ids()
    if rng.random() < 0.5:
        movers = [nid for nid in ids if nid != tree.root]
        nid = rng.choice(movers)
        blocked = {nid}
        stack = [nid]
        while stack:
            for c in tree.node(stack.pop()).children:
                blocked.add(c)
                stack.append(c)
        target = rng.choice([x for x in ids if x not in blocked])
        edit = ("reparent", nid, target)
    else:
        anchor = tree.node(rng.choice(ids)).location
        edit = ("add_child", rng.choice(ids),
                Point(anchor.x + rng.choice((-4.0, 0.0, 3.0)),
                      anchor.y + rng.choice((-2.0, 0.0, 5.0))))
    _apply(tree, edit, clean)
    return edit


def _apply(tree, edit, clean=None):
    kind, nid, arg = edit
    if kind == "reparent":
        touched = (nid, tree.node(nid).parent, arg)
        tree.reparent(nid, arg)
    else:
        touched = (nid,)
        tree.add_child(nid, arg)
    if clean is not None:
        clean.difference_update(touched)


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 20),
    snapped=st.booleans(),
    rounds=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_median_clean_set_matches_from_scratch(seed, n_pins, snapped,
                                               rounds):
    """A clean set carried across calls, with external reparent /
    add_child edits in between that discard the nodes they touch, gives
    exactly the oracle's full-pass result after every call."""
    rng = random.Random(seed)
    tree = _mst_tree(_random_net(seed, n_pins, snapped))
    ref = tree.copy()
    clean: set[int] = set()
    for _ in range(rounds):
        gain = median_steinerize(tree, clean=clean)
        ref_gain = brute_oracle.median_steinerize(ref)
        assert gain == ref_gain
        assert _signature(tree) == _signature(ref)
        for _ in range(rng.randint(1, 3)):
            _apply(ref, _mutate(tree, rng, clean))
    assert median_steinerize(tree, clean=clean) \
        == brute_oracle.median_steinerize(ref)
    assert _signature(tree) == _signature(ref)


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(3, 20),
    snapped=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_median_collapses_discard_restructured_nodes(seed, n_pins, snapped):
    """Each collapse discards from the clean set every node whose parent
    or children it changed (the Steiner node it adds is never clean)."""
    base = _mst_tree(_random_net(seed, n_pins, snapped))
    for nid in base.node_ids():
        for collapse in (_collapse_children_pairs, _collapse_parent_child):
            tree = base.copy()
            clean = set(tree.node_ids())
            before = _structure(tree)
            collapse(tree, nid, 1e-9, None, clean)
            assert not _restructured(before, tree) & clean


@given(
    seed=st.integers(0, 10_000),
    n_pins=st.integers(2, 28),
    snapped=st.booleans(),
)
@settings(max_examples=30, deadline=None)
@example(**_PINNED[0])
@example(**_PINNED[1])
def test_reattach_discards_restructured_nodes(seed, n_pins, snapped):
    """A reattachment pass discards from the clean set every node whose
    parent or children it changed, and keeps every other node."""
    tree = rsmt(_random_net(seed, n_pins, snapped))
    state = _RefineState()
    state.clean.update(tree.node_ids())
    before = _structure(tree)

    edge_reattach_pass(tree, state=state)

    changed = _restructured(before, tree)
    assert not changed & state.clean
    assert state.clean == set(before) - changed

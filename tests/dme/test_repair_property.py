"""Property test: ``repair_skew`` leaves every tree exactly as the
reference repair (``repair_oracle``) does — each node's location and
detour, and the returned wire, bit for bit.

The production kernel reads each child's location, detour, delay
interval and load once per node, keeps candidates as float pairs, and
skips pricing a candidate whose wire alone cannot beat the best by the
1e-12 margin (snaking only adds length).  The inputs make those
shortcuts matter: coordinates snapped to a small lattice, so candidate
costs tie; detours on the edges below a re-embedded node; sink caps and
subtree delays drawn from a few values; both delay models; relocation
on and off; and snaking budgets from none to exhausted.
"""

import importlib
import random
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core import cbs
from repro.dme import ElmoreDelay
from repro.dme.models import LinearDelay
from repro.dme.repair import repair_skew
from repro.geometry import Point
from repro.netlist import ClockNet, RoutedTree, Sink
from repro.tech import Technology
from tests.dme import repair_oracle

MODELS = {"elmore": ElmoreDelay(Technology()), "linear": LinearDelay()}
CAPS = (0.5, 1.0, 2.0, 3.7)
DELAYS = (0.0, 0.0, 1.5, 7.0, 20.0)
DETOURS = (0.0, 0.0, 0.0, 0.5, 3.0)


def _coord(rng: random.Random, snapped: bool) -> float:
    return float(rng.randint(0, 6)) if snapped else rng.uniform(0.0, 40.0)


def _sink(rng: random.Random, name: str, snapped: bool) -> Sink:
    return Sink(name, Point(_coord(rng, snapped), _coord(rng, snapped)),
                cap=rng.choice(CAPS), subtree_delay=rng.choice(DELAYS))


def hand_built_tree(seed: int, n: int, snapped: bool) -> RoutedTree:
    """A random binary tree: sinks as leaves, Steiner nodes at lattice
    points or at a child, random detours on the edges."""
    rng = random.Random(seed)
    # (location, sink or None, children) subtrees, merged in random pairs
    parts = [(s.location, s, []) for s in
             (_sink(rng, f"s{i}", snapped) for i in range(n))]
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        if rng.random() < 0.3:
            loc = rng.choice((a[0], b[0]))
        else:
            loc = Point(_coord(rng, snapped), _coord(rng, snapped))
        parts.append((loc, None, [a, b]))
    tree = RoutedTree(Point(_coord(rng, snapped), _coord(rng, snapped)))
    stack = [(tree.root, parts[0])]
    while stack:
        parent, (loc, sink, children) = stack.pop()
        nid = tree.add_child(parent, loc, sink=sink,
                             detour=rng.choice(DETOURS))
        stack.extend((nid, child) for child in children)
    return tree


def cbs_step4_tree(seed: int, n: int, snapped: bool,
                   model: str, bound: float) -> RoutedTree:
    """The tree CBS hands Step 5's repair for a random net."""
    rng = random.Random(seed)
    sinks, seen = [], set()
    while len(sinks) < n:
        s = _sink(rng, f"s{len(sinks)}", snapped)
        if (s.location.x, s.location.y) not in seen:
            seen.add((s.location.x, s.location.y))
            sinks.append(s)
    net = ClockNet("n", Point(_coord(rng, snapped), _coord(rng, snapped)),
                   sinks)
    captured = []

    def capture(tree, *args, **kwargs):
        captured.append(tree.copy())
        return repair_skew(tree, *args, **kwargs)

    # the module, not the function ``repro.core`` re-exports by its name
    module = importlib.import_module("repro.core.cbs")
    with mock.patch.object(module, "repair_skew", capture):
        cbs(net, bound, model=MODELS[model])
    (tree,) = captured
    return tree


def _outcome(repair, tree, bound, model, relocate, budget):
    tree = tree.copy()
    added = repair(tree, bound, model=MODELS[model], relocate=relocate,
                   max_extra_wl=budget)
    nodes = [(nid, repr(tree.node(nid).location.x),
              repr(tree.node(nid).location.y), repr(tree.node(nid).detour),
              tree.node(nid).parent, list(tree.node(nid).children))
             for nid in tree.node_ids()]
    return nodes, repr(added)


params = dict(
    seed=st.integers(0, 10_000),
    snapped=st.booleans(),
    model=st.sampled_from(sorted(MODELS)),
    bound=st.sampled_from((0.0, 2.0, 10.0, 80.0)),
    relocate=st.booleans(),
    budget=st.sampled_from((None, 0.0, 3.0, 40.0)),
)


@given(n=st.integers(1, 14), **params)
@settings(max_examples=200, deadline=None)
# re-embedded nodes whose children carry detours: arms priced without
# them pick another spot
@example(n=2, seed=0, snapped=False, model="linear", bound=10.0,
         relocate=True, budget=None)
@example(n=4, seed=0, snapped=True, model="elmore", bound=0.0,
         relocate=True, budget=None)
def test_repair_matches_oracle_on_hand_built_trees(
        n, seed, snapped, model, bound, relocate, budget):
    tree = hand_built_tree(seed, n, snapped)
    assert _outcome(repair_skew, tree, bound, model, relocate, budget) == \
        _outcome(repair_oracle.repair_skew, tree, bound, model, relocate,
                 budget)


@given(n=st.integers(2, 24), **params)
@settings(max_examples=60, deadline=None)
def test_repair_matches_oracle_on_cbs_step4_trees(
        n, seed, snapped, model, bound, relocate, budget):
    tree = cbs_step4_tree(seed, n, snapped, model, bound)
    assert _outcome(repair_skew, tree, bound, model, relocate, budget) == \
        _outcome(repair_oracle.repair_skew, tree, bound, model, relocate,
                 budget)

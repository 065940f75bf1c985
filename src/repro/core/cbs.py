"""Concurrent BST and SALT (CBS) — the paper's SLLT construction method.

The five steps of Fig. 2:

1. BST-DME builds an initial SLLT (skew-legal but deep and heavy);
2. its topology is extracted, redundant Steiner nodes eliminated;
3. SALT relaxes that tree, shortening over-long root paths — this breaks
   skew legality;
4. the relaxed tree is legalised: binary, load pins as leaves, which
   fixes its merge topology;
5. BST-DME on that fixed topology restores the skew bound, with the
   merging regions pinned at the tree's own embedding, and a final
   length-preserving cleanup removes redundant nodes.

The output therefore combines SALT's shallowness/lightness with BST's skew
guarantee: an SLLT whose skew never exceeds ``skew_bound`` while its
latency and load are close to the shallow-light optimum.

Steps 1–2 (:func:`cbs_skeleton`) read the net's sinks and source, the
skew bound, the topology and the delay model's parameters, but neither
``eps`` nor anything buffering reads.  Steps 3–5 read the skeleton, the
net, ``eps``, the skew bound and the delay model, and still nothing
buffering reads.  Given a :class:`~repro.reuse.StageReuse`, :func:`cbs`
keeps each skeleton it builds under exactly its inputs and serves it to
every later call that repeats them, whatever its ``eps``; and it keeps
each finished tree under the same inputs plus ``eps``, and serves a
copy of it to every later call that repeats all of them.
"""

from __future__ import annotations

from typing import Callable

from repro.dme.dme import bst_dme
from repro.dme.models import DelayModel, ElmoreDelay, LinearDelay
from repro.dme.repair import repair_skew
from repro.netlist.net import ClockNet
from repro.netlist.topology import TopologyNode
from repro.netlist.tree import RoutedTree
from repro.netlist.tree_ops import (
    binarize,
    prune_redundant_steiner,
    sinks_to_leaves,
)
from repro.reuse import ROUTED, SKELETON, StageReuse, exact_key, extend_key
from repro.salt.refine import refine
from repro.salt.salt import salt

#: Default SALT relaxation strength for Step 3.  The ablation bench
#: (benchmarks/bench_ablation_eps.py) sweeps this.  0.4 trades a little
#: shallowness for lightness close to the R-SALT optimum, matching the
#: paper's Table 2 where CBS wirelength meets or beats R-SALT's.
DEFAULT_EPS = 0.4


def cbs(
    net: ClockNet,
    skew_bound: float,
    eps: float = DEFAULT_EPS,
    model: DelayModel | None = None,
    topology: str | TopologyNode | Callable = "greedy_dist",
    reuse: StageReuse | None = None,
) -> RoutedTree:
    """Build an SLLT for ``net`` with skew controlled to ``skew_bound``.

    ``skew_bound``'s unit follows ``model`` (um of path length for the
    default linear model, ps for Elmore — see :mod:`repro.dme.dme`).
    ``eps`` is the Step 3 SALT relaxation strength; ``topology`` selects
    the Step 1 merging scheme (paper Table 2 sweeps GreedyDist /
    GreedyMerge / BiPartition).  With ``reuse``, a generator-named
    ``topology`` and a delay model :func:`skeleton_key` knows, the
    finished tree is looked up first (a hit returns a copy, since the
    caller buffers and repairs what it gets), then the Step 2 skeleton;
    each is kept once built.  A call that raises keeps no tree.

    Step 5 is BST-DME with the merging regions pinned at the Step 4
    tree's own embedding (:func:`~repro.dme.repair.repair_skew`):
    bottom-up interval merging with minimal-detour snaking on fixed
    geometry.  Repairing in place preserves SALT's wire sharing exactly,
    which re-embedding through the rectangle-restricted free regions of
    this reproduction would lose (see DESIGN.md).
    """
    model = model or LinearDelay()
    key = skeleton_key(net, skew_bound, model, topology) \
        if reuse is not None else None
    routed_key = extend_key(key, eps)
    if routed_key is not None:
        routed = reuse.get(ROUTED, routed_key)
        if routed is not None:
            return routed.copy()
    skeleton = reuse.get(SKELETON, key) if key is not None else None
    if skeleton is None:
        skeleton = cbs_skeleton(net, skew_bound, model, topology)
        if key is not None:
            reuse.put(SKELETON, key, skeleton)

    # Step 3: SALT relaxation (breaks skew legality on purpose); salt
    # relaxes a copy, so a kept skeleton is never changed
    relaxed = salt(net, eps, init=skeleton)

    # Step 4: legalise — binary tree, load pins as leaves
    sinks_to_leaves(relaxed)
    binarize(relaxed)

    # Step 5: restore the skew bound in place and clean up
    repair_skew(relaxed, skew_bound, model=model)
    prune_redundant_steiner(relaxed, preserve_length=True)
    relaxed.validate()
    if routed_key is not None:
        reuse.put(ROUTED, routed_key, relaxed.copy())
    return relaxed


def cbs_skeleton(
    net: ClockNet,
    skew_bound: float,
    model: DelayModel,
    topology: str | TopologyNode | Callable,
) -> RoutedTree:
    """CBS Steps 1–2: the refined skeleton Step 3 relaxes."""
    # Step 1: initial bounded-skew tree
    initial = bst_dme(net, skew_bound, model=model, topology=topology)

    # Step 2: topology extraction — drop snaking, prune redundant Steiner
    # nodes and re-refine the remaining geometry so SALT sees connection
    # structure, not balancing artefacts
    skeleton = initial.copy()
    for nid in skeleton.node_ids():
        if skeleton.node(nid).parent is not None:
            skeleton.node(nid).detour = 0.0
    prune_redundant_steiner(skeleton)
    refine(skeleton)
    return skeleton


def skeleton_key(
    net: ClockNet,
    skew_bound: float,
    model: DelayModel,
    topology,
) -> tuple | None:
    """Everything :func:`cbs_skeleton` reads, as an exact key: the sinks
    in order with all four fields, the source, the skew bound, the
    topology's name and the delay model with its parameters.

    None (build, keep nothing) for a topology given as a tree or a
    callable, which has no exact key, and for a delay model other than
    :class:`LinearDelay` and :class:`ElmoreDelay` (a subclass included),
    whose delays may read more than the key holds.
    """
    kind = type(model)
    if kind is LinearDelay:
        params = ()
    elif kind is ElmoreDelay:
        params = (model.unit_res, model.unit_cap)
    else:
        return None
    return exact_key(net.sinks, net.source.x, net.source.y, skew_bound,
                     topology, kind.__name__, *params)

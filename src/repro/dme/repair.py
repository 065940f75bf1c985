"""Bounded-skew repair on an embedded tree: pinned-region BST-DME.

Given an already-embedded tree (CBS Step 4 produces the SALT-relaxed one),
run the BST-DME bottom-up interval merge with two degrees of freedom per
internal node, mirroring what the free-region embedding would do:

* **re-embedding** — a Steiner node may move: sliding the merge point
  toward the slow subtree shortens its arm and lengthens the fast one,
  trading delay between the sides at constant wire (the mechanism that
  makes real BST-DME cheap).  A small candidate set is evaluated exactly:
  the current spot, each child, the median with the parent, and blends
  toward each child;
* **snaking** — whatever imbalance re-embedding cannot absorb is fixed by
  the minimal detour on the too-fast children:

      delta_i = max(0, (max_j hi_j) - bound - lo_i).

Both are exact under either delay model (detour wire adds capacitance,
which is propagated bottom-up before upstream arms are evaluated), and the
resulting node interval has width <= bound whenever each child's does,
which holds inductively from the leaves.
"""

from __future__ import annotations

import math

from repro.dme.models import DelayModel, ElmoreDelay, LinearDelay
from repro.geometry import Point
from repro.netlist.tree import RoutedTree
from repro.tech.technology import RC_TO_PS


def repair_skew(
    tree: RoutedTree,
    skew_bound: float,
    model: DelayModel | None = None,
    relocate: bool = True,
    max_extra_wl: float | None = None,
) -> float:
    """Restore ``skew_bound`` in place; returns the wirelength added.

    The bound's unit follows the model (um for linear, ps for Elmore), as
    everywhere in :mod:`repro.dme`.  ``relocate=False`` disables the
    re-embedding freedom (snake-only repair, the ablation variant).
    ``max_extra_wl`` caps the snaking wire one call may add (the flow
    guard's bounded-repair budget); once exhausted, remaining imbalance
    is left in place rather than ballooning the wirelength.
    """
    if skew_bound < 0:
        raise ValueError(f"negative skew bound {skew_bound}")
    if max_extra_wl is not None and max_extra_wl < 0:
        raise ValueError(f"negative wirelength budget {max_extra_wl}")
    model = model or LinearDelay()
    budget = [math.inf if max_extra_wl is None else max_extra_wl]

    wire_before = tree.wirelength()
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    cap: dict[int, float] = {}
    wire_delay = model.wire_delay
    unit_cap = model.unit_cap

    for nid in tree.postorder():
        node = tree.node(nid)
        sink = node.sink
        if not node.children:
            delay = sink.subtree_delay if sink is not None else 0.0
            lo[nid] = hi[nid] = delay
            cap[nid] = sink.cap if sink is not None else 0.0
            continue

        if relocate and node.is_steiner and node.parent is not None:
            best = _best_position(tree, model, skew_bound, nid, lo, hi, cap)
            if best is not None:
                tree.move_node(nid, best)

        _snake_children(tree, model, skew_bound, nid, lo, hi, cap, budget)

        arms = [tree.edge_length(cid) for cid in node.children]
        times = [wire_delay(arm, cap[cid])
                 for cid, arm in zip(node.children, arms)]
        lo[nid] = min(lo[cid] + t for cid, t in zip(node.children, times))
        hi[nid] = max(hi[cid] + t for cid, t in zip(node.children, times))
        if sink is not None:
            lo[nid] = min(lo[nid], sink.subtree_delay)
            hi[nid] = max(hi[nid], sink.subtree_delay)
        cap[nid] = (sink.cap if sink is not None else 0.0) + sum(
            cap[cid] + unit_cap * arm
            for cid, arm in zip(node.children, arms)
        )

    return tree.wirelength() - wire_before


# ----------------------------------------------------------------------
# Re-embedding
# ----------------------------------------------------------------------
def _best_position(
    tree: RoutedTree,
    model: DelayModel,
    skew_bound: float,
    nid: int,
    lo: dict[int, float],
    hi: dict[int, float],
    cap: dict[int, float],
) -> Point | None:
    """Candidate position minimising wire + required snaking for ``nid``.

    The candidates are the current spot, each child, the median of the
    parent, the node and each child, and three blends toward each child,
    tried in that order as ``(x, y)`` pairs; one replaces the best only
    when cheaper by more than 1e-12.  Each child's location, detour,
    delay interval and load are read once per node.  A candidate whose
    wire alone, ``|q - parent| + sum(arms)``, is already at least
    ``best - 1e-12`` is not priced further: snaking adds a non-negative
    length and float addition is monotone, so its full cost could not
    have replaced the best either.
    """
    node = tree.node(nid)
    ploc = tree.node(node.parent).location  # type: ignore[arg-type]
    px, py = ploc.x, ploc.y
    nx, ny = node.location.x, node.location.y
    kids = []  # (x, y, detour, lo, hi, cap) per child
    for cid in node.children:
        child = tree.node(cid)
        loc = child.location
        kids.append((loc.x, loc.y, child.detour, lo[cid], hi[cid], cap[cid]))

    candidates = [(nx, ny)]
    candidates.extend((kid[0], kid[1]) for kid in kids)
    for kid in kids:
        cx, cy = kid[0], kid[1]
        candidates.append((sorted((px, nx, cx))[1], sorted((py, ny, cy))[1]))
        for frac in (0.25, 0.5, 0.75):
            candidates.append((nx + frac * (cx - nx), ny + frac * (cy - ny)))

    wire_delay = model.wire_delay
    best_cost = None
    best = None
    for qx, qy in candidates:
        # manhattan(q, child) + detour, as RoutedTree.edge_length sums it
        arms = [(abs(qx - kid[0]) + abs(qy - kid[1])) + kid[2]
                for kid in kids]
        cost = (abs(qx - px) + abs(qy - py)) + sum(arms)
        if best_cost is not None and cost >= best_cost - 1e-12:
            continue
        # the snaking each child would need at q
        times = [wire_delay(arm, kid[5]) for kid, arm in zip(kids, arms)]
        hi_max = max([kid[4] + t for kid, t in zip(kids, times)])
        snake = 0.0
        for kid, arm, t in zip(kids, arms, times):
            deficit = (hi_max - skew_bound) - (kid[3] + t)
            if deficit > 1e-12:
                snake += _extension_for_added_delay(model, arm, deficit,
                                                    kid[5])
        cost += snake
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best = (qx, qy)
    if best is None or (abs(best[0] - nx) <= 1e-9
                        and abs(best[1] - ny) <= 1e-9):
        return None
    return Point(best[0], best[1])


# ----------------------------------------------------------------------
# Snaking
# ----------------------------------------------------------------------
def _snake_children(
    tree: RoutedTree,
    model: DelayModel,
    skew_bound: float,
    nid: int,
    lo: dict[int, float],
    hi: dict[int, float],
    cap: dict[int, float],
    budget: list[float],
) -> None:
    node = tree.node(nid)
    shifted: dict[int, float] = {}
    hi_max = None
    for cid in node.children:
        arm = tree.edge_length(cid)
        t = model.wire_delay(arm, cap[cid])
        shifted[cid] = lo[cid] + t
        top = hi[cid] + t
        hi_max = top if hi_max is None else max(hi_max, top)
    assert hi_max is not None
    for cid in node.children:
        deficit = (hi_max - skew_bound) - shifted[cid]
        if deficit <= 1e-12:
            continue
        arm = tree.edge_length(cid)
        extra = _extension_for_added_delay(model, arm, deficit, cap[cid])
        extra = min(extra, budget[0])
        if extra <= 0:
            continue
        budget[0] -= extra
        tree.set_detour(cid, tree.node(cid).detour + extra)


def _extension_for_added_delay(
    model: DelayModel, base_length: float, added_delay: float,
    downstream_cap: float,
) -> float:
    """Extra wirelength dL with t(L + dL, C) - t(L, C) == added_delay."""
    if added_delay <= 0:
        return 0.0
    if isinstance(model, LinearDelay):
        return added_delay
    if isinstance(model, ElmoreDelay):
        # k (L+dL)(c(L+dL)/2 + C) - k L (cL/2 + C) = delta
        # (kc/2) dL^2 + k (cL + C) dL - delta = 0
        tech = model._tech  # intentional: repair is a dme-internal helper
        k = tech.unit_res * RC_TO_PS
        c = tech.unit_cap
        if c <= 0:
            if downstream_cap <= 0:
                raise ValueError("cannot snake: zero wire cap and zero load")
            return added_delay / (k * downstream_cap)
        a = k * c / 2.0
        b = k * (c * base_length + downstream_cap)
        disc = b * b + 4.0 * a * added_delay
        return (-b + math.sqrt(disc)) / (2.0 * a)
    # generic fallback: invert by bisection on the model interface
    lo_ext, hi_ext = 0.0, max(1.0, added_delay)
    base = model.wire_delay(base_length, downstream_cap)
    while model.wire_delay(base_length + hi_ext, downstream_cap) - base < added_delay:
        hi_ext *= 2.0
    for _ in range(60):
        mid = (lo_ext + hi_ext) / 2.0
        if model.wire_delay(base_length + mid, downstream_cap) - base < added_delay:
            lo_ext = mid
        else:
            hi_ext = mid
    return hi_ext

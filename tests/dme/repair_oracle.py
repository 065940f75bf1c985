"""Reference bounded-skew repair the production kernel must reproduce.

``repair_skew`` with ``_best_position``, ``_position_cost``, ``_median``
and ``_snake_children`` is the implementation that
``repro.dme.repair`` replaced with a per-node child table, float-pair
candidates and a wire lower bound that skips pricing a candidate which
cannot win, kept verbatim as a test oracle.  It prices every candidate
in full, so the production kernel must leave every node's location and
detour, and the returned wire, exactly as this one does.
"""

from __future__ import annotations

import math

from repro.dme.models import DelayModel, LinearDelay
from repro.dme.repair import _extension_for_added_delay
from repro.geometry import Point, manhattan
from repro.netlist.tree import RoutedTree


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

    for nid in tree.postorder():
        node = tree.node(nid)
        if not node.children:
            delay = node.sink.subtree_delay if node.sink is not None else 0.0
            lo[nid] = hi[nid] = delay
            cap[nid] = node.sink.cap if node.sink is not None else 0.0
            continue

        if relocate and node.is_steiner and node.parent is not None:
            best = _best_position(tree, model, skew_bound, nid, lo, hi, cap)
            if best is not None:
                tree.move_node(nid, best)

        _snake_children(tree, model, skew_bound, nid, lo, hi, cap, budget)

        shifted = [
            (lo[cid] + model.wire_delay(tree.edge_length(cid), cap[cid]),
             hi[cid] + model.wire_delay(tree.edge_length(cid), cap[cid]))
            for cid in node.children
        ]
        lo[nid] = min(s[0] for s in shifted)
        hi[nid] = max(s[1] for s in shifted)
        if node.sink is not None:
            lo[nid] = min(lo[nid], node.sink.subtree_delay)
            hi[nid] = max(hi[nid], node.sink.subtree_delay)
        cap[nid] = (node.sink.cap if node.sink is not None else 0.0) + sum(
            cap[cid] + model.unit_cap * tree.edge_length(cid)
            for cid in node.children
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
    """Candidate position minimising wire + required snaking for ``nid``."""
    node = tree.node(nid)
    parent_loc = tree.node(node.parent).location  # type: ignore[index]
    child_ids = node.children
    child_locs = [tree.node(c).location for c in child_ids]

    candidates: list[Point] = [node.location]
    candidates.extend(child_locs)
    for c_loc in child_locs:
        candidates.append(_median(parent_loc, node.location, c_loc))
        for frac in (0.25, 0.5, 0.75):
            candidates.append(Point(
                node.location.x + frac * (c_loc.x - node.location.x),
                node.location.y + frac * (c_loc.y - node.location.y),
            ))

    best_cost = None
    best_point = None
    for q in candidates:
        cost = _position_cost(
            tree, model, skew_bound, q, parent_loc, child_ids, lo, hi, cap
        )
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost = cost
            best_point = q
    if best_point is None or best_point.is_close(node.location):
        return None
    return best_point


def _position_cost(
    tree: RoutedTree,
    model: DelayModel,
    skew_bound: float,
    q: Point,
    parent_loc: Point,
    child_ids: list[int],
    lo: dict[int, float],
    hi: dict[int, float],
    cap: dict[int, float],
) -> float:
    """Wire this node costs when embedded at q: parent edge + child arms
    + the snaking each child would need."""
    arms = [
        manhattan(q, tree.node(c).location) + tree.node(c).detour
        for c in child_ids
    ]
    shifted_lo = [lo[c] + model.wire_delay(a, cap[c])
                  for c, a in zip(child_ids, arms)]
    shifted_hi = [hi[c] + model.wire_delay(a, cap[c])
                  for c, a in zip(child_ids, arms)]
    hi_max = max(shifted_hi)
    snake = 0.0
    for c, arm, s_lo in zip(child_ids, arms, shifted_lo):
        deficit = (hi_max - skew_bound) - s_lo
        if deficit > 1e-12:
            snake += _extension_for_added_delay(model, arm, deficit, cap[c])
    return manhattan(q, parent_loc) + sum(arms) + snake


def _median(a: Point, b: Point, c: Point) -> Point:
    return Point(
        sorted((a.x, b.x, c.x))[1],
        sorted((a.y, b.y, c.y))[1],
    )


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

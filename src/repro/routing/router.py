"""Congestion-aware pattern routing of clock trees onto a GCell grid.

Each tree edge is embedded as the cheaper of its two L-shapes under the
grid's congestion cost; when both L-shapes cross overloaded edges, three
Z-shape alternatives (intermediate jog at 1/4, 1/2, 3/4) are also tried.
Demand is committed edge by edge in path-length order (long trunks first,
like a global router's net ordering), so later edges see earlier ones'
congestion — enough fidelity to rank topologies by routability, which is
all the paper's argument needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point
from repro.netlist.tree import RoutedTree
from repro.netlist.tree_ops import realize_detours
from repro.routing.grid import RoutingGrid

_Z_FRACTIONS = (0.25, 0.5, 0.75)


@dataclass(frozen=True, slots=True)
class CongestionReport:
    """Outcome of embedding one or more trees on a grid."""

    overflow: float
    max_utilization: float
    mean_utilization: float
    routed_edges: int


def route_tree(
    tree: RoutedTree,
    grid: RoutingGrid,
) -> CongestionReport:
    """Embed every tree edge onto ``grid`` (mutating its demand maps).

    Abstract detour wire carries no geometry, so snaked trees are first
    realised (on a copy — the input is never modified) via
    :func:`repro.netlist.tree_ops.realize_detours`; the congestion the
    snaking causes is therefore counted honestly.
    """
    if any(tree.node(nid).detour > 1e-9 for nid in tree.node_ids()):
        tree = tree.copy()
        realize_detours(tree)
    edges = []
    for nid in tree.preorder():
        node = tree.node(nid)
        if node.parent is None:
            continue
        a = tree.node(node.parent).location
        b = node.location
        length = abs(a.x - b.x) + abs(a.y - b.y)
        if length > 1e-12:
            edges.append((length, a, b))
    edges.sort(key=lambda e: -e[0])  # long trunks claim resources first

    for _, a, b in edges:
        _route_edge(grid, a, b)

    return CongestionReport(
        overflow=grid.overflow,
        max_utilization=grid.max_utilization,
        mean_utilization=grid.mean_utilization,
        routed_edges=len(edges),
    )


# ----------------------------------------------------------------------
def _route_edge(grid: RoutingGrid, a: Point, b: Point) -> None:
    ai, aj = grid.cell_of(a)
    bi, bj = grid.cell_of(b)
    if ai == bi and aj == bj:
        return

    candidates: list[tuple[float, list[tuple[str, int, int, int]]]] = []
    for path in _l_paths(ai, aj, bi, bj) + _z_paths(ai, aj, bi, bj):
        cost = 0.0
        for kind, fixed, lo, hi in path:
            if kind == "h":
                cost += grid.h_cost(fixed, lo, hi)
            else:
                cost += grid.v_cost(fixed, lo, hi)
        candidates.append((cost, path))
    _, best = min(candidates, key=lambda c: c[0])
    for kind, fixed, lo, hi in best:
        if kind == "h":
            grid.add_h_segment(fixed, lo, hi)
        else:
            grid.add_v_segment(fixed, lo, hi)


def _l_paths(ai: int, aj: int, bi: int, bj: int):
    """The two L-shapes as lists of (kind, fixed, lo, hi) runs."""
    return [
        [("h", aj, ai, bi), ("v", bi, aj, bj)],   # horizontal first
        [("v", ai, aj, bj), ("h", bj, ai, bi)],   # vertical first
    ]


def _z_paths(ai: int, aj: int, bi: int, bj: int):
    """Z-shapes with an intermediate jog (only when a real detour exists)."""
    paths = []
    if abs(bi - ai) >= 2:
        for frac in _Z_FRACTIONS:
            mid = ai + round((bi - ai) * frac)
            if mid in (ai, bi):
                continue
            paths.append([
                ("h", aj, ai, mid), ("v", mid, aj, bj), ("h", bj, mid, bi),
            ])
    if abs(bj - aj) >= 2:
        for frac in _Z_FRACTIONS:
            mid = aj + round((bj - aj) * frac)
            if mid in (aj, bj):
                continue
            paths.append([
                ("v", ai, aj, mid), ("h", mid, ai, bi), ("v", bi, mid, bj),
            ])
    return paths

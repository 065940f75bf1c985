"""Generalized H-tree with per-level branching factors.

Following the structure of Han et al. (TCAD'18), each level splits the
current cell into ``b`` equal strips along its longer axis, with taps at
strip centres.  Branching factors may be supplied explicitly; by default
each level picks b from {2, 3, 4} greedily, minimising an estimate of
(level trunk wire) + (remaining stub wire), which is the knob that lets
the GH-tree beat the H-tree's rigid fan-of-two (paper Table 1: GH-tree
trades a little skewness for notably better shallowness and lightness).
"""

from __future__ import annotations

from repro.geometry import Point
from repro.netlist.net import ClockNet
from repro.netlist.sink import Sink
from repro.netlist.tree import RoutedTree

_CANDIDATE_FACTORS = (2, 3, 4)


def _search_cell(
    sinks: list[Sink],
    lo: Point,
    hi: Point,
    level: int,
    max_leaf_sinks: int,
    candidates: tuple[int, ...],
    max_levels: int,
) -> tuple[int, float]:
    """(best factor, cost of expanding this cell optimally)."""
    center = Point((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0)
    if len(sinks) <= max_leaf_sinks or level >= max_levels:
        stub = sum(center.manhattan_to(s.location) for s in sinks)
        return candidates[0], stub
    along_x = (hi.x - lo.x) >= (hi.y - lo.y)
    span = (hi.x - lo.x) if along_x else (hi.y - lo.y)
    best = None
    for b in candidates:
        cells = _strips(lo, hi, b, along_x)
        buckets: list[list[Sink]] = [[] for _ in range(b)]
        for sink in sinks:
            coord = (sink.location.x - lo.x) if along_x else (sink.location.y - lo.y)
            idx = b - 1 if span <= 0 else min(b - 1, int(coord / span * b))
            buckets[idx].append(sink)
        cost = 0.0
        for (cell_lo, cell_hi), members in zip(cells, buckets):
            child_center = Point((cell_lo.x + cell_hi.x) / 2.0,
                                 (cell_lo.y + cell_hi.y) / 2.0)
            cost += center.manhattan_to(child_center)
            _, sub = _search_cell(members, cell_lo, cell_hi, level + 1,
                                  max_leaf_sinks, candidates, max_levels)
            cost += sub
        if best is None or cost < best[1]:
            best = (b, cost)
    assert best is not None
    return best


def ghtree(
    net: ClockNet,
    branching: list[int] | None = None,
    max_leaf_sinks: int = 1,
    max_levels: int = 10,
    optimize: bool = False,
) -> RoutedTree:
    """Build a generalized H-tree; ``branching`` fixes the factors per
    level, ``optimize=True`` searches factors cell by cell on the actual
    sink distribution (Han et al.'s optimisation), otherwise they are
    chosen greedily level by level."""
    if max_leaf_sinks < 1:
        raise ValueError(f"max_leaf_sinks must be >= 1, got {max_leaf_sinks}")
    if branching is not None and any(b < 2 for b in branching):
        raise ValueError("branching factors must be >= 2")

    sinks = net.sinks
    xs = [s.location.x for s in sinks]
    ys = [s.location.y for s in sinks]
    lo, hi = Point(min(xs), min(ys)), Point(max(xs), max(ys))

    tree = RoutedTree(net.source)
    center = Point((lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0)
    top = tree.add_child(tree.root, center)
    _expand(tree, top, sinks, lo, hi, branching, 0, max_leaf_sinks,
            max_levels, optimize)
    tree.validate()
    return tree


def _expand(
    tree: RoutedTree,
    tap: int,
    sinks: list[Sink],
    lo: Point,
    hi: Point,
    branching: list[int] | None,
    level: int,
    max_leaf_sinks: int,
    max_levels: int,
    optimize: bool = False,
) -> None:
    if len(sinks) <= max_leaf_sinks or level >= max_levels:
        for sink in sinks:
            tree.add_child(tap, sink.location, sink=sink)
        return

    if branching is not None:
        factor = branching[min(level, len(branching) - 1)]
    elif optimize:
        factor, _ = _search_cell(sinks, lo, hi, level, max_leaf_sinks,
                                 _CANDIDATE_FACTORS, max_levels)
    else:
        factor = _pick_factor(sinks, lo, hi)

    along_x = (hi.x - lo.x) >= (hi.y - lo.y)
    cells = _strips(lo, hi, factor, along_x)
    buckets: list[list[Sink]] = [[] for _ in range(factor)]
    span = (hi.x - lo.x) if along_x else (hi.y - lo.y)
    for sink in sinks:
        coord = (sink.location.x - lo.x) if along_x else (sink.location.y - lo.y)
        idx = factor - 1 if span <= 0 else min(factor - 1, int(coord / span * factor))
        buckets[idx].append(sink)
    for (cell_lo, cell_hi), members in zip(cells, buckets):
        center = Point((cell_lo.x + cell_hi.x) / 2.0,
                       (cell_lo.y + cell_hi.y) / 2.0)
        child = tree.add_child(tap, center)
        _expand(tree, child, members, cell_lo, cell_hi, branching,
                level + 1, max_leaf_sinks, max_levels, optimize)


def _strips(lo: Point, hi: Point, factor: int, along_x: bool):
    cells = []
    for i in range(factor):
        if along_x:
            x0 = lo.x + (hi.x - lo.x) * i / factor
            x1 = lo.x + (hi.x - lo.x) * (i + 1) / factor
            cells.append((Point(x0, lo.y), Point(x1, hi.y)))
        else:
            y0 = lo.y + (hi.y - lo.y) * i / factor
            y1 = lo.y + (hi.y - lo.y) * (i + 1) / factor
            cells.append((Point(lo.x, y0), Point(hi.x, y1)))
    return cells


def _pick_factor(sinks: list[Sink], lo: Point, hi: Point) -> int:
    """Greedy per-level factor: minimise trunk wire + estimated stub wire.

    Trunk wire for b strips is roughly span * (b - 1) / b; the stub term
    falls as cells shrink (average in-cell distance ~ cell size / 2 per
    sink).  This is the one-level version of Han et al.'s DP.
    """
    span_x = hi.x - lo.x
    span_y = hi.y - lo.y
    long_span = max(span_x, span_y)
    short_span = min(span_x, span_y)
    n = len(sinks)
    best_factor = 2
    best_cost = float("inf")
    for b in _CANDIDATE_FACTORS:
        trunk = long_span * (b - 1) / b
        stub = n * (long_span / b + short_span) / 4.0
        cost = trunk + stub
        if cost < best_cost:
            best_cost = cost
            best_factor = b
    return best_factor

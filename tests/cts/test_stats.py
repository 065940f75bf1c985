"""Tests for tree structural statistics."""

import random

import pytest

from repro.cts import FlowConfig, HierarchicalCTS, TABLE5
from repro.cts.stats import tree_statistics
from repro.geometry import Point
from repro.netlist import RoutedTree, Sink
from repro.tech import Technology, default_library
from repro.timing.elmore import ElmoreAnalyzer


def small_buffered_tree():
    tree = RoutedTree(Point(0, 0))
    lib = default_library()
    mid = tree.add_child(tree.root, Point(10, 0))
    tree.set_buffer(mid, lib.weakest)
    a = tree.add_child(mid, Point(20, 0), sink=Sink("a", Point(20, 0), cap=2.0))
    tree.add_child(mid, Point(10, 5), sink=Sink("b", Point(10, 5), cap=1.0))
    tree.set_detour(a, 3.0)
    return tree


def test_counts_and_depth():
    stats = tree_statistics(small_buffered_tree(), Technology())
    assert stats.num_nodes == 4
    assert stats.num_sinks == 2
    assert stats.num_buffers == 1
    assert stats.num_steiner == 0
    assert stats.max_depth == 2
    assert stats.max_buffer_levels == 1
    assert stats.max_fanout == 2


def test_wire_and_detour_accounting():
    tech = Technology()
    stats = tree_statistics(small_buffered_tree(), tech)
    assert stats.total_wirelength == pytest.approx(10 + 13 + 5)
    assert stats.detour_wirelength == pytest.approx(3.0)
    assert stats.detour_fraction == pytest.approx(3.0 / 28.0)


def test_stage_loads():
    tech = Technology()
    tree = small_buffered_tree()
    stats = tree_statistics(tree, tech)
    lib = default_library()
    # root stage: wire to buffer + buffer input cap
    assert stats.stage_loads[tree.root] == pytest.approx(
        tech.wire_cap(10) + lib.weakest.input_cap
    )
    # buffer stage: two edges of wire + two pins
    buf_id = tree.buffer_node_ids()[0]
    assert stats.stage_loads[buf_id] == pytest.approx(
        tech.wire_cap(13 + 5) + 3.0
    )
    assert stats.max_stage_load >= stats.mean_stage_load


def test_full_flow_stats_consistency():
    tech = Technology()
    rng = random.Random(1)
    sinks = [
        Sink(f"ff{i}", Point(rng.uniform(0, 120), rng.uniform(0, 120)))
        for i in range(200)
    ]
    result = HierarchicalCTS(
        tech=tech, config=FlowConfig(sa_iterations=30)
    ).run(sinks, Point(60, 60))
    stats = tree_statistics(result.tree, tech)
    assert stats.num_sinks == 200
    assert stats.num_buffers == len(result.tree.buffer_node_ids())
    assert stats.total_wirelength == pytest.approx(result.tree.wirelength())
    # every stage respects the cap constraint with margin for the driver
    # sizing headroom policy
    assert stats.max_stage_load <= TABLE5.max_cap * 1.5
    assert stats.max_fanout <= TABLE5.max_fanout + 1
    # the stage loads are the analyzer's, bit for bit: one walk serves
    # both
    report = ElmoreAnalyzer(tech).analyze(result.tree)
    assert stats.stage_loads == report.stage_load

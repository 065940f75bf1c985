"""Tests for driver selection and buffer insertion."""

import math

import pytest

from repro.buffering import (
    driver_for_load,
    insertion_delay_estimate,
    place_driver,
    split_long_edges,
)
from repro.geometry import Point
from repro.netlist import RoutedTree, Sink
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer
from repro.timing.elmore import downstream_stage_cap


def tech():
    return Technology()


def test_driver_for_load_scales_with_load():
    lib = default_library()
    small = driver_for_load(lib, 5.0)
    large = driver_for_load(lib, 300.0)
    assert small.omega_c >= large.omega_c
    with pytest.raises(ValueError):
        driver_for_load(lib, -1.0)


def test_insertion_delay_estimate_is_lower_bound():
    lib = default_library()
    for cap in (0.0, 20.0, 120.0):
        est = insertion_delay_estimate(lib, cap)
        actual = driver_for_load(lib, cap).delay(slew_in=10.0, cap_load=cap)
        assert est <= actual + 1e-9


def wire_tree(length=100.0, cap=10.0):
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(length, 0),
                   sink=Sink("s", Point(length, 0), cap=cap))
    return tree


def test_place_driver_sets_root_buffer():
    tree = wire_tree()
    lib = default_library()
    driver = place_driver(tree, lib, tech())
    assert tree.node(tree.root).buffer is driver
    # driver must cover the load: wire cap + pin cap
    load = tech().wire_cap(100.0) + 10.0
    assert driver.max_cap >= load


def test_split_long_edges_inserts_repeaters():
    tree = wire_tree(length=1000.0)
    lib = default_library()
    inserted = split_long_edges(tree, lib, tech(), max_span=300.0)
    assert inserted == 3  # ceil(1000/300) = 4 segments -> 3 repeaters
    tree.validate()
    # no buffer-free edge longer than the span remains
    for nid in tree.node_ids():
        if tree.node(nid).parent is not None:
            assert tree.edge_length(nid) <= 300.0 + 1e-6
    # total wirelength unchanged: repeaters sit on the route
    assert tree.wirelength() == pytest.approx(1000.0)


def test_split_long_edges_sizes_every_chain_on_its_stage_load():
    """Several long edges, one below another: each chain's last repeater
    drives its share of wire plus the stage load below the split node,
    as the tree stood before any repeater went in."""
    t = tech()
    lib = default_library()
    tree = RoutedTree(Point(0, 0))
    a = tree.add_child(tree.root, Point(200, 0))
    below_a = tree.add_child(a, Point(200, 150),
                             sink=Sink("s1", Point(200, 150), cap=10.0))
    tree.add_child(a, Point(210, 0), sink=Sink("s2", Point(210, 0), cap=5.0))
    side = tree.add_child(tree.root, Point(0, 250),
                          sink=Sink("s3", Point(0, 250), cap=1.0))
    before = downstream_stage_cap(tree, t)
    lengths = {nid: tree.edge_length(nid) for nid in (a, below_a, side)}

    assert split_long_edges(tree, lib, t, max_span=100.0, slew_in=15.0) == 4
    load_mattered = []
    for nid, length in lengths.items():
        share = t.wire_cap(length / math.ceil(length / 100.0))
        driver = tree.node(tree.node(nid).parent).buffer
        assert driver == driver_for_load(lib, share + before[nid], 15.0)
        load_mattered.append(driver != driver_for_load(lib, share, 15.0))
    assert any(load_mattered)


def test_split_long_edges_improves_latency_beyond_critical_length():
    t = tech()
    lib = default_library()
    long = wire_tree(length=1500.0, cap=30.0)
    base = ElmoreAnalyzer(t).analyze(long).latency
    split_long_edges(long, lib, t, max_span=400.0)
    buffered = ElmoreAnalyzer(t).analyze(long).latency
    assert buffered < base


def test_split_long_edges_skips_short_and_detoured():
    t = tech()
    lib = default_library()
    tree = wire_tree(length=100.0)
    assert split_long_edges(tree, lib, t, max_span=300.0) == 0
    snaked = wire_tree(length=400.0)
    nid = snaked.sink_node_ids()[0]
    snaked.set_detour(nid, 50.0)
    assert split_long_edges(snaked, lib, t, max_span=300.0) == 0


def test_split_long_edges_validates_span():
    with pytest.raises(ValueError):
        split_long_edges(wire_tree(), default_library(), tech(), max_span=0)


def test_split_edge_l_route_geometry():
    """Repeaters on a bent edge stay on the L-route (wirelength preserved)."""
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(300, 400),
                   sink=Sink("s", Point(300, 400), cap=5.0))
    lib = default_library()
    split_long_edges(tree, lib, tech(), max_span=200.0)
    assert tree.wirelength() == pytest.approx(700.0)

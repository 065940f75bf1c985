"""Tests for the global-routing grid and pattern router."""

import random

import pytest

from repro.core import cbs
from repro.geometry import Point
from repro.htree import htree
from repro.netlist import ClockNet, RoutedTree, Sink
from repro.routing import CongestionReport, RoutingGrid, route_tree
from repro.salt import salt


def test_grid_validation():
    with pytest.raises(ValueError):
        RoutingGrid(0, 10)
    with pytest.raises(ValueError):
        RoutingGrid(10, 10, nx=1)
    with pytest.raises(ValueError):
        RoutingGrid(10, 10, h_capacity=0)


def test_cell_of_clamps():
    grid = RoutingGrid(100, 100, nx=10, ny=10)
    assert grid.cell_of(Point(5, 5)) == (0, 0)
    assert grid.cell_of(Point(95, 95)) == (9, 9)
    assert grid.cell_of(Point(-5, 200)) == (0, 9)


def test_demand_accounting():
    grid = RoutingGrid(100, 100, nx=10, ny=10, h_capacity=2.0)
    grid.add_h_segment(j=3, i0=2, i1=6)
    assert grid.h_demand[2:6, 3].sum() == 4.0
    assert grid.h_demand[:, 3].sum() == 4.0
    assert grid.overflow == 0.0
    grid.add_h_segment(j=3, i0=2, i1=6)
    grid.add_h_segment(j=3, i0=2, i1=6)
    # demand 3 on capacity-2 edges -> overflow 1 per edge
    assert grid.overflow == pytest.approx(4.0)
    assert grid.max_utilization == pytest.approx(1.5)


def test_route_single_edge_uses_one_l():
    grid = RoutingGrid(100, 100, nx=10, ny=10)
    tree = RoutedTree(Point(5, 5))
    tree.add_child(tree.root, Point(95, 95),
                   sink=Sink("s", Point(95, 95)))
    rep = route_tree(tree, grid)
    assert rep.routed_edges == 1
    # total committed demand equals one monotone staircase: 9 + 9 crossings
    assert grid.h_demand.sum() + grid.v_demand.sum() == pytest.approx(18.0)
    assert rep.overflow <= 0.0


def test_congestion_pushes_to_alternate_path():
    grid = RoutingGrid(100, 100, nx=10, ny=10, h_capacity=1.0,
                       v_capacity=1.0)
    # saturate the horizontal-first L of (5,5)->(95,55): row j=0
    grid.add_h_segment(j=0, i0=0, i1=9, amount=5.0)
    tree = RoutedTree(Point(5, 5))
    tree.add_child(tree.root, Point(95, 55), sink=Sink("s", Point(95, 55)))
    before_v_first = grid.v_demand[0, :].sum()
    route_tree(tree, grid)
    # the router must have avoided row 0 (already overfull)
    assert grid.h_demand[:, 0].sum() == pytest.approx(5.0 * 9)
    assert grid.v_demand.sum() > before_v_first


def test_report_shape():
    grid = RoutingGrid(50, 50, nx=5, ny=5)
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(49, 49), sink=Sink("s", Point(49, 49)))
    rep = route_tree(tree, grid)
    assert isinstance(rep, CongestionReport)
    assert 0 <= rep.mean_utilization <= rep.max_utilization


def test_lighter_trees_route_better():
    """The paper's routability claim: lighter/shallower topologies load
    the grid less than symmetric H-trees on the same sinks."""
    rng = random.Random(3)
    pts = [Point(rng.uniform(0, 100), rng.uniform(0, 100))
           for _ in range(60)]
    net = ClockNet("r", Point(50, 50),
                   [Sink(f"s{i}", p) for i, p in enumerate(pts)])
    results = {}
    for name, tree in (
        ("salt", salt(net, eps=0.2)),
        ("cbs", cbs(net, 20.0)),
        ("htree", htree(net)),
    ):
        grid = RoutingGrid(100, 100, nx=16, ny=16, h_capacity=3.0,
                           v_capacity=3.0)
        results[name] = route_tree(tree, grid)
    assert results["salt"].mean_utilization < results["htree"].mean_utilization
    assert results["cbs"].mean_utilization < results["htree"].mean_utilization


def test_zero_length_edges_skipped():
    grid = RoutingGrid(10, 10, nx=4, ny=4)
    tree = RoutedTree(Point(5, 5))
    tree.add_child(tree.root, Point(5, 5), sink=Sink("s", Point(5, 5)))
    rep = route_tree(tree, grid)
    assert rep.routed_edges == 0
    assert grid.overflow == 0.0

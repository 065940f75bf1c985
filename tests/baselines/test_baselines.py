"""Tests for the OpenROAD-like and commercial-like baseline flows."""

import random

import pytest

from repro.baselines import commercial_like_cts, openroad_like_cts
from repro.cts import HierarchicalCTS, TABLE5
from repro.cts.evaluation import evaluate_result
from repro.geometry import Point
from repro.netlist import Sink
from repro.tech import Technology


def make_sinks(n=200, box=120.0, seed=0):
    rng = random.Random(seed)
    return [
        Sink(f"ff{i}", Point(rng.uniform(0, box), rng.uniform(0, box)), cap=1.0)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def all_flows():
    tech = Technology()
    sinks = make_sinks()
    source = Point(60.0, 60.0)
    ours = HierarchicalCTS(tech=tech).run(sinks, source)
    com = commercial_like_cts(sinks, source, tech, sa_iterations=300)
    orr = openroad_like_cts(sinks, source, tech)
    return tech, sinks, {
        "ours": evaluate_result(ours, tech),
        "com": evaluate_result(com, tech),
        "or": evaluate_result(orr, tech),
    }, {"ours": ours, "com": com, "or": orr}


def test_all_flows_reach_all_sinks(all_flows):
    _, sinks, _, results = all_flows
    for name, result in results.items():
        leaves = result.tree.sinks()
        assert len(leaves) == len(sinks), name
        result.tree.validate()


def test_openroad_reports_its_routed_driver_load(all_flows):
    """OpenROAD's one level of leaf nets reports the largest driver
    stage load, which its cap column already measures on the routed
    nets (the same load, summed in another order)."""
    _, _, _, results = all_flows
    (stats,) = results["or"].levels
    assert stats.max_routed_cap > 0.0
    assert stats.max_routed_cap == pytest.approx(stats.max_net_cap,
                                                 rel=1e-12)


def test_all_flows_buffered(all_flows):
    _, _, reports, _ = all_flows
    for name, rep in reports.items():
        assert rep.num_buffers > 0, name
        assert rep.buffer_area_um2 > 0, name


def test_openroad_signature(all_flows):
    """OR must show its published signature: no better latency, no smaller
    per-buffer area (within single-design noise — the Table 6 bench checks
    the aggregate over six designs)."""
    _, _, reports, _ = all_flows
    assert reports["or"].latency_ps >= reports["ours"].latency_ps * 0.95
    area_per_buf = {
        k: r.buffer_area_um2 / r.num_buffers for k, r in reports.items()
    }
    assert area_per_buf["or"] >= area_per_buf["ours"] * 0.9


def test_ours_competitive_wirelength_cap(all_flows):
    _, _, reports, _ = all_flows
    assert reports["ours"].clock_cap_ff <= reports["com"].clock_cap_ff * 1.05
    assert reports["ours"].clock_wl_um <= reports["com"].clock_wl_um * 1.05


def test_commercial_is_slowest(all_flows):
    _, _, reports, _ = all_flows
    assert reports["com"].runtime_s > reports["or"].runtime_s


def test_skew_constraint_ours_and_com(all_flows):
    """Ours and the commercial baseline must satisfy Table 5's skew; the
    paper reports OpenROAD violating it on some designs, so OR is only
    checked loosely."""
    _, _, reports, _ = all_flows
    assert reports["ours"].skew_ps <= TABLE5.skew_bound
    assert reports["com"].skew_ps <= TABLE5.skew_bound
    assert reports["or"].skew_ps <= 3 * TABLE5.skew_bound


def test_baseline_empty_rejected():
    with pytest.raises(ValueError):
        openroad_like_cts([], Point(0, 0))

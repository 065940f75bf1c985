"""Tests for the Elmore RC-tree engine with buffer stages."""

import math

import pytest

from repro.geometry import Point
from repro.netlist import RoutedTree, Sink
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer


def tech():
    return Technology(unit_res=1.0, unit_cap=0.2)


def test_single_wire_matches_closed_form():
    t = tech()
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(100, 0),
                   sink=Sink("s", Point(100, 0), cap=5.0))
    rep = ElmoreAnalyzer(t).analyze(tree)
    expected = 100 * (0.2 * 100 / 2 + 5.0) * 1e-3
    assert math.isclose(rep.latency, expected)
    assert rep.skew == 0.0
    assert math.isclose(rep.total_cap, 5.0 + 0.2 * 100)


def test_two_segment_path_is_additive():
    """Elmore on a path equals sum of R_e * C_downstream(e)."""
    t = tech()
    tree = RoutedTree(Point(0, 0))
    mid = tree.add_child(tree.root, Point(50, 0))
    tree.add_child(mid, Point(100, 0), sink=Sink("s", Point(100, 0), cap=4.0))
    rep = ElmoreAnalyzer(t).analyze(tree)
    # segment 1 drives: own half cap + downstream wire + pin
    d1 = 50 * (0.2 * 50 / 2 + 0.2 * 50 + 4.0) * 1e-3
    d2 = 50 * (0.2 * 50 / 2 + 4.0) * 1e-3
    assert math.isclose(rep.latency, d1 + d2)


def test_balanced_fork_zero_skew():
    t = tech()
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(60, 0), sink=Sink("a", Point(60, 0), cap=2.0))
    tree.add_child(tree.root, Point(0, 60), sink=Sink("b", Point(0, 60), cap=2.0))
    rep = ElmoreAnalyzer(t).analyze(tree)
    assert rep.skew == pytest.approx(0.0, abs=1e-12)


def test_buffer_cuts_downstream_cap():
    """A buffer hides its subtree cap behind its input pin cap."""
    t = tech()
    lib = default_library()

    def build(with_buffer: bool) -> RoutedTree:
        # 1400 um is well beyond the X8 critical wirelength (~620 um at
        # 50 fF load), so splitting the wire must win.
        tree = RoutedTree(Point(0, 0))
        mid = tree.add_child(tree.root, Point(700, 0))
        if with_buffer:
            tree.set_buffer(mid, lib.by_name("CLKBUF_X8"))
        tree.add_child(mid, Point(1400, 0),
                       sink=Sink("s", Point(1400, 0), cap=50.0))
        return tree

    an = ElmoreAnalyzer(t)
    unbuffered = an.analyze(build(False))
    buffered = an.analyze(build(True))
    # the long heavy downstream makes buffering win
    assert buffered.latency < unbuffered.latency
    # stage loads: root stage sees only buffer input cap + first wire
    assert buffered.stage_load[0] < unbuffered.stage_load[0]


def test_detour_increases_delay():
    t = tech()
    tree = RoutedTree(Point(0, 0))
    s = tree.add_child(tree.root, Point(100, 0),
                       sink=Sink("s", Point(100, 0), cap=2.0))
    base = ElmoreAnalyzer(t).analyze(tree).latency
    tree.set_detour(s, 50.0)
    snaked = ElmoreAnalyzer(t).analyze(tree).latency
    assert snaked > base


def test_subtree_delay_added_at_sinks():
    t = tech()
    tree = RoutedTree(Point(0, 0))
    tree.add_child(tree.root, Point(10, 0),
                   sink=Sink("a", Point(10, 0), cap=1.0, subtree_delay=30.0))
    tree.add_child(tree.root, Point(10, 1),
                   sink=Sink("b", Point(10, 1), cap=1.0, subtree_delay=0.0))
    rep = ElmoreAnalyzer(t).analyze(tree)
    assert rep.skew == pytest.approx(30.0, abs=0.5)


def test_slew_degrades_along_wire():
    t = tech()
    tree = RoutedTree(Point(0, 0))
    far = tree.add_child(tree.root, Point(400, 0),
                         sink=Sink("s", Point(400, 0), cap=2.0))
    rep = ElmoreAnalyzer(t).analyze(tree, input_slew=25.0)
    assert rep.slew[tree.root] == 25.0
    assert rep.slew[far] > 25.0


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        ElmoreAnalyzer(tech()).analyze(RoutedTree(Point(0, 0)))


def test_two_edge_stage_slew_counts_wire_once():
    """Regression: wire slew must PERI the stage-root slew against the
    *cumulative* in-stage wire delay exactly once.

    The old code PERIed ``LN9 * stage_wire_delay[nid]`` against
    ``slew[parent]``, which already contained the parent's wire PERI —
    double-counting every prefix of the stage path.  Hand-computed on a
    two-edge stage root -> a -> b (unit_res=1, unit_cap=0.2, sink 4 fF):

        d1 = 50 * (0.2*50/2 + 0.2*50 + 4) * 1e-3 = 0.95 ps
        d2 = 50 * (0.2*50/2 + 4) * 1e-3        = 0.45 ps
        slew(b) = sqrt(10^2 + (LN9 * (d1 + d2))^2)
    """
    from repro.tech.technology import LN9

    t = tech()
    tree = RoutedTree(Point(0, 0))
    a = tree.add_child(tree.root, Point(50, 0))
    b = tree.add_child(a, Point(100, 0), sink=Sink("s", Point(100, 0), cap=4.0))
    rep = ElmoreAnalyzer(t).analyze(tree, input_slew=10.0)
    d1 = 50 * (0.2 * 50 / 2 + 0.2 * 50 + 4.0) * 1e-3
    d2 = 50 * (0.2 * 50 / 2 + 4.0) * 1e-3
    assert rep.slew[a] == pytest.approx(
        math.sqrt(10.0**2 + (LN9 * d1) ** 2), rel=1e-15)
    assert rep.slew[b] == pytest.approx(
        math.sqrt(10.0**2 + (LN9 * (d1 + d2)) ** 2), rel=1e-15)
    # the buggy value double-counted the d1 prefix
    buggy = math.sqrt(10.0**2 + (LN9 * d1) ** 2 + (LN9 * (d1 + d2)) ** 2)
    assert rep.slew[b] < buggy


def test_buffer_restarts_slew_accumulation():
    """Wire slew below a buffer PERIs against the buffer's output slew,
    not against anything accumulated upstream of the buffer."""
    from repro.tech.technology import LN9

    t = tech()
    lib = default_library()
    buf = lib.by_name("CLKBUF_X8")
    tree = RoutedTree(Point(0, 0))
    mid = tree.add_child(tree.root, Point(200, 0))
    tree.set_buffer(mid, buf)
    s = tree.add_child(mid, Point(400, 0),
                       sink=Sink("s", Point(400, 0), cap=4.0))
    rep = ElmoreAnalyzer(t).analyze(tree, input_slew=10.0)
    load = 0.2 * 200 + 4.0  # buffer stage: 200 um of wire + sink pin
    d = 200 * (0.2 * 200 / 2 + 4.0) * 1e-3
    expected = math.sqrt(buf.output_slew(load) ** 2 + (LN9 * d) ** 2)
    assert rep.slew[s] == pytest.approx(expected, rel=1e-15)


def test_buffer_total_cap_counts_buffer_pins():
    t = tech()
    lib = default_library()
    tree = RoutedTree(Point(0, 0))
    mid = tree.add_child(tree.root, Point(10, 0))
    tree.set_buffer(mid, lib.weakest)
    tree.add_child(mid, Point(20, 0), sink=Sink("s", Point(20, 0), cap=1.0))
    rep = ElmoreAnalyzer(t).analyze(tree)
    assert math.isclose(rep.total_cap, 0.2 * 20 + 1.0 + lib.weakest.input_cap)

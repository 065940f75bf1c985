"""Tests for setup/hold analysis and useful-skew scheduling."""

import random

import pytest

from repro.dme import ust_dme
from repro.geometry import Point
from repro.netlist import ClockNet, Sink
from repro.timing.sta import (
    DataPath,
    analyze_paths,
    schedule_useful_skew,
    windows_from_schedule,
)


def test_path_validation():
    with pytest.raises(ValueError):
        DataPath("a", "b", delay_max=5.0, delay_min=6.0)
    assert DataPath("a", "b", 5.0).dmin == 5.0
    assert DataPath("a", "b", 5.0, 2.0).dmin == 2.0


def test_analyze_zero_skew_slacks():
    arrivals = {"a": 10.0, "b": 10.0}
    paths = [DataPath("a", "b", delay_max=8.0, delay_min=3.0)]
    rep = analyze_paths(arrivals, paths, period=10.0, t_setup=1.0,
                        t_hold=0.5)
    # setup: (10 + 10) - (10 + 8 + 1) = 1
    assert rep.setup_slacks[("a", "b")] == pytest.approx(1.0)
    # hold: (10 + 3) - (10 + 0.5) = 2.5
    assert rep.hold_slacks[("a", "b")] == pytest.approx(2.5)
    assert rep.ok
    assert rep.wns_setup == pytest.approx(1.0)


def test_analyze_detects_violation():
    arrivals = {"a": 0.0, "b": 0.0}
    paths = [DataPath("a", "b", delay_max=12.0)]
    rep = analyze_paths(arrivals, paths, period=10.0)
    assert rep.setup_slacks[("a", "b")] == pytest.approx(-2.0)
    assert not rep.ok


def test_analyze_validation():
    with pytest.raises(ValueError):
        analyze_paths({}, [], period=0.0)
    with pytest.raises(KeyError):
        analyze_paths({"a": 0.0}, [DataPath("a", "zz", 1.0)], period=10.0)


def test_useful_skew_fixes_long_path():
    """The classic win: a long path into a short path becomes feasible by
    delaying the middle register's clock."""
    paths = [
        DataPath("a", "b", delay_max=12.0, delay_min=11.0),
        DataPath("b", "c", delay_max=4.0, delay_min=3.0),
    ]
    period = 10.0
    # zero skew fails
    zero = analyze_paths({"a": 0, "b": 0, "c": 0}, paths, period)
    assert not zero.ok
    # a schedule exists
    result = schedule_useful_skew(paths, period, ["a", "b", "c"])
    assert result is not None
    targets, margin = result
    assert margin > 0
    scheduled = analyze_paths(targets, paths, period)
    assert scheduled.ok
    assert scheduled.wns_setup >= margin - 1e-6
    assert scheduled.wns_hold >= margin - 1e-6


def test_schedule_infeasible_cycle():
    """A loop whose total max delay exceeds the budget cannot be fixed by
    skew alone (skew cancels around a cycle)."""
    paths = [
        DataPath("a", "b", delay_max=12.0, delay_min=12.0),
        DataPath("b", "a", delay_max=12.0, delay_min=12.0),
    ]
    assert schedule_useful_skew(paths, period=10.0, sinks=["a", "b"]) is None


def test_schedule_margin_windows_jointly_feasible():
    paths = [
        DataPath("a", "b", delay_max=9.0, delay_min=5.0),
        DataPath("b", "c", delay_max=6.0, delay_min=2.0),
        DataPath("a", "c", delay_max=7.0, delay_min=4.0),
    ]
    result = schedule_useful_skew(paths, 10.0, ["a", "b", "c"])
    assert result is not None
    targets, margin = result
    windows = windows_from_schedule(targets, margin)
    # any extreme corner of the windows still satisfies every constraint
    rng = random.Random(0)
    for _ in range(50):
        arrivals = {
            name: rng.uniform(*windows[name]) for name in windows
        }
        assert analyze_paths(arrivals, paths, 10.0).ok


def test_schedule_drives_ust_dme_end_to_end():
    """Timing constraints -> schedule -> UST tree -> STA clean."""
    rng = random.Random(4)
    names = [f"ff{i}" for i in range(6)]
    sinks = [
        Sink(name, Point(rng.uniform(0, 40), rng.uniform(0, 40)))
        for name in names
    ]
    net = ClockNet("sta", Point(20, 20), sinks)
    paths = [
        DataPath("ff0", "ff1", delay_max=55.0, delay_min=50.0),
        DataPath("ff1", "ff2", delay_max=10.0, delay_min=8.0),
        DataPath("ff3", "ff4", delay_max=30.0, delay_min=25.0),
    ]
    period = 50.0  # ff0->ff1 violates at zero skew
    result = schedule_useful_skew(paths, period, names)
    assert result is not None
    targets, margin = result
    windows = windows_from_schedule(targets, margin)
    tree = ust_dme(net, windows)  # linear model: um play the role of ps
    arrivals = {
        tree.node(nid).sink.name: pl
        for nid, pl in tree.sink_path_lengths().items()
    }
    # the ust guarantee: some common shift aligns arrivals into windows
    from repro.dme import ust_feasible_shift

    interval = ust_feasible_shift(arrivals, windows)
    assert interval is not None
    s = interval[0]
    shifted = {n: arrivals[n] + s for n in names}
    assert analyze_paths(shifted, paths, period).ok

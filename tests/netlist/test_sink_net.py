"""Tests for Sink and ClockNet."""

import pytest

from repro.geometry import Point
from repro.netlist import ClockNet, Sink


def make_net():
    return ClockNet(
        "n1",
        source=Point(0, 0),
        sinks=[
            Sink("a", Point(1, 0), cap=2.0),
            Sink("b", Point(0, 3), cap=1.0),
            Sink("c", Point(2, 2), cap=0.5),
        ],
    )


def test_sink_validation():
    with pytest.raises(ValueError):
        Sink("s", Point(0, 0), cap=-1.0)
    with pytest.raises(ValueError):
        Sink("s", Point(0, 0), subtree_delay=-5.0)


def test_net_requires_sinks():
    with pytest.raises(ValueError):
        ClockNet("empty", Point(0, 0), [])


def test_net_duplicate_sink_names_rejected():
    with pytest.raises(ValueError):
        ClockNet("dup", Point(0, 0),
                 [Sink("a", Point(1, 1)), Sink("a", Point(2, 2))])


def test_net_metrics():
    net = make_net()
    assert net.fanout == 3
    lo, hi = net.bbox()
    assert lo == Point(0, 0) and hi == Point(2, 3)

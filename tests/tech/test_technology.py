"""Tests for wire parasitic models and unit conventions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.tech import RC_TO_PS, Technology

lengths = st.floats(min_value=0, max_value=1e4, allow_nan=False)
caps = st.floats(min_value=0, max_value=1e3, allow_nan=False)


def test_units_roundtrip():
    tech = Technology(unit_res=1.0, unit_cap=0.2)
    # 100 um of wire: R = 100 ohm, C = 20 fF, Elmore = 100 * 10 fs = 1 ps
    assert tech.wire_res(100) == 100
    assert tech.wire_cap(100) == 20
    assert math.isclose(tech.wire_delay(100), 1.0)


def test_wire_delay_with_load():
    tech = Technology(unit_res=1.0, unit_cap=0.2)
    # load adds R_wire * C_load
    base = tech.wire_delay(100)
    loaded = tech.wire_delay(100, load_cap=30.0)
    assert math.isclose(loaded - base, 100 * 30 * RC_TO_PS)


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        Technology().wire_delay(-1)


def test_rc_per_um2():
    tech = Technology(unit_res=2.0, unit_cap=0.25)
    assert math.isclose(tech.rc_per_um2_ps(), 0.5 * RC_TO_PS)


@given(lengths, lengths, caps)
def test_wire_delay_superadditive_in_length(l1, l2, cap):
    """Splitting a wire never increases delay computed as one segment.

    Elmore delay of a single wire of length l1+l2 >= sum of the two pieces
    evaluated in cascade with the same final load, because the upstream
    piece sees the downstream wire cap.  This is the monotonicity the
    critical-wirelength buffering rule exploits.
    """
    tech = Technology()
    whole = tech.wire_delay(l1 + l2, cap)
    cascade = tech.wire_delay(l1, tech.wire_cap(l2) + cap) + tech.wire_delay(l2, cap)
    assert whole <= cascade + 1e-9
    assert whole >= cascade - 1e-9  # Elmore is exactly additive on a path


@given(lengths)
def test_wire_delay_monotone(length):
    tech = Technology()
    assert tech.wire_delay(length) <= tech.wire_delay(length + 1.0)

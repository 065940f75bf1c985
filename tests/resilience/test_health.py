"""RunHealth: the wall-clock-free fabric incident log."""

import json

import pytest

from repro.resilience import FABRIC_EVENT_KINDS, RunHealth


def test_fresh_health_is_healthy():
    health = RunHealth()
    assert health.healthy
    assert health.summary() == "fabric healthy (no incidents)"
    assert health.to_dict() == {"healthy": True, "counters": {},
                                "events": []}


def test_record_and_counters():
    health = RunHealth()
    health.record("timeout", task="net L0_c1", detail="blew 2s budget")
    health.record("retry", task="net L0_c2", attempt=1)
    health.record("retry", task="net L0_c2", attempt=2)
    health.record("resurrect", attempt=1)
    health.record("quarantine", task="net L0_c1")
    health.record("degraded", task="net L0_c1")
    assert not health.healthy
    assert health.count("timeout") == 1
    assert health.retries == 2
    assert health.count("resurrect") == 1
    assert health.count("quarantine") == 1
    assert health.count("degraded") == 1
    assert "2 retry" in health.summary()


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fabric event kind"):
        RunHealth().record("explosion")
    assert "timeout" in FABRIC_EVENT_KINDS


def test_merge_preserves_order():
    a, b = RunHealth(), RunHealth()
    a.record("retry", task="x")
    b.record("timeout", task="y")
    a.merge(b)
    assert [e.kind for e in a.events] == ["retry", "timeout"]
    assert b.events  # merge does not consume the source


def test_to_dict_is_wall_clock_free_and_json_safe():
    health = RunHealth()
    health.record("timeout", task="p0", attempt=0, detail="budget blown")
    health.record("resurrect", attempt=1)
    payload = health.to_dict()
    text = json.dumps(payload, sort_keys=True)
    # no timestamps/durations anywhere: two runs hitting the same
    # faults serialise identically
    assert "time_s" not in text and "timestamp" not in text
    assert payload["counters"] == {"timeout": 1, "resurrect": 1}
    events = payload["events"]
    assert events[0] == {"kind": "timeout", "task": "p0",
                         "detail": "budget blown"}
    assert events[1] == {"kind": "resurrect", "attempt": 1}

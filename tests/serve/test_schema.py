"""Request validation: strict, typed, and key-compatible with sweeps."""

import json

import pytest

from repro.designs import design_fingerprint
from repro.serve import RequestError, parse_request, parse_request_bytes
from repro.sweep import SweepSpec
from repro.sweep.store import record_key

DESIGN = "s38584"


def test_minimal_request_resolves():
    req = parse_request({"design": DESIGN})
    assert req.point.design == DESIGN
    assert req.point.scale == 1.0
    assert req.priority == 0
    assert req.deadline_s == 0.0
    assert req.stream is False
    assert len(req.key) == 64


def test_request_key_matches_the_swept_point():
    """A served request and a swept point share one cache entry."""
    req = parse_request({
        "design": DESIGN, "scale": 0.02,
        "config": {"eps": 0.3, "skew_bound": 60, "library": "lean"},
    })
    spec = SweepSpec(
        designs=[DESIGN], scales=[0.02],
        points=[{"eps": 0.3, "skew_bound": 60, "library": "lean"}],
    )
    # expansion is [default combo, explicit point] — the empty grid
    # still contributes its all-defaults combo at index 0
    point = spec.expand()[1]
    swept_key = record_key(
        design_fingerprint(point.design, point.scale),
        point.canonical_config(),
    )
    assert req.key == swept_key


def test_knob_order_cannot_change_the_key():
    a = parse_request({"design": DESIGN,
                       "config": {"eps": 0.3, "skew_bound": 60}})
    b = parse_request({"design": DESIGN,
                       "config": {"skew_bound": 60, "eps": 0.3}})
    assert a.key == b.key


def test_optional_fields_parse():
    req = parse_request({
        "design": DESIGN, "priority": 7,
        "deadline_s": 30, "stream": True,
    })
    assert req.priority == 7
    assert req.deadline_s == 30.0
    assert req.stream is True


@pytest.mark.parametrize("payload, needle", [
    ("nah", "JSON object"),
    ({}, "'design'"),
    ({"design": 42}, "'design'"),
    ({"design": "nope"}, "unknown design"),
    ({"design": DESIGN, "scale": 0}, "(0, 1]"),
    ({"design": DESIGN, "scale": 2}, "(0, 1]"),
    ({"design": DESIGN, "scale": "big"}, "number"),
    ({"design": DESIGN, "scale": True}, "number"),
    ({"design": DESIGN, "config": []}, "object of knobs"),
    ({"design": DESIGN, "config": {"zzz": 1}}, "unknown knob"),
    ({"design": DESIGN, "config": {"library": "nope"}},
     "unknown buffer library"),
    ({"design": DESIGN, "priority": 1.5}, "integer"),
    ({"design": DESIGN, "priority": True}, "integer"),
    ({"design": DESIGN, "deadline_s": -1}, ">= 0"),
    ({"design": DESIGN, "stream": 1}, "boolean"),
    ({"design": DESIGN, "bogus": 1}, "unknown request field"),
])
def test_invalid_payloads_are_typed_rejections(payload, needle):
    with pytest.raises(RequestError) as excinfo:
        parse_request(payload)
    assert needle in str(excinfo.value)


@pytest.mark.parametrize("config, needle", [
    ({"eps": "0.3"}, "'eps' must be a finite number"),
    ({"eps": float("nan")}, "'eps' must be a finite number"),
    ({"source_slew": float("inf")}, "'source_slew' must be a finite number"),
    ({"eps": True}, "'eps' must be a finite number"),
    ({"topology": "nope"}, "unknown topology 'nope'"),
    ({"sa_iterations": 200.7}, "'sa_iterations' must be an integer"),
    ({"sa_iterations": "200"}, "'sa_iterations' must be an integer"),
    ({"use_sa": 1}, "'use_sa' must be a boolean"),
    ({"skew_bound": "20"}, "'skew_bound' must be a finite number"),
    ({"skew_bound": True}, "'skew_bound' must be a finite number"),
])
def test_wrong_typed_knobs_are_typed_rejections(config, needle):
    """A knob of the wrong type is a 400, never a run: ``"0.3"`` used to
    fail inside the router, ``"nope"`` to fall back to a star tree
    stored as ``ok``, 200.7 to share 200's key and ``1`` to get a key
    apart from ``true``."""
    with pytest.raises(RequestError) as excinfo:
        parse_request({"design": DESIGN, "config": config})
    assert needle in str(excinfo.value)


def test_integral_spellings_share_a_key():
    a = parse_request({"design": DESIGN, "config": {
        "eps": 0, "sa_iterations": 200.0, "skew_bound": 60}})
    b = parse_request({"design": DESIGN, "config": {
        "eps": 0.0, "sa_iterations": 200, "skew_bound": 60.0}})
    assert a.key == b.key
    assert dict(a.point.overrides) == {"eps": 0.0, "sa_iterations": 200}


def test_request_error_is_a_value_error():
    """main() maps ValueError to exit 2; RequestError must qualify."""
    assert issubclass(RequestError, ValueError)


def test_parse_bytes_round_trip_and_garbage():
    req = parse_request_bytes(
        json.dumps({"design": DESIGN, "scale": 0.02}).encode()
    )
    assert req.point.scale == 0.02
    with pytest.raises(RequestError, match="not valid JSON"):
        parse_request_bytes(b"{not json")
    with pytest.raises(RequestError, match="not valid JSON"):
        parse_request_bytes(b"\xff\xfe")


@pytest.mark.parametrize("deadline", [float("inf"), float("nan"), 10**400])
def test_non_finite_deadline_is_a_typed_rejection(deadline):
    """An infinite deadline used to pass validation and crash the
    served miss (a 500); an int beyond the float range likewise."""
    with pytest.raises(RequestError,
                       match="'deadline_s' must be a finite number >= 0"):
        parse_request({"design": DESIGN, "deadline_s": deadline})


@pytest.mark.parametrize("config, field", [
    ({"eps": -1}, "eps"),
    ({"seed": -1}, "seed"),
    ({"sa_iterations": -1}, "sa_iterations"),
    ({"repair_budget": -1}, "repair_budget"),
    ({"source_slew": -10}, "source_slew"),
    ({"skew_bound": -5}, "skew_bound"),
])
def test_out_of_range_knobs_are_typed_rejections(config, field):
    """Negative knobs used to run: eps -1 stored an ``ok`` record built
    by the fallback ladder, seed -1 a forced median split."""
    with pytest.raises(RequestError, match=f"'{field}' must be >= 0"):
        parse_request({"design": DESIGN, "config": config})


def test_a_valid_request_reads_no_catalog(monkeypatch):
    """Membership is checked against the set built at import, and no
    error message is formatted for a check that passes."""
    import repro.serve.schema as schema

    calls = []

    def counted():
        calls.append(1)
        return []

    monkeypatch.setattr(schema, "design_names", counted)
    parse_request({"design": DESIGN, "scale": 0.05,
                   "config": {"eps": 0.3, "seed": 1}})
    assert calls == []

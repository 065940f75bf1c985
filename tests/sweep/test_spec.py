"""Sweep spec expansion, validation and digests."""

import json

import pytest

from repro.sweep import (
    SweepSpec,
    SweepStore,
    load_spec,
    run_sweep,
    spec_from_dict,
    sweepable_keys,
)


def test_grid_expansion_order_is_deterministic():
    spec = SweepSpec(
        designs=["s38584"],
        scales=[0.05],
        grid={"seed": [0, 1], "eps": [0.1, 0.5]},
    )
    points = spec.expand()
    assert len(points) == 4
    assert [p.index for p in points] == [0, 1, 2, 3]
    # axes sorted by name (eps before seed), values in listed order
    assert [dict(p.overrides) for p in points] == [
        {"eps": 0.1, "seed": 0},
        {"eps": 0.1, "seed": 1},
        {"eps": 0.5, "seed": 0},
        {"eps": 0.5, "seed": 1},
    ]


def test_explicit_points_append_after_grid():
    spec = SweepSpec(
        designs=["s38584"],
        grid={"eps": [0.1]},
        points=[{"eps": 1.0, "library": "lean"}],
    )
    points = spec.expand()
    assert len(points) == 2
    assert points[1].library == "lean"
    assert dict(points[1].overrides) == {"eps": 1.0}


def test_empty_grid_yields_default_point():
    points = SweepSpec(designs=["s38584"]).expand()
    assert len(points) == 1
    assert points[0].overrides == ()
    assert points[0].library == "default"


@pytest.mark.parametrize("name", ["jobs", "task_timeout", "task_retries",
                                  "pool_rebuilds"])
def test_execution_settings_are_not_sweepable(name):
    # they never changed a record, and dedup ran only the first value
    assert name not in sweepable_keys()
    with pytest.raises(ValueError, match="unknown sweep knob"):
        SweepSpec(designs=["s38584"], grid={name: [1, 2]})
    with pytest.raises(ValueError, match="unknown knob"):
        SweepSpec(designs=["s38584"], points=[{name: 2}])


def test_engine_knobs_are_sweepable():
    assert "skew_bound" in sweepable_keys()
    assert "library" in sweepable_keys()
    assert "eps" in sweepable_keys()
    # the router callable is not sweepable
    assert "router" not in sweepable_keys()


@pytest.mark.parametrize("bad, match", [
    ({"designs": ["nope"]}, "unknown design"),
    ({"designs": ["s38584"], "scales": [2.0]}, "scale"),
    ({"designs": ["s38584"], "grid": {"bogus": [1]}}, "unknown sweep knob"),
    ({"designs": ["s38584"], "grid": {"eps": []}}, "non-empty list"),
    ({"designs": ["s38584"], "points": [{"bogus": 1}]}, "unknown knob"),
    ({"designs": ["s38584"], "objectives": ["bogus"]}, "unknown objective"),
    ({"designs": ["s38584"], "grid": {"library": ["x"]}},
     "unknown buffer library"),
    ({"designs": []}, "at least one design"),
])
def test_invalid_specs_fail_eagerly(bad, match):
    with pytest.raises(ValueError, match=match):
        spec_from_dict(bad)


def test_unknown_topology_fails_before_any_point_runs(tmp_path):
    """A grid naming no topology generator used to run, fall back to a
    star tree and store the result as ``ok``."""
    spec = spec_from_dict({"designs": ["s38584"], "scales": [0.05],
                           "grid": {"topology": ["nope"]}})
    store = SweepStore(tmp_path)
    with pytest.raises(ValueError, match="unknown topology 'nope'"):
        run_sweep(spec, store)
    assert not any(tmp_path.rglob("*.json*"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValueError, match="unknown sweep spec key"):
        spec_from_dict({"designs": ["s38584"], "gird": {}})


def test_digest_is_stable_and_content_sensitive():
    a = SweepSpec(designs=["s38584"], grid={"eps": [0.1]})
    b = SweepSpec(designs=["s38584"], grid={"eps": [0.1]})
    c = SweepSpec(designs=["s38584"], grid={"eps": [0.2]})
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "designs": ["s38584"],
        "scales": [0.05],
        "grid": {"eps": [0.1, 0.5], "skew_bound": [60, 80]},
    }))
    spec = load_spec(path)
    assert spec.name == "spec"  # defaults to the file stem
    assert len(spec.expand()) == 4


def test_load_spec_errors_carry_the_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match="nope.json"):
        load_spec(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json.*not valid JSON"):
        load_spec(bad)


def test_point_canonical_config_materialises_defaults():
    spec = SweepSpec(designs=["s38584"], grid={"eps": [0.25]})
    point = spec.expand()[0]
    config = point.canonical_config()
    assert config["flow"]["eps"] == 0.25
    # defaults are materialised, not implied
    assert "sa_iterations" in config["flow"]
    assert config["library"] == "default"
    assert isinstance(config["skew_bound"], float)


@pytest.mark.parametrize("axis, value", [
    ("eps", -1.0), ("seed", -1), ("source_slew", -10.0),
    ("skew_bound", -5.0),
])
def test_out_of_range_knob_fails_before_any_point_runs(tmp_path, axis,
                                                       value):
    """A negative knob used to run (or, for the skew bound, land as an
    error record) instead of failing the spec."""
    spec = spec_from_dict({"designs": ["s38584"], "scales": [0.05],
                           "grid": {axis: [1, value]}})
    with pytest.raises(ValueError, match=f"'{axis}' must be >= 0"):
        run_sweep(spec, SweepStore(tmp_path))
    assert not any(tmp_path.rglob("*.json*"))

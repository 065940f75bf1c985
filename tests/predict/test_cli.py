"""CLI surfaces of the predict subsystem (and satellite commands)."""

import json

import pytest

from repro.cli import main
from repro.sweep.store import RESULT_SCHEMA_VERSION, SweepStore

from tests.predict.conftest import SMOKE_RECORDS


@pytest.fixture
def model_path(tmp_path):
    assert main(["fit", str(SMOKE_RECORDS),
                 "--out", str(tmp_path / "models")]) == 0
    artifacts = list((tmp_path / "models").glob("model-*.json"))
    assert len(artifacts) == 1
    return artifacts[0]


@pytest.fixture
def smoke_store(tmp_path, smoke_records):
    root = tmp_path / "store"
    store = SweepStore(root)
    for record in smoke_records:
        store.put(record["key"], record)
    return root


def test_fit_is_byte_identical_across_runs(tmp_path, capsys):
    assert main(["fit", str(SMOKE_RECORDS),
                 "--out", str(tmp_path / "a"), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["fit", str(SMOKE_RECORDS),
                 "--out", str(tmp_path / "b"), "--jobs", "2",
                 "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["key"] == second["key"]
    a = (tmp_path / "a" / f"model-{first['key'][:16]}.json").read_bytes()
    b = (tmp_path / "b" / f"model-{first['key'][:16]}.json").read_bytes()
    assert a == b
    assert first["rows"] == 8


def test_fit_from_store_root(smoke_store, tmp_path, capsys):
    assert main(["fit", str(smoke_store),
                 "--out", str(tmp_path / "models")]) == 0
    assert "model" in capsys.readouterr().out


def test_fit_missing_path_exits_2(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_answers_without_flow(model_path, capsys):
    assert main(["predict", "--model", str(model_path),
                 "--design", "s38584", "--scale", "0.05",
                 "--set", "eps=0.1", "--set", "library=lean",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["predicted"].keys() >= {"skew_ps", "latency_ps"}
    assert payload["config"]["library"] == "lean"
    assert not payload["calibrated"]


def test_predict_with_calibration(model_path, capsys):
    assert main(["predict", "--model", str(model_path),
                 "--design", "s38584", "--scale", "0.05",
                 "--calibrate", str(SMOKE_RECORDS), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["calibrated"]
    assert payload["calibration_points"] == 8


def test_predict_rejects_unknown_knob(model_path, capsys):
    assert main(["predict", "--model", str(model_path),
                 "--set", "bogus=1"]) == 2
    assert "unknown knob" in capsys.readouterr().err


def test_predict_rejects_bad_model_path(tmp_path, capsys):
    assert main(["predict", "--model", str(tmp_path / "no.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_suggest_writes_deterministic_spec(model_path, tmp_path,
                                           capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "cli-suggest",
        "designs": ["s38584"],
        "scales": [0.05],
        "grid": {"eps": [0.02, 0.1, 1.0], "seed": [0, 1]},
    }))
    out1, out2 = tmp_path / "next1.json", tmp_path / "next2.json"
    assert main(["suggest", str(spec), "--model", str(model_path),
                 "--out", str(out1)]) == 0
    assert main(["suggest", str(spec), "--model", str(model_path),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    emitted = json.loads(out1.read_text())
    assert emitted["name"] == "cli-suggest-next"
    assert emitted["designs"] == ["s38584"]
    # first survivor rides as a one-combo grid, the rest as points
    assert all(len(v) == 1 for v in emitted["grid"].values())
    assert len(emitted["points"]) == 1
    capsys.readouterr()


def test_suggest_excludes_stored_points(model_path, smoke_store,
                                        tmp_path, capsys):
    spec = tmp_path / "spec.json"
    # the committed smoke grid: every point is already in the store
    spec.write_text(json.dumps({
        "name": "covered",
        "designs": ["s38584"],
        "scales": [0.05],
        "grid": {"eps": [0.02, 1.0], "seed": [0, 1],
                 "library": ["default", "lean"]},
        "points": [],
        "skew_bound": 80.0,
    }))
    # skew_bound rides the grid in the smoke spec; replicate via grid
    spec.write_text(json.dumps({
        "name": "covered",
        "designs": ["s38584"],
        "scales": [0.05],
        "grid": {"eps": [0.02, 1.0], "seed": [0, 1],
                 "library": ["default", "lean"],
                 "skew_bound": [80.0]},
    }))
    assert main(["suggest", str(spec), "--model", str(model_path),
                 "--store", str(smoke_store), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["measured"] == 8
    assert payload["candidates"] == 0
    assert payload["next_spec"] is None


def test_suggest_missing_store_exits_2(model_path, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "s", "designs": ["s38584"], "scales": [0.05],
        "grid": {"eps": [0.1, 1.0]},
    }))
    assert main(["suggest", str(spec), "--model", str(model_path),
                 "--store", str(tmp_path / "absent")]) == 2
    assert "not a sweep store root" in capsys.readouterr().err


def test_store_stats_and_gc(smoke_store, capsys):
    assert main(["store", "stats", str(smoke_store), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 8
    assert stats["schemas"] == {str(RESULT_SCHEMA_VERSION): 8}
    assert "s38584@0.05" in stats["designs"]

    # plant an old-schema record; gc is dry-run by default
    store = SweepStore(smoke_store)
    stale = dict(store.records()[0], schema=1, key="0" * 64)
    store.put("0" * 64, stale)
    assert main(["store", "gc", str(smoke_store), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dry_run"] and report["candidates"] == 1
    assert store.record_path("0" * 64).exists()

    assert main(["store", "gc", str(smoke_store), "--apply",
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["dry_run"] and report["removed"] == 1
    assert not store.record_path("0" * 64).exists()


def test_store_gc_refuses_current_schema(smoke_store, capsys):
    assert main(["store", "gc", str(smoke_store),
                 "--schema-version", str(RESULT_SCHEMA_VERSION)]) == 2
    assert "refusing" in capsys.readouterr().err


def test_store_commands_reject_missing_root(tmp_path, capsys):
    assert main(["store", "stats", str(tmp_path / "absent")]) == 2
    capsys.readouterr()
    assert main(["store", "gc", str(tmp_path / "absent")]) == 2
    capsys.readouterr()


def test_pareto_objective_validation_exits_2(smoke_store, capsys):
    # unknown metric name
    assert main(["pareto", str(smoke_store),
                 "--objectives", "skew_ps", "nope"]) == 2
    assert "unknown objective" in capsys.readouterr().err
    # known name, but not a column of these records
    store = SweepStore(smoke_store)
    for record in store.records():
        quality = dict(record["quality"])
        quality.pop("max_stage_load_ff", None)
        store.put(record["key"], dict(record, quality=quality))
    assert main(["pareto", str(smoke_store),
                 "--objectives", "max_stage_load_ff"]) == 2
    err = capsys.readouterr().err
    assert "not a metric column" in err and "available" in err

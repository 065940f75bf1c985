"""Few-shot calibration: the SwiftCTS contract on a held-out design.

The model trains on the committed s38584@0.05 smoke records only; the
held-out design (s38417@0.02) is swept live in a session fixture.  The
contract under test is the acceptance criterion: an affine correction
fitted on k ≤ 8 of the held-out design's cheap points reduces the mean
absolute error on that design's *other* points versus the uncalibrated
cross-design model.
"""

import numpy as np
import pytest

from repro.predict import (
    MAX_CALIBRATION_POINTS,
    Calibration,
    calibrated_predict,
    few_shot_calibrate,
    select_calibration_records,
)
from repro.sweep import SweepSpec, SweepStore, run_sweep
from tests.predict.evaluation import mean_absolute_error, relative_mae

HELD_OUT_DESIGN = "s38417"
HELD_OUT_SCALE = 0.02


@pytest.fixture(scope="session")
def held_out_records(tmp_path_factory) -> list[dict]:
    """12 real flow records of a design the model never trained on."""
    spec = SweepSpec(
        name="held-out",
        designs=[HELD_OUT_DESIGN],
        scales=[HELD_OUT_SCALE],
        grid={
            "eps": [0.1, 0.4, 1.0],
            "seed": [0, 1],
            "skew_bound": [60.0, 80.0],
        },
    )
    store = SweepStore(tmp_path_factory.mktemp("held-out-store"))
    report = run_sweep(spec, store, jobs=1)
    assert report.failed == 0
    return [r for r in report.records if r["status"] == "ok"]


def _split(model, records):
    """Calibration points (first k=8 by sorted key) vs eval remainder."""
    chosen = select_calibration_records(
        records, HELD_OUT_DESIGN, HELD_OUT_SCALE)
    chosen_keys = {r["key"] for r in chosen}
    held = [r for r in records if r["key"] not in chosen_keys]
    assert len(chosen) == MAX_CALIBRATION_POINTS
    assert len(held) >= 3
    return chosen, held


def test_k8_calibration_reduces_error_on_held_out_design(
        smoke_model, held_out_records):
    """The acceptance criterion, end to end on real flow records."""
    _, eval_records = _split(smoke_model, held_out_records)
    calibration = few_shot_calibrate(
        smoke_model, held_out_records, HELD_OUT_DESIGN, HELD_OUT_SCALE)
    assert calibration.points == MAX_CALIBRATION_POINTS

    uncalibrated = relative_mae(smoke_model, None, eval_records)
    calibrated = relative_mae(smoke_model, calibration, eval_records)
    assert calibrated < uncalibrated, (
        f"calibration must reduce held-out relative MAE "
        f"({calibrated:.4f} vs {uncalibrated:.4f})"
    )


def test_calibration_is_deterministic(smoke_model, held_out_records):
    a = few_shot_calibrate(smoke_model, held_out_records,
                           HELD_OUT_DESIGN, HELD_OUT_SCALE)
    b = few_shot_calibrate(smoke_model, list(reversed(held_out_records)),
                           HELD_OUT_DESIGN, HELD_OUT_SCALE)
    assert np.array_equal(a.gains, b.gains)
    assert np.array_equal(a.offsets, b.offsets)


def test_no_matching_points_yields_identity(smoke_model):
    calibration = few_shot_calibrate(smoke_model, [], "s38584", 1.0)
    assert calibration.points == 0
    predicted = {"skew_ps": 3.0, "latency_ps": 50.0}
    assert calibration.apply(predicted) == predicted


def test_k_is_clamped_to_the_few_shot_budget(
        smoke_model, held_out_records):
    calibration = few_shot_calibrate(
        smoke_model, held_out_records, HELD_OUT_DESIGN, HELD_OUT_SCALE,
        k=999)
    assert calibration.points == MAX_CALIBRATION_POINTS


def test_selection_is_sorted_key_prefix(held_out_records):
    chosen = select_calibration_records(
        held_out_records, HELD_OUT_DESIGN, HELD_OUT_SCALE, k=4)
    keys = [r["key"] for r in chosen]
    all_keys = sorted(r["key"] for r in held_out_records)
    assert keys == all_keys[:4]
    # wrong design / scale select nothing
    assert select_calibration_records(
        held_out_records, "s38584", HELD_OUT_SCALE) == []
    assert select_calibration_records(
        held_out_records, HELD_OUT_DESIGN, 0.5) == []


def test_calibrated_predict_applies_the_correction(
        smoke_model, held_out_records):
    record = held_out_records[0]
    calibration = few_shot_calibrate(
        smoke_model, held_out_records, HELD_OUT_DESIGN, HELD_OUT_SCALE)
    raw = calibrated_predict(smoke_model, None, HELD_OUT_DESIGN,
                             HELD_OUT_SCALE, record["config"])
    corrected = calibrated_predict(smoke_model, calibration,
                                   HELD_OUT_DESIGN, HELD_OUT_SCALE,
                                   record["config"])
    assert corrected == calibration.apply(raw)


def test_mean_absolute_error_shape(smoke_model, held_out_records):
    mae = mean_absolute_error(smoke_model, None, held_out_records)
    assert set(mae) == set(smoke_model.target_names)
    assert all(np.isfinite(v) and v >= 0 for v in mae.values())
    with pytest.raises(ValueError, match="no records"):
        mean_absolute_error(smoke_model, None, [])


def test_identity_calibration_roundtrip():
    identity = Calibration.identity("s38584", 1.0)
    predicted = {t: float(i + 1)
                 for i, t in enumerate(identity.target_names)}
    assert identity.apply(predicted) == predicted
    payload = identity.to_dict()
    assert payload["points"] == 0
    assert all(t["gain"] == 1.0 and t["offset"] == 0.0
               for t in payload["targets"].values())

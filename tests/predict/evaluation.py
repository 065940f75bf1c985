"""The evaluation harness for the few-shot calibration contract:
prediction error of an (optionally calibrated) model against stored
records."""

from __future__ import annotations

import numpy as np

from repro.predict import Calibration, RidgeModel


def mean_absolute_error(model: RidgeModel,
                        calibration: Calibration | None,
                        records: list[dict]) -> dict[str, float]:
    """Per-target MAE of (optionally calibrated) predictions vs records.

    Records must be ``status == "ok"`` and carry every target.
    """
    if not records:
        raise ValueError("no records to evaluate against")
    predicted = np.array([
        [model.predict_point(r["design"], float(r["scale"]),
                             r["config"])[t]
         for t in model.target_names]
        for r in records
    ])
    if calibration is not None:
        predicted = predicted * calibration.gains + calibration.offsets
    actual = np.array([
        [float(r["quality"][t]) for t in model.target_names]
        for r in records
    ])
    errors = np.abs(predicted - actual).mean(axis=0)
    return {t: float(e) for t, e in zip(model.target_names, errors)}


def relative_mae(model: RidgeModel, calibration: Calibration | None,
                 records: list[dict]) -> float:
    """One scalar: MAE per target divided by the target's own mean
    magnitude, averaged over targets — comparable across targets with
    wildly different units (ps vs um vs counts)."""
    mae = mean_absolute_error(model, calibration, records)
    magnitudes = np.array([
        [abs(float(r["quality"][t])) for t in model.target_names]
        for r in records
    ])
    scale = np.maximum(magnitudes.mean(axis=0), 1e-12)
    return float(np.mean([
        mae[t] / s for t, s in zip(model.target_names, scale)
    ]))

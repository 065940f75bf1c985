"""Learned cross-design metric prediction over the sweep store.

The store has been accumulating (design fingerprint, canonical config)
→ quality samples since the sweep harness landed; this package turns
them into answers.  Four layers, each deterministic to the byte:

- :mod:`repro.predict.features` — walk store records into a feature /
  target matrix pair with a stable schema digest;
- :mod:`repro.predict.model` — a numpy-only standardized-ridge
  regressor with content-addressed save/load;
- :mod:`repro.predict.calibrate` — SwiftCTS-style few-shot per-design
  affine correction from k ≤ 8 cheap points;
- :mod:`repro.predict.suggest` — successive halving over a sweep-spec
  grid ranked by predicted Pareto contribution, emitting the next
  round's spec.

docs/PREDICT.md is the contract; ``repro fit`` / ``repro predict`` /
``repro suggest`` and the server's ``/v1/predict`` route are thin
shells over these functions.
"""

from repro.predict.calibrate import (
    MAX_CALIBRATION_POINTS,
    Calibration,
    calibrated_predict,
    few_shot_calibrate,
    select_calibration_records,
)
from repro.predict.features import (
    FEATURE_SCHEMA_VERSION,
    TARGET_FIELDS,
    Dataset,
    extract_dataset,
    feature_names,
    feature_schema_digest,
    feature_vector,
)
from repro.predict.model import (
    DEFAULT_L2,
    MODEL_SCHEMA_VERSION,
    RidgeModel,
    fit,
    in_sample_mae,
    load_model,
)
from repro.predict.suggest import (
    DEFAULT_ROUNDS,
    SuggestReport,
    suggest_next_round,
)

__all__ = [
    "DEFAULT_L2",
    "DEFAULT_ROUNDS",
    "FEATURE_SCHEMA_VERSION",
    "MAX_CALIBRATION_POINTS",
    "MODEL_SCHEMA_VERSION",
    "TARGET_FIELDS",
    "Calibration",
    "Dataset",
    "RidgeModel",
    "SuggestReport",
    "calibrated_predict",
    "extract_dataset",
    "feature_names",
    "feature_schema_digest",
    "feature_vector",
    "few_shot_calibrate",
    "fit",
    "in_sample_mae",
    "load_model",
    "select_calibration_records",
    "suggest_next_round",
]

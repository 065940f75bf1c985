"""Few-shot per-design calibration on top of the cross-design model.

SwiftCTS's observation (PAPERS.md): a cross-design predictor lands in
the right *neighbourhood* on an unseen design but carries a systematic
per-design offset and scale — and a handful of cheap already-run points
is enough to estimate an affine correction that removes most of it.

The correction here is exactly that: per target ``t``,

    calibrated_t(x) = gain_t * model_t(x) + offset_t

with ``(gain, offset)`` the ridge-toward-identity least squares fit on
``k <= 8`` (design, config) points the flow has actually run.  The
regulariser pulls the correction toward ``(1, 0)`` — with zero points
the calibration *is* the identity, with a couple of points it trusts
them only as far as they constrain the two parameters, and it never
explodes when the k predictions are nearly collinear.

Everything is a closed-form 2x2 solve per target — deterministic, no
iteration — and calibration points are chosen by sorted record key, so
the same store always yields the same correction.
"""

from __future__ import annotations

import numpy as np

from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.predict.features import TARGET_FIELDS
from repro.predict.model import RidgeModel

_LOG = get_logger("predict")

#: The few-shot budget: SwiftCTS-style calibration uses at most this
#: many cheap points (more points belong in the training set proper).
MAX_CALIBRATION_POINTS = 8

#: Ridge strength pulling (gain, offset) toward the identity (1, 0),
#: on the standardized residual system.
_IDENTITY_RIDGE = 1e-3


class Calibration:
    """A per-design affine correction over the model's targets."""

    __slots__ = ("design", "scale", "points", "gains", "offsets",
                 "target_names")

    def __init__(self, design: str, scale: float, points: int,
                 gains: np.ndarray, offsets: np.ndarray,
                 target_names: tuple[str, ...] = TARGET_FIELDS):
        self.design = design
        self.scale = scale
        self.points = points
        self.gains = gains
        self.offsets = offsets
        self.target_names = target_names

    def apply(self, predicted: dict[str, float]) -> dict[str, float]:
        """Correct one prediction dict (unknown targets pass through)."""
        out = dict(predicted)
        for i, t in enumerate(self.target_names):
            if t in out:
                out[t] = float(self.gains[i] * out[t] + self.offsets[i])
        return out

    def to_dict(self) -> dict:
        return {
            "design": self.design,
            "scale": self.scale,
            "points": self.points,
            "targets": {
                t: {"gain": float(self.gains[i]),
                    "offset": float(self.offsets[i])}
                for i, t in enumerate(self.target_names)
            },
        }

    @classmethod
    def identity(cls, design: str, scale: float) -> "Calibration":
        t = len(TARGET_FIELDS)
        return cls(design, scale, 0, np.ones(t), np.zeros(t))


def select_calibration_records(records: list[dict], design: str,
                               scale: float,
                               k: int = MAX_CALIBRATION_POINTS
                               ) -> list[dict]:
    """The k cheap points calibration uses: same (design, scale),
    ``status == "ok"``, chosen by sorted record key (deterministic)."""
    chosen = [
        r for r in records
        if r.get("status") == "ok" and r.get("design") == design
        and abs(float(r.get("scale", -1.0)) - scale) < 1e-12
        and isinstance(r.get("key"), str)
    ]
    chosen.sort(key=lambda r: r["key"])
    return chosen[:k]


def few_shot_calibrate(model: RidgeModel, records: list[dict],
                       design: str, scale: float,
                       k: int = MAX_CALIBRATION_POINTS) -> Calibration:
    """Fit the affine correction for ``(design, scale)`` from records.

    ``records`` may be a whole store's worth; the k calibration points
    are selected by :func:`select_calibration_records`.  With no
    matching points the identity calibration is returned (the model is
    used as-is); ``k`` beyond :data:`MAX_CALIBRATION_POINTS` is
    clamped — few-shot means few.
    """
    k = max(0, min(int(k), MAX_CALIBRATION_POINTS))
    chosen = select_calibration_records(records, design, scale, k)
    if not chosen:
        _LOG.info("no calibration points for %s@%g; using the "
                  "cross-design model uncorrected", design, scale)
        return Calibration.identity(design, scale)

    predicted = np.array([
        [model.predict_point(r["design"], float(r["scale"]),
                             r["config"])[t]
         for t in model.target_names]
        for r in chosen
    ])
    actual = np.array([
        [float(r["quality"][t]) for t in model.target_names]
        for r in chosen
    ])

    n, t = predicted.shape
    gains = np.ones(t)
    offsets = np.zeros(t)
    for j in range(t):
        p, y = predicted[:, j], actual[:, j]
        # ridge toward identity on a scale-normalised system: solve for
        # (gain, offset) minimising |gain*p + offset - y|^2 with the
        # deviation from (1, 0) penalised relative to the target's own
        # magnitude, so the correction degrades gracefully to identity
        # when k points barely constrain it
        s = max(float(np.abs(y).mean()), 1e-12)
        A = np.stack([p / s, np.ones(n)], axis=1)
        b = (y - p) / s                       # residual from identity
        ridge = n * _IDENTITY_RIDGE * np.eye(2)
        delta = np.linalg.solve(A.T @ A + ridge, A.T @ b)
        gains[j] = 1.0 + delta[0]
        offsets[j] = delta[1] * s
    METRICS.inc("predict.calibrate")
    METRICS.inc("predict.calibrate.points", len(chosen))
    _LOG.info("calibrated %s@%g on %d point(s)", design, scale,
              len(chosen))
    return Calibration(design, scale, len(chosen), gains, offsets,
                       model.target_names)


def calibrated_predict(model: RidgeModel, calibration: Calibration | None,
                       design: str, scale: float,
                       canonical_config: dict) -> dict[str, float]:
    """One point through the model, then the optional correction."""
    predicted = model.predict_point(design, scale, canonical_config)
    if calibration is None:
        return predicted
    return calibration.apply(predicted)

"""Feature extraction: sweep records → a learnable (X, Y) dataset.

The SweepStore accumulates ``(design fingerprint, config) → (skew,
latency, wirelength, buffers)`` samples as a side effect of every sweep
and every served request.  This module turns those records into a
numeric dataset a cross-design regressor can learn from:

* **design features** — summary statistics of the *placement* the flow
  consumed: sink count, bounding box, density moments over a fixed
  occupancy grid, centroid offset from the clock source, pin-cap
  statistics.  CTS-Bench (PAPERS.md) shows these are the graph/placement
  summaries that carry cross-design signal; they are pure functions of
  ``(design, scale)`` and are memoised per process.
* **library features** — the named buffer library reduced to its
  capability envelope (size count, omega ranges, drive limits) so an
  unseen library name still lands in a meaningful region of the space.
* **config features** — every numeric knob of the canonical config plus
  a one-hot over the topology generators.

The feature *schema* (ordered names + encoding version) has a stable
content digest; it is part of every model artifact's identity, so a
model can never silently be applied to features it was not trained on.

Extraction is deterministic: rows are ordered by record key (the store's
own sorted order), design features fan out over a
:class:`repro.parallel.WorkPool` when ``jobs != 1`` but are merged by
fingerprint, so serial and parallel extraction produce identical
matrices (``tests/predict/test_features.py`` pins this byte-for-byte).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.designs import load_design
from repro.dme.topology import TOPOLOGY_GENERATORS
from repro.obs.logcfg import get_logger
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.tech.buffer_library import library_names, load_library

_LOG = get_logger("predict")

#: Bumped whenever a feature is added, removed, reordered or re-encoded;
#: part of the schema digest and therefore of every model artifact key.
FEATURE_SCHEMA_VERSION = 1

#: Occupancy-grid resolution for the density moments (G x G cells).
_DENSITY_GRID = 8

#: Targets a model predicts — the record's full quality section.
TARGET_FIELDS = (
    "skew_ps",
    "latency_ps",
    "wirelength_um",
    "num_buffers",
    "buffer_area_um2",
    "clock_cap_ff",
    "max_stage_load_ff",
)

#: Numeric FlowConfig knobs lifted straight into the feature vector.
_FLOW_NUMERIC_KEYS = (
    "eps",
    "repair_budget",
    "sa_iterations",
    "seed",
    "source_slew",
    "use_insertion_estimate",
    "use_sa",
)

_TOPOLOGY_NAMES = tuple(sorted(TOPOLOGY_GENERATORS))

_DESIGN_FEATURE_NAMES = (
    "design.sinks",
    "design.log_sinks",
    "design.bbox_w",
    "design.bbox_h",
    "design.bbox_area",
    "design.aspect",
    "design.density",
    "design.centroid_dx",
    "design.centroid_dy",
    "design.std_x",
    "design.std_y",
    "design.xy_corr",
    "design.grid_occupancy",
    "design.grid_cv",
    "design.grid_skew",
    "design.grid_max_frac",
    "design.source_dist_mean",
    "design.source_dist_max",
    "design.cap_mean",
    "design.cap_std",
)

_LIBRARY_FEATURE_NAMES = (
    "lib.sizes",
    "lib.min_omega_c",
    "lib.max_omega_c",
    "lib.min_omega_i",
    "lib.max_omega_i",
    "lib.min_input_cap",
    "lib.max_input_cap",
    "lib.max_drive_cap",
    "lib.min_area",
    "lib.max_area",
)

_CONFIG_FEATURE_NAMES = tuple(
    f"config.{k}" for k in _FLOW_NUMERIC_KEYS
) + ("config.skew_bound",) + tuple(
    f"config.topology.{name}" for name in _TOPOLOGY_NAMES
)


def feature_names() -> tuple[str, ...]:
    """The ordered feature vocabulary (the dataset's column names)."""
    return _DESIGN_FEATURE_NAMES + _LIBRARY_FEATURE_NAMES \
        + _CONFIG_FEATURE_NAMES


def feature_schema_digest() -> str:
    """Stable content hash of the feature schema.

    Hashes the encoding version, the ordered feature names and the
    target names — any change to what a feature vector *means* changes
    this digest, and with it every model artifact key.
    """
    payload = json.dumps({
        "feature_schema": FEATURE_SCHEMA_VERSION,
        "features": list(feature_names()),
        "targets": list(TARGET_FIELDS),
        "density_grid": _DENSITY_GRID,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Design features
# ----------------------------------------------------------------------
#: (name, scale) -> feature tuple.  A plain dict, not an lru_cache, so
#: parallel extraction can seed the parent's memo with worker results.
_DESIGN_CACHE: dict[tuple[str, float], tuple[float, ...]] = {}


def design_features(name: str, scale: float = 1.0) -> tuple[float, ...]:
    """Placement summary features of one catalog design (memoised).

    Pure in ``(name, scale)`` — the same determinism contract as
    :func:`repro.designs.design_fingerprint` — so the cache is safe for
    the process lifetime and a serve-layer hint after warmup costs a
    dict lookup, not a placement generation.
    """
    cached = _DESIGN_CACHE.get((name, scale))
    if cached is None:
        cached = _compute_design_features(name, scale)
        _DESIGN_CACHE[(name, scale)] = cached
    return cached


def design_features_memoised(name: str, scale: float = 1.0) -> bool:
    """True when :func:`design_features` of ``(name, scale)`` is a dict
    lookup, false when it would generate the design's placement."""
    return (name, float(scale)) in _DESIGN_CACHE


def _compute_design_features(name: str,
                             scale: float) -> tuple[float, ...]:
    design = load_design(name, scale=scale)
    xs = np.array([s.location.x for s in design.sinks], dtype=np.float64)
    ys = np.array([s.location.y for s in design.sinks], dtype=np.float64)
    caps = np.array([s.cap for s in design.sinks], dtype=np.float64)
    n = xs.size

    bbox_w = float(xs.max() - xs.min())
    bbox_h = float(ys.max() - ys.min())
    # degenerate (collinear / single-point) placements still need a
    # finite density denominator
    area = max(bbox_w * bbox_h, 1e-9)
    aspect = (min(bbox_w, bbox_h) / max(bbox_w, bbox_h)
              if max(bbox_w, bbox_h) > 0 else 1.0)

    std_x = float(xs.std())
    std_y = float(ys.std())
    if std_x > 0 and std_y > 0:
        xy_corr = float(np.corrcoef(xs, ys)[0, 1])
    else:
        xy_corr = 0.0

    # occupancy grid over the bbox: the density moments that separate
    # clustered-module placements from uniform ones
    gx = np.clip(((xs - xs.min()) / max(bbox_w, 1e-9)
                  * _DENSITY_GRID).astype(np.int64), 0, _DENSITY_GRID - 1)
    gy = np.clip(((ys - ys.min()) / max(bbox_h, 1e-9)
                  * _DENSITY_GRID).astype(np.int64), 0, _DENSITY_GRID - 1)
    counts = np.bincount(gx * _DENSITY_GRID + gy,
                         minlength=_DENSITY_GRID * _DENSITY_GRID)
    counts = counts.astype(np.float64)
    mean_c = counts.mean()
    std_c = counts.std()
    cv = float(std_c / mean_c) if mean_c > 0 else 0.0
    if std_c > 0:
        grid_skew = float(np.mean(((counts - mean_c) / std_c) ** 3))
    else:
        grid_skew = 0.0
    occupancy = float(np.count_nonzero(counts) / counts.size)
    max_frac = float(counts.max() / n) if n else 0.0

    sdx = np.abs(xs - design.source.x) + np.abs(ys - design.source.y)

    return (
        float(n),
        float(np.log1p(n)),
        bbox_w,
        bbox_h,
        area,
        aspect,
        float(n / area),
        float(xs.mean() - design.source.x),
        float(ys.mean() - design.source.y),
        std_x,
        std_y,
        xy_corr,
        occupancy,
        cv,
        grid_skew,
        max_frac,
        float(sdx.mean()),
        float(sdx.max()),
        float(caps.mean()),
        float(caps.std()),
    )


# ----------------------------------------------------------------------
# Library features
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def library_features(name: str) -> tuple[float, ...]:
    """Capability envelope of a named buffer library (memoised)."""
    lib = load_library(name)
    omega_c = [b.omega_c for b in lib]
    omega_i = [b.omega_i for b in lib]
    input_cap = [b.input_cap for b in lib]
    areas = [b.area for b in lib]
    return (
        float(len(lib)),
        min(omega_c), max(omega_c),
        min(omega_i), max(omega_i),
        min(input_cap), max(input_cap),
        max(b.max_cap for b in lib),
        min(areas), max(areas),
    )


# ----------------------------------------------------------------------
# Config features
# ----------------------------------------------------------------------
def config_features(canonical_config: dict) -> tuple[float, ...]:
    """Feature slice of one canonical config dict.

    ``canonical_config`` is the record's ``config`` section — the
    ``{"flow": {...}, "skew_bound": ..., "library": ...}`` shape
    :meth:`repro.sweep.spec.SweepPoint.canonical_config` produces, so
    swept records, served requests and CLI predictions all encode
    identically.
    """
    flow = canonical_config.get("flow") or {}
    values = [float(flow.get(k, 0.0)) for k in _FLOW_NUMERIC_KEYS]
    values.append(float(canonical_config.get("skew_bound", 0.0)))
    topology = flow.get("topology", "greedy_dist")
    values.extend(
        1.0 if topology == name else 0.0 for name in _TOPOLOGY_NAMES
    )
    return tuple(values)


def feature_vector(design: str, scale: float,
                   canonical_config: dict) -> np.ndarray:
    """The full feature row for one (design, scale, config) point."""
    library = canonical_config.get("library", "default")
    if library not in library_names():
        raise ValueError(
            f"unknown buffer library {library!r}; "
            f"choices: {library_names()}"
        )
    return np.array(
        design_features(design, float(scale))
        + library_features(library)
        + config_features(canonical_config),
        dtype=np.float64,
    )


# ----------------------------------------------------------------------
# Dataset extraction
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Dataset:
    """An extracted (features, targets) matrix pair with provenance."""

    features: np.ndarray           # (n, d) float64
    targets: np.ndarray            # (n, t) float64
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...]
    record_keys: tuple[str, ...]   # row i came from this store key
    designs: tuple[str, ...]       # row i's design name
    scales: tuple[float, ...]      # row i's design scale
    store_schema: int              # RESULT_SCHEMA_VERSION of the rows
    skipped: int                   # records dropped (failed/unscoreable)

    @property
    def rows(self) -> int:
        return int(self.features.shape[0])

    def feature_digest(self) -> str:
        return feature_schema_digest()

    def training_digest(self) -> str:
        """Content hash of exactly what the model will be fitted on.

        Hashes the sorted (key, quality) pairs — not the matrices — so
        the digest is reproducible from the records alone and invariant
        to floating-point formatting choices.
        """
        payload = json.dumps(
            [[k, [float(v) for v in row]]
             for k, row in zip(self.record_keys,
                               self.targets.tolist())],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _design_feature_task(item: tuple[str, float]) -> tuple[
        tuple[str, float], tuple[float, ...]]:
    """Worker-side design feature computation (picklable, pure)."""
    name, scale = item
    return item, design_features(name, scale)


def _scoreable(record: dict) -> bool:
    if record.get("status") != "ok":
        return False
    quality = record.get("quality") or {}
    config = record.get("config") or {}
    if not isinstance(config.get("flow"), dict):
        return False
    if config.get("library") not in library_names():
        return False
    try:
        return all(np.isfinite(float(quality[t])) for t in TARGET_FIELDS)
    except (KeyError, TypeError, ValueError):
        return False


def extract_dataset(records: list[dict], jobs: int = 1) -> Dataset:
    """Materialise the dataset of every scoreable record.

    Rows are ordered by record key; records that failed, predate the
    current store schema, or lack a finite value for any target are
    skipped (``predict.extract.skipped``).  ``jobs != 1`` fans the
    per-(design, scale) feature computation out over a
    :class:`~repro.parallel.WorkPool`; results merge by key, so the
    matrices are identical to a serial extraction.
    """
    from repro.sweep.store import RESULT_SCHEMA_VERSION

    with TRACER.span("predict.extract", records=len(records), jobs=jobs):
        rows: list[dict] = []
        skipped = 0
        seen_keys: set[str] = set()
        for record in records:
            key = record.get("key")
            if (not _scoreable(record)
                    or record.get("schema") != RESULT_SCHEMA_VERSION
                    or not isinstance(key, str) or key in seen_keys):
                skipped += 1
                continue
            seen_keys.add(key)
            rows.append(record)
        rows.sort(key=lambda r: r["key"])

        pairs = sorted({(r["design"], float(r["scale"])) for r in rows})
        _warm_design_features(pairs, jobs)
        METRICS.inc("predict.extract.designs", len(pairs))

        features = np.empty((len(rows), len(feature_names())),
                            dtype=np.float64)
        targets = np.empty((len(rows), len(TARGET_FIELDS)),
                           dtype=np.float64)
        for i, record in enumerate(rows):
            features[i] = feature_vector(
                record["design"], float(record["scale"]),
                record["config"])
            targets[i] = [float(record["quality"][t])
                          for t in TARGET_FIELDS]

        METRICS.inc("predict.extract.records", len(rows))
        METRICS.inc("predict.extract.skipped", skipped)
        _LOG.info("extracted %d rows (%d skipped) over %d designs",
                  len(rows), skipped, len(pairs))
        return Dataset(
            features=features,
            targets=targets,
            feature_names=feature_names(),
            target_names=TARGET_FIELDS,
            record_keys=tuple(r["key"] for r in rows),
            designs=tuple(r["design"] for r in rows),
            scales=tuple(float(r["scale"]) for r in rows),
            store_schema=RESULT_SCHEMA_VERSION,
            skipped=skipped,
        )


def _warm_design_features(pairs: list[tuple[str, float]],
                          jobs: int) -> None:
    """Populate the design-feature cache, optionally in parallel.

    Each pair's features are a pure function of the pair, so the merge
    is trivially deterministic; a worker failure degrades to computing
    that pair in-process (the WorkPool's standard per-task contract).
    """
    cold = [p for p in pairs if p not in _DESIGN_CACHE]
    if jobs == 1 or len(cold) <= 1:
        for name, scale in cold:
            design_features(name, scale)
        return
    from repro.parallel import WorkPool

    with WorkPool(jobs) as pool:
        outcomes = pool.map(
            _design_feature_task, cold,
            describe=lambda p: f"features {p[0]}@{p[1]:g}",
        )
    for item, values in outcomes:
        # seed the parent's memo so feature_vector() hits it; the
        # worker ran the same pure function, so the values are the
        # ones a serial extraction would have computed
        _DESIGN_CACHE[item] = values

"""Declarative sweep specifications over the flow's knobs.

A sweep spec names catalog designs (and scales) and a grid of knob
values — :class:`~repro.cts.framework.FlowConfig` fields plus the two
engine-level choices a point needs (``skew_bound``, ``library``) — and
expands to an ordered list of :class:`SweepPoint`\\ s: the Cartesian
product ``designs × scales × grid``, followed by any explicit
``points``.  The expansion order is deterministic (axes sorted by name,
values in listed order), so point indices are stable across runs and
machines.

JSON form (see docs/SWEEP.md for the full format)::

    {
      "name": "tradeoff",
      "designs": ["s38584"],
      "scales": [0.05],
      "grid": {"eps": [0.1, 0.5], "skew_bound": [60, 80]},
      "points": [{"eps": 1.0, "library": "lean"}],
      "objectives": ["skew_ps", "latency_ps"]
    }

Every grid key is validated against the knob space up front; a spec
naming an unknown knob, design, library or objective fails with a
``ValueError`` before anything runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.cts.constraints import TABLE5
from repro.cts.framework import FLOW_KNOBS, FlowConfig, finite_float
from repro.designs import design_names
from repro.tech.buffer_library import library_names

#: Objectives a sweep may optimise / a Pareto front may rank (all
#: minimised; values come from the record's ``quality`` section).
OBJECTIVE_FIELDS = (
    "skew_ps",
    "latency_ps",
    "wirelength_um",
    "num_buffers",
    "buffer_area_um2",
    "clock_cap_ff",
    "max_stage_load_ff",
)

#: The paper's headline trade-off axes (skew–latency–load).
DEFAULT_OBJECTIVES = (
    "skew_ps", "latency_ps", "wirelength_um", "num_buffers",
)

#: Engine-level knobs that live outside FlowConfig.
_ENGINE_KEYS = ("skew_bound", "library")


def sweepable_keys() -> tuple[str, ...]:
    """Every knob a grid axis or explicit point may set."""
    return FLOW_KNOBS + _ENGINE_KEYS


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One fully resolved configuration point of a sweep."""

    index: int                 # position in the spec's expansion order
    design: str                # catalog design name
    scale: float               # design scale factor
    overrides: tuple[tuple[str, object], ...]  # FlowConfig fields, sorted
    skew_bound: float          # per-net skew constraint, ps
    library: str               # named buffer library choice
    # canonical FlowConfig dict (defaults plus the overrides), built once
    # by resolve_point; derived from ``overrides``, so not compared
    flow: dict = field(compare=False, repr=False)

    def flow_config(self) -> FlowConfig:
        """The point's FlowConfig (defaults plus the overrides)."""
        return FlowConfig.from_dict(dict(self.overrides))

    def canonical_config(self) -> dict:
        """The full resolved knob dict the cache key hashes (a new dict
        on every call; no config is rebuilt).

        Defaults are materialised (not implied), so a change to a
        FlowConfig default changes the canonical form — and therefore
        the cache key — of every point that relied on it.
        """
        return {
            "flow": dict(self.flow),
            "skew_bound": float(self.skew_bound),
            "library": self.library,
        }

    def knobs(self) -> dict:
        """Only the knobs the spec set for this point (display form)."""
        out = dict(self.overrides)
        out["skew_bound"] = self.skew_bound
        out["library"] = self.library
        return out

    def label(self) -> str:
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(self.knobs().items()))
        return f"p{self.index}[{self.design}@{self.scale:g}: {knobs}]"


def resolve_point(
    index: int, design: str, scale: float, combo: dict
) -> SweepPoint:
    """Resolve one knob combo into a normalised :class:`SweepPoint`.

    The single normalisation path shared by :meth:`SweepSpec.expand`
    and the serve layer (:mod:`repro.serve.schema`), so a served
    request and a swept point with the same knobs land on the same
    canonical config — and therefore the same cache key.
    """
    skew_bound = finite_float("skew_bound",
                              combo.get("skew_bound", TABLE5.skew_bound))
    if skew_bound < 0:
        raise ValueError(f"'skew_bound' must be >= 0, got {skew_bound!r}")
    library = combo.get("library", "default")
    if library not in library_names():
        raise ValueError(
            f"unknown buffer library {library!r}; "
            f"choices: {library_names()}"
        )
    overrides = {
        k: v for k, v in combo.items() if k not in _ENGINE_KEYS
    }
    # validates field names and normalises value types eagerly
    flow = FlowConfig.from_dict(overrides).to_dict()
    resolved = tuple(sorted((k, flow[k]) for k in overrides))
    return SweepPoint(
        index=index,
        design=design,
        scale=float(scale),
        overrides=resolved,
        skew_bound=skew_bound,
        library=library,
        flow=flow,
    )


@dataclass(slots=True)
class SweepSpec:
    """A validated sweep specification."""

    designs: list[str]
    scales: list[float] = field(default_factory=lambda: [1.0])
    grid: dict[str, list] = field(default_factory=dict)
    points: list[dict] = field(default_factory=list)
    objectives: tuple[str, ...] = DEFAULT_OBJECTIVES
    name: str = "sweep"

    def __post_init__(self) -> None:
        if not self.designs:
            raise ValueError("sweep spec needs at least one design")
        known_designs = set(design_names())
        for d in self.designs:
            if d not in known_designs:
                raise ValueError(
                    f"unknown design {d!r}; catalog has "
                    f"{sorted(known_designs)}"
                )
        for s in self.scales:
            if not 0 < s <= 1:
                raise ValueError(f"scale must be in (0, 1], got {s}")
        allowed = set(sweepable_keys())
        for key, values in self.grid.items():
            if key not in allowed:
                raise ValueError(
                    f"unknown sweep knob {key!r}; "
                    f"sweepable: {sorted(allowed)}"
                )
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"grid axis {key!r} must be a non-empty list, "
                    f"got {values!r}"
                )
        for i, p in enumerate(self.points):
            bad = sorted(set(p) - allowed)
            if bad:
                raise ValueError(
                    f"explicit point #{i} sets unknown knob(s) {bad}"
                )
        for obj in self.objectives:
            if obj not in OBJECTIVE_FIELDS:
                raise ValueError(
                    f"unknown objective {obj!r}; "
                    f"choices: {list(OBJECTIVE_FIELDS)}"
                )
        libraries = set(library_names())
        for lib in self.grid.get("library", []):
            if lib not in libraries:
                raise ValueError(
                    f"unknown buffer library {lib!r}; "
                    f"choices: {sorted(libraries)}"
                )

    # ------------------------------------------------------------------
    def expand(self) -> list[SweepPoint]:
        """The spec's ordered point list (grid product, then extras)."""
        combos: list[dict] = []
        axes = sorted(self.grid)
        for values in itertools.product(*(self.grid[a] for a in axes)):
            combos.append(dict(zip(axes, values)))
        combos.extend(dict(p) for p in self.points)
        if not combos:
            combos = [{}]

        points: list[SweepPoint] = []
        index = 0
        for design in self.designs:
            for scale in self.scales:
                for combo in combos:
                    points.append(self._resolve(index, design, scale, combo))
                    index += 1
        return points

    def _resolve(
        self, index: int, design: str, scale: float, combo: dict
    ) -> SweepPoint:
        return resolve_point(index, design, scale, combo)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "designs": list(self.designs),
            "scales": [float(s) for s in self.scales],
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "points": [dict(p) for p in self.points],
            "objectives": list(self.objectives),
        }

    def digest(self) -> str:
        """Stable content hash of the spec (names the sweep's JSONL)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_from_dict(data: dict, name: str = "sweep") -> SweepSpec:
    """Build a validated spec from parsed JSON."""
    if not isinstance(data, dict):
        raise ValueError(f"sweep spec must be a JSON object, got "
                         f"{type(data).__name__}")
    known = {"name", "designs", "scales", "grid", "points", "objectives"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown sweep spec key(s) {unknown}; known: {sorted(known)}"
        )
    return SweepSpec(
        designs=list(data.get("designs", [])),
        scales=[float(s) for s in data.get("scales", [1.0])],
        grid=dict(data.get("grid", {})),
        points=list(data.get("points", [])),
        objectives=tuple(data.get("objectives", DEFAULT_OBJECTIVES)),
        name=str(data.get("name", name)),
    )


def load_spec(path: str | Path) -> SweepSpec:
    """Read and validate a sweep spec file (JSON)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read sweep spec ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return spec_from_dict(data, name=path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

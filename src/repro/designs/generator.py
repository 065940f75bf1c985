"""Synthetic placement generation from design statistics.

The die side follows from instance count and utilisation assuming a
28nm-like average cell area; flip-flops are placed as a mixture of
Gaussian "module" clusters and a uniform background, which reproduces the
clustered-sink geometry real placements hand to CTS.  Deterministic per
(spec, seed).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point
from repro.netlist.sink import Sink

#: Average placed-cell area, um^2 (28nm-like standard cells).
AVG_CELL_AREA = 1.2

#: Fraction of flip-flops placed in clustered "modules".
CLUSTER_FRACTION = 0.7

#: Average flip-flops per module cluster.
FFS_PER_MODULE = 150


@dataclass(frozen=True, slots=True)
class DesignSpec:
    """Published statistics of one benchmark design (paper Table 4)."""

    name: str
    num_insts: int
    num_ffs: int
    utilization: float
    seed: int = 0

    def die_side(self) -> float:
        """Square die side (um) implied by instances and utilisation."""
        area = self.num_insts * AVG_CELL_AREA / self.utilization
        return math.sqrt(area)


@dataclass(frozen=True, slots=True)
class Design:
    """A generated benchmark: sink placement plus the clock source."""

    spec: DesignSpec
    sinks: list[Sink]
    source: Point
    die_side: float

    def fingerprint(self) -> str:
        """Content hash of the placement the flow actually consumes.

        Hashes the exact sink names, coordinates and capacitances plus
        the source and die side (doubles packed bit-exactly, no string
        rounding), so any change to the generator — constants, rng
        stream, spec statistics — yields a different fingerprint even
        when the spec name stays the same.  This is the design half of
        the sweep store's cache key (docs/SWEEP.md).
        """
        h = hashlib.sha256()
        h.update(
            f"repro-design/1:{self.spec.name}:{len(self.sinks)}:"
            .encode("utf-8")
        )
        h.update(struct.pack(
            "<3d", self.source.x, self.source.y, self.die_side
        ))
        for s in self.sinks:
            h.update(s.name.encode("utf-8"))
            h.update(struct.pack(
                "<4d", s.location.x, s.location.y, s.cap, s.subtree_delay
            ))
        return h.hexdigest()


def generate_design(spec: DesignSpec, scale: float = 1.0) -> Design:
    """Generate the synthetic placement for ``spec``.

    ``scale`` < 1 shrinks the flip-flop count (and die proportionally) for
    fast runs; the full-size design is scale = 1.  Pin capacitances are
    drawn near 1 fF as in the technology's sink default.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n_ffs = max(2, int(round(spec.num_ffs * scale)))
    side = spec.die_side() * math.sqrt(scale)
    rng = np.random.default_rng(spec.seed + 0xC75)

    n_clustered = int(n_ffs * CLUSTER_FRACTION)
    n_uniform = n_ffs - n_clustered

    n_modules = max(1, round(n_clustered / FFS_PER_MODULE))
    module_centers = rng.uniform(0.12 * side, 0.88 * side, size=(n_modules, 2))
    module_sigma = side / max(4.0, 2.0 * math.sqrt(n_modules))
    # array draws fill row by row, x then y of each flip-flop: the
    # stream order (and floats) of one scalar draw per coordinate
    loc = module_centers[np.arange(n_clustered) % n_modules]
    clustered = np.clip(rng.normal(loc, module_sigma), 0.0, side)
    background = rng.uniform(0, side, size=(n_uniform, 2))
    caps = np.clip(rng.normal(1.0, 0.15, size=n_ffs), 0.5, 2.0)
    points = np.concatenate((clustered, background)).tolist()
    sinks = [
        Sink(f"{spec.name}_ff{i}", Point(x, y), cap=c)
        for i, ((x, y), c) in enumerate(zip(points, caps.tolist()))
    ]
    return Design(
        spec=spec,
        sinks=sinks,
        source=Point(side / 2.0, side / 2.0),
        die_side=side,
    )

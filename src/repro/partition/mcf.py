"""Balanced assignment: the capacitated transportation problem behind
K-means + min-cost flow (paper Section 3.2).

``balanced_assign`` assigns points to capacitated centers at minimum
total Manhattan distance, solved exactly by scipy's rectangular
assignment on capacity-duplicated center columns.  The flow never asks
for more than one spatial block (``repro.partition.kmeans._BLOCK``
points) at a time, so the expanded matrix stays small.

The solver is scipy's compiled ``_lsap`` extension, loaded from the
installed scipy's ``optimize`` directory without running that
package's ``__init__``: the package import pulls in some 530 modules
(about 0.5 s and 43 MB per process) that no run uses.  It is the very
function ``scipy.optimize.linear_sum_assignment`` names, so results are
scipy's; no other exact solver could stand in, because the
capacity-duplicated matrix is full of ties and another solver breaks
them differently (docs/ALGORITHMS.md, "Partition").
"""

from __future__ import annotations

import importlib.util
import os
from importlib.machinery import (
    EXTENSION_SUFFIXES,
    ExtensionFileLoader,
    FileFinder,
)

import numpy as np

from repro.geometry import Point
from repro.obs.metrics import METRICS

def _scipy_optimize_dir() -> str | None:
    """The installed scipy's ``optimize`` directory, found without
    importing scipy; ``None`` when scipy is not installed as files."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    return os.path.join(spec.submodule_search_locations[0], "optimize")


def _load_linear_sum_assignment(directory: str | None):
    """``linear_sum_assignment`` from the ``_lsap`` extension file in
    ``directory``, or the public ``scipy.optimize`` one when there is
    no such file.

    CPython registers the loaded module as ``scipy.optimize._lsap``, so
    a later ``import scipy.optimize`` in the process reuses it.
    """
    spec = None
    if directory is not None:
        finder = FileFinder(directory,
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec("scipy.optimize._lsap")
    if spec is None:
        from scipy.optimize import linear_sum_assignment as public
        return public
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment(_scipy_optimize_dir())

#: Most entries the capacity-expanded cost matrix may hold (n x
#: k*capacity float64s, 320 MB); a larger instance is refused rather
#: than solved approximately.
_MAX_ENTRIES = 40_000_000


def balanced_assign(
    points: list[Point],
    centers: list[Point],
    capacity: int,
) -> list[int]:
    """Assign each point to a center; no center exceeds ``capacity``.

    Minimises total Manhattan distance exactly: scipy's Jonker-Volgenant
    rectangular assignment on the n x k*capacity matrix with each center
    column repeated ``capacity`` times.  Raises ``ValueError`` when the
    capacities cannot hold every point, or when that matrix would exceed
    ``_MAX_ENTRIES``.
    """
    n, k = len(points), len(centers)
    if n == 0:
        return []
    if k * capacity < n:
        raise ValueError(
            f"capacity infeasible: {k} centers x {capacity} < {n} points"
        )
    if n * k * capacity > _MAX_ENTRIES:
        raise ValueError(
            f"{n} points x {k} centers x capacity {capacity} exceeds the "
            f"{_MAX_ENTRIES:,}-entry exact assignment budget; partition "
            f"in blocks (balanced_kmeans does)"
        )
    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    cx = np.array([c.x for c in centers])
    cy = np.array([c.y for c in centers])
    dists = (np.abs(px[:, None] - cx[None, :])
             + np.abs(py[:, None] - cy[None, :]))
    return _assign_lsa(dists, capacity)


def _assign_lsa(dists: np.ndarray, capacity: int) -> list[int]:
    """Exact capacitated assignment via rectangular LSA on duplicated
    center columns."""
    METRICS.inc("partition.assign_lsa")
    expanded = np.repeat(dists, capacity, axis=1)
    rows, cols = linear_sum_assignment(expanded)
    assignment = [-1] * dists.shape[0]
    total = 0.0
    for r, c in zip(rows, cols):
        assignment[int(r)] = int(c) // capacity
        total += float(expanded[r, c])
    METRICS.observe("partition.assign_cost_um", total)
    assert all(a >= 0 for a in assignment)
    return assignment

"""Tests for how ``repro.partition.mcf`` loads scipy's exact assignment
solver: from the compiled ``_lsap`` extension, without the
``scipy.optimize`` package import and its few hundred modules.

The solver must be the one ``scipy.optimize.linear_sum_assignment``
names, down to how it breaks ties: the capacity-duplicated Manhattan
matrices the flow solves are degenerate, and another exact solver
returns different optimal labels on them (docs/ALGORITHMS.md).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.optimize

import repro
from repro.designs import load_design
from repro.partition import mcf
from repro.partition.kmeans import _lloyd, _spatial_blocks

#: What a fresh interpreter reports after importing every entry point,
#: then ``scipy.optimize``.
_COLD_START = """
import json, sys
import repro.cli, repro.cts, repro.sweep, repro.serve, repro.predict
from repro.partition import mcf
cold = "scipy.optimize" in sys.modules
import scipy.optimize
print(json.dumps({
    "cold_scipy_optimize": cold,
    "reused": sys.modules["scipy.optimize._lsap"].linear_sum_assignment
              is mcf.linear_sum_assignment,
}))
"""


def test_entry_points_start_without_scipy_optimize():
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert not report["cold_scipy_optimize"], (
        f"importing the repro entry points imported scipy.optimize under "
        f"scipy {scipy.__version__}: repro.partition.mcf no longer finds "
        f"the _lsap extension file, so every process pays the package "
        f"import again")
    # the package import adopts the module mcf loaded
    assert report["reused"]


def _same(matrix: np.ndarray, solver=mcf.linear_sum_assignment) -> None:
    rows, cols = solver(matrix)
    want_rows, want_cols = scipy.optimize.linear_sum_assignment(matrix)
    assert rows.dtype == want_rows.dtype and cols.dtype == want_cols.dtype
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(cols, want_cols)


@pytest.mark.parametrize("shape", [(1, 1), (7, 7), (40, 40), (9, 30),
                                   (30, 9), (64, 200)])
def test_loaded_solver_matches_public_on_random_matrices(shape):
    rng = np.random.default_rng(sum(shape))
    _same(rng.uniform(0.0, 100.0, size=shape))
    # small integer costs: many exact ties
    _same(rng.integers(0, 4, size=shape).astype(float))


def test_loaded_solver_matches_public_on_empty_matrix():
    _same(np.empty((0, 0)))
    _same(np.empty((0, 5)))


def _block_matrix(coords: np.ndarray, capacity: int) -> np.ndarray:
    """The capacity-duplicated Manhattan matrix ``balanced_assign``
    solves for one spatial block, around its Lloyd centers."""
    k = -(-len(coords) // capacity)
    centers, _ = _lloyd(coords, k, seed=0)
    dists = (np.abs(coords[:, None, 0] - centers[None, :, 0])
             + np.abs(coords[:, None, 1] - centers[None, :, 1]))
    return np.repeat(dists, capacity, axis=1)


@pytest.fixture(scope="module")
def ethernet_block():
    """Ethernet's second level-0 spatial block: 608 clustered points."""
    design = load_design("ethernet")
    coords = np.array([[s.location.x, s.location.y] for s in design.sinks])
    return coords[_spatial_blocks(coords, np.arange(len(coords)), 32)[1]]


@pytest.mark.parametrize("capacity", (8, 32))
@pytest.mark.parametrize("snapped", (False, True),
                         ids=("placed", "lattice"))
def test_loaded_solver_matches_public_on_capacity_duplicated_blocks(
        ethernet_block, capacity, snapped):
    block = ethernet_block
    if snapped:  # distances tie across whole rows
        block = np.round(block / 20.0) * 20.0
    matrix = _block_matrix(block, capacity)
    _same(matrix)
    # degenerate: with the center columns reversed the same optimum
    # labels some points differently, so only scipy's own tie-breaking
    # reproduces the flow's clusters
    rows, cols = mcf.linear_sum_assignment(matrix)
    reversed_matrix = matrix[:, ::-1]
    rev_rows, rev_cols = mcf.linear_sum_assignment(reversed_matrix)
    assert matrix[rows, cols].sum() == \
        pytest.approx(reversed_matrix[rev_rows, rev_cols].sum())
    k = matrix.shape[1] // capacity
    assert not np.array_equal(cols // capacity,
                              (k - 1) - rev_cols // capacity)


def test_loader_falls_back_to_public_import(tmp_path):
    # a directory without the extension file
    assert mcf._load_linear_sum_assignment(str(tmp_path)) is \
        scipy.optimize.linear_sum_assignment
    assert mcf._load_linear_sum_assignment(None) is \
        scipy.optimize.linear_sum_assignment


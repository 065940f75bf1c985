"""Symmetric clock topologies: H-tree and generalized H-tree (GH-tree).

The H-tree reaches skew control through geometric symmetry: every tap sits
at the same tree depth along congruent wire paths, so path lengths to the
taps are identical and only the final sink stubs differ.  The generalized
H-tree (Han, Kahng, Li — TCAD'18) replaces the fixed fan-of-two with a
per-level branching factor, trading symmetry overhead against wirelength.

Both serve as Table 1 gallery rows and as the trunk generator of the
OpenROAD-like baseline.
"""

from repro.htree.htree import htree
from repro.htree.ghtree import ghtree
from repro.htree.fishbone import fishbone

__all__ = ["fishbone", "ghtree", "htree"]

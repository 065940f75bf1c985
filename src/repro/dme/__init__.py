"""Deferred-merge embedding (DME) skew trees: ZST and bounded-skew BST.

The classic two-phase method (Chao et al. ZST; Cong et al. BST):

1. *bottom-up*: following a binary merge topology, compute for every
   internal node a merging region (where the node may be placed) together
   with committed wire lengths to its children that keep the sink-delay
   interval within the skew bound;
2. *top-down*: embed each node at the point of its region nearest to its
   parent, converting any committed-versus-actual length difference into
   wire snaking (detour).

Geometry runs in 45-degree rotated space where merging regions are
axis-aligned rectangles (see :mod:`repro.geometry.segment` and DESIGN.md).
Delay is pluggable: the linear (wirelength) model of the paper's SLLT
analysis, or Elmore with capacitance tracking for the ps-domain results.

Entry points: :func:`zst_dme` and :func:`bst_dme` (a generated or a
given fixed topology); :func:`repair_skew` re-balances a routed tree in
place on its own embedding (CBS Step 5).
"""

from repro.dme.models import DelayModel, ElmoreDelay, LinearDelay
from repro.dme.merging import MergeSpec, merge_specs
from repro.dme.topology import (
    bi_cluster,
    bi_partition,
    greedy_dist,
    greedy_merge,
    TOPOLOGY_GENERATORS,
)
from repro.dme.dme import bst_dme, zst_dme
from repro.dme.repair import repair_skew
from repro.dme.ust import ust_dme, ust_feasible_shift

__all__ = [
    "DelayModel",
    "ElmoreDelay",
    "LinearDelay",
    "MergeSpec",
    "TOPOLOGY_GENERATORS",
    "bi_cluster",
    "bi_partition",
    "bst_dme",
    "greedy_dist",
    "greedy_merge",
    "merge_specs",
    "repair_skew",
    "ust_dme",
    "ust_feasible_shift",
    "zst_dme",
]

"""Metric transformations between the linear and Elmore delay domains.

The paper's SLLT theory (Eqs. (1)-(3)) lives on *path lengths*, while its
constraints and evaluation live in *picoseconds*.  The conclusion lists
"explor[ing] feasible metric transformations" as future work; this module
provides the practical version:

* :func:`fit_ps_per_um` — calibrate the local exchange rate between the
  two domains on a concrete tree by regressing Elmore sink delays against
  path lengths (the relationship is exactly linear per source-to-sink
  path only for uniform loading, so the fit also reports its residual);
* :func:`skew_bound_to_um` / :func:`skew_bound_to_ps` — convert a bound
  so that linear-model algorithms (ZST/BST/CBS with
  :class:`~repro.dme.models.LinearDelay`) can honour a ps specification,
  with a safety factor covering the fit residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.tree import RoutedTree
from repro.tech.technology import Technology
from repro.timing.elmore import ElmoreAnalyzer


@dataclass(frozen=True, slots=True)
class DomainFit:
    """Calibration between path length (um) and Elmore delay (ps)."""

    ps_per_um: float       # fitted slope
    intercept_ps: float    # fitted offset (driver/source overhead)
    residual_ps: float     # max |fit - actual| over the calibration sinks

    def um_for_ps(self, ps: float, safety: float = 1.0) -> float:
        """Path-length budget equivalent to a ps budget (slope only —
        offsets cancel in skew differences)."""
        if self.ps_per_um <= 0:
            raise ValueError("non-positive fitted slope; cannot convert")
        return ps / (self.ps_per_um * safety)

    def ps_for_um(self, um: float, safety: float = 1.0) -> float:
        return um * self.ps_per_um * safety


def fit_ps_per_um(
    tree: RoutedTree, tech: Technology, source_slew: float = 10.0
) -> DomainFit:
    """Least-squares fit of Elmore sink delay against sink path length."""
    report = ElmoreAnalyzer(tech).analyze(tree, source_slew)
    pls = tree.sink_path_lengths()
    if len(pls) < 2:
        raise ValueError("need at least two sinks to fit a slope")
    x = np.array([pls[nid] for nid in pls])
    y = np.array([report.sink_arrival[nid] for nid in pls])
    if float(np.ptp(x)) < 1e-9:
        # all path lengths equal (a perfect ZST): slope is unidentifiable,
        # fall back to the analytic derivative at the mean operating point
        slope = tech.unit_res * (
            tech.unit_cap * float(x.mean()) + report.total_cap / max(len(x), 1)
        ) * 1e-3
        return DomainFit(ps_per_um=max(slope, 1e-12),
                         intercept_ps=float(y.mean()),
                         residual_ps=float(np.ptp(y)))
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.abs(slope * x + intercept - y).max())
    return DomainFit(
        ps_per_um=float(slope),
        intercept_ps=float(intercept),
        residual_ps=residual,
    )


def skew_bound_to_um(
    bound_ps: float, fit: DomainFit, safety: float = 1.25
) -> float:
    """ps skew bound -> conservative um path-length bound.

    The safety factor shrinks the budget to absorb the fit residual (the
    Elmore/PL relationship is only approximately linear across sinks with
    different downstream loading).
    """
    if bound_ps < 0:
        raise ValueError(f"negative bound {bound_ps}")
    return fit.um_for_ps(bound_ps, safety=safety)


def skew_bound_to_ps(
    bound_um: float, fit: DomainFit, safety: float = 1.25
) -> float:
    """um path-length bound -> ps bound it guarantees (conservative)."""
    if bound_um < 0:
        raise ValueError(f"negative bound {bound_um}")
    return fit.ps_for_um(bound_um, safety=safety)

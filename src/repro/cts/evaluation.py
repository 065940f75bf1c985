"""Full-solution scoring: the columns of paper Tables 6 and 7.

Besides the paper's quality metrics, :func:`audit_solution` runs the
flow-guard constraint checker over an assembled tree — the standalone
DRC behind ``repro check`` and the post-assembly sanity pass."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cts.constraints import Constraints, TABLE5
from repro.cts.framework import CTSResult
from repro.flowguard.checker import Violation, check_tree
from repro.netlist.tree import RoutedTree
from repro.tech.technology import Technology
from repro.timing.elmore import ElmoreAnalyzer


@dataclass(frozen=True, slots=True)
class SolutionReport:
    """One row of Table 6/7 for one tool on one design."""

    latency_ps: float
    skew_ps: float
    num_buffers: int
    buffer_area_um2: float
    clock_cap_ff: float
    clock_wl_um: float
    runtime_s: float

    def row(self) -> list[float]:
        """Values in the paper's column order."""
        return [
            self.latency_ps, self.skew_ps, float(self.num_buffers),
            self.buffer_area_um2, self.clock_cap_ff, self.clock_wl_um,
            self.runtime_s,
        ]


def evaluate_solution(
    tree: RoutedTree,
    tech: Technology,
    runtime_s: float = 0.0,
    source_slew: float = 10.0,
) -> SolutionReport:
    """Score a routed-and-buffered clock tree, driven at ``source_slew``."""
    report = ElmoreAnalyzer(tech).analyze(tree, source_slew)
    buffers = [tree.node(nid).buffer for nid in tree.buffer_node_ids()]
    return SolutionReport(
        latency_ps=report.latency,
        skew_ps=report.skew,
        num_buffers=len(buffers),
        buffer_area_um2=sum(b.area for b in buffers),
        clock_cap_ff=report.total_cap,
        clock_wl_um=report.wirelength,
        runtime_s=runtime_s,
    )


def evaluate_result(result: CTSResult, tech: Technology) -> SolutionReport:
    """Score a run's tree at the source slew it was built for, carrying
    the run's measured runtime."""
    return evaluate_solution(
        result.tree, tech, runtime_s=result.runtime_s,
        source_slew=result.source_slew,
    )


def audit_solution(
    tree: RoutedTree,
    tech: Technology,
    constraints: Constraints = TABLE5,
    source_slew: float = 10.0,
) -> list[Violation]:
    """Constraint-check a finished tree (skew / cap / fanout / span).

    Returns the violations found — empty means the tree is DRC-clean
    under ``constraints``.  This is what ``repro check`` runs."""
    report = ElmoreAnalyzer(tech).analyze(tree, source_slew)
    return check_tree(tree, constraints, tech, report)

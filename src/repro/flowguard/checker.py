"""DRC-style constraint checking and bounded repair for routed trees.

:func:`check_tree` validates a routed (and usually buffered) tree against
a :class:`~repro.cts.constraints.Constraints` set — skew, per-stage load
capacitance, per-stage fanout, and buffer-free edge span — and returns
typed :class:`Violation` records instead of raising.  It reads skew and
stage loads from a :class:`~repro.timing.elmore.TimingReport` the caller
made, so it knows no slew.  A small relative ``tolerance`` (2% by
default) keeps borderline-but-intentional results from flagging: routers
meet the bound by construction, buffer insertion perturbs it slightly.

:func:`check_and_repair` closes the loop the paper's related work treats
as table stakes (fix-and-recheck): skew violations invoke the pinned
BST-DME repair of :func:`repro.dme.repair.repair_skew` under a wirelength
budget; cap and span violations re-buffer via
:func:`~repro.buffering.insertion.split_long_edges` with a halved span
per attempt (and re-size the root driver).  Repair attempts are bounded
by ``budget`` and stop early when no progress is made; whatever survives
is recorded as residual ``violation`` events and returned, together with
the analysis of the tree as returned: the flow's one timing view of the
net.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.buffering.insertion import place_driver, split_long_edges
from repro.dme.models import ElmoreDelay
from repro.dme.repair import repair_skew
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.netlist.tree import RoutedTree
from repro.tech.buffer_library import BufferLibrary
from repro.tech.technology import Technology
from repro.timing.elmore import ElmoreAnalyzer, TimingReport

#: Default relative slack before a bound counts as violated.
CHECK_TOLERANCE = 0.02

#: Fraction of the current wirelength one skew-repair pass may add.
REPAIR_WL_BUDGET = 0.5


@dataclass(frozen=True, slots=True)
class Violation:
    """One constraint breach found by the checker."""

    kind: str     # "skew" | "cap" | "fanout" | "span"
    where: str    # location description (net/stage/edge)
    value: float  # measured value
    limit: float  # the constraint it breaches

    def describe(self) -> str:
        return (f"{self.kind} {self.value:.2f} > {self.limit:.2f} "
                f"at {self.where}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.where)


def stage_fanouts(tree: RoutedTree) -> dict[int, int]:
    """Sinks + buffer inputs each stage root (tree root or buffer) drives
    directly, i.e. without crossing another buffer."""
    fanout: dict[int, int] = {tree.root: 0}
    stage_of: dict[int, int] = {}
    for nid in tree.preorder():
        node = tree.node(nid)
        if node.parent is None:
            stage_of[nid] = nid
            fanout.setdefault(nid, 0)
            continue
        parent_stage = stage_of[node.parent]
        if node.is_buffer:
            fanout[parent_stage] = fanout.get(parent_stage, 0) + 1
            stage_of[nid] = nid
            fanout.setdefault(nid, 0)
        else:
            if node.is_sink:
                fanout[parent_stage] = fanout.get(parent_stage, 0) + 1
            stage_of[nid] = parent_stage
    return fanout


def check_tree(
    tree: RoutedTree,
    constraints,
    tech: Technology,
    report: TimingReport,
    *,
    tolerance: float = CHECK_TOLERANCE,
) -> list[Violation]:
    """All constraint violations of ``tree``, reading skew and stage
    loads from ``report``, an analysis of this tree; worst-kind first
    order is not guaranteed — callers sort/filter as needed."""
    if tolerance < 0:
        raise ValueError(f"negative tolerance {tolerance}")
    slack = 1.0 + tolerance
    eps = 1e-9
    violations: list[Violation] = []

    if report.skew > constraints.skew_bound * slack + eps:
        violations.append(Violation(
            "skew", "tree", report.skew, constraints.skew_bound,
        ))
    for nid, load in report.stage_load.items():
        if load > constraints.max_cap * slack + eps:
            violations.append(Violation(
                "cap", f"stage@{nid}", load, constraints.max_cap,
            ))
    for nid, fan in stage_fanouts(tree).items():
        if fan > constraints.max_fanout:
            violations.append(Violation(
                "fanout", f"stage@{nid}", float(fan),
                float(constraints.max_fanout),
            ))
    span = constraints.effective_span(tech)
    for nid in tree.node_ids():
        node = tree.node(nid)
        if node.parent is None or node.detour > eps:
            continue  # detour edges have no canonical buffering geometry
        length = tree.edge_length(nid)
        if length > span * slack + eps:
            violations.append(Violation("span", f"edge@{nid}", length, span))
    return violations


def check_and_repair(
    tree: RoutedTree,
    constraints,
    tech: Technology,
    lib: BufferLibrary,
    *,
    model=None,
    source_slew: float = 10.0,
    budget: int = 2,
    diagnostics: FlowDiagnostics | None = None,
    level: int = -1,
    net: str = "",
) -> tuple[list[Violation], TimingReport]:
    """Check ``tree`` and repair in place with at most ``budget`` passes.

    Returns the residual violations (empty when the tree is clean) and
    the analysis, at ``source_slew``, of the tree as returned: one per
    check, so a clean net is analysed once.  Every repair action and
    residual violation is recorded in ``diagnostics``; an analysis that
    raises propagates.
    """
    if budget < 0:
        raise ValueError(f"negative repair budget {budget}")
    diag = diagnostics if diagnostics is not None else FlowDiagnostics()
    analyzer = ElmoreAnalyzer(tech)

    def check() -> tuple[list[Violation], TimingReport]:
        report = analyzer.analyze(tree, source_slew)
        return check_tree(tree, constraints, tech, report), report

    violations, report = check()
    attempt = 0
    while violations and attempt < budget:
        attempt += 1
        kinds = {v.kind for v in violations}
        actions: list[str] = []
        raised = False
        if "skew" in kinds:
            try:
                added = repair_skew(
                    tree, constraints.skew_bound,
                    model=model or ElmoreDelay(tech),
                    max_extra_wl=REPAIR_WL_BUDGET * tree.wirelength(),
                )
                actions.append(f"repair_skew(+{added:.1f}um)")
            except Exception as exc:  # noqa: BLE001 — repair must not kill
                raised = True
                diag.record("check", "fault", level=level, net=net,
                            detail=f"repair_skew failed: {exc}")
        if "cap" in kinds or "span" in kinds:
            try:
                shrink = 2 ** attempt
                nbuf = split_long_edges(
                    tree, lib, tech,
                    constraints.effective_span(tech) / shrink, source_slew,
                )
                place_driver(tree, lib, tech)
                actions.append(f"rebuffer(span/{shrink}, +{nbuf}buf)")
            except Exception as exc:  # noqa: BLE001
                raised = True
                diag.record("check", "fault", level=level, net=net,
                            detail=f"re-buffering failed: {exc}")
        if not actions:
            if raised:
                # a repair that raised may have left the tree part-edited
                violations, report = check()
            break  # nothing repairable in place (e.g. pure fanout breach)

        remaining, report = check()
        diag.record(
            "check", "repair", level=level, net=net,
            detail=(f"attempt {attempt}: {', '.join(actions)}; "
                    f"{len(violations)} -> {len(remaining)} violations"),
        )
        if {v.key for v in remaining} == {v.key for v in violations}:
            violations = remaining
            break  # no progress — stop burning budget
        violations = remaining

    for v in violations:
        diag.record("check", "violation", level=level, net=net,
                    detail=v.describe())
    return violations, report

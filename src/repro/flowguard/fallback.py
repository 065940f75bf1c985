"""Fallback chains: routing with parameter backoff, forced partitioning.

The guarded flow never lets one failing net (or one non-converging
partition) abort a full-chip run.  Instead:

* :class:`RouterFallbackChain` routes each net through a degradation
  ladder — the configured router at nominal parameters, the same router
  with relaxed ``eps``/skew bound (the backoff schedule), then
  successively weaker topologies (CBS → BST-DME → SALT+repair → star) —
  recording every retry and downgrade in a
  :class:`~repro.flowguard.diagnostics.FlowDiagnostics`;
* :func:`forced_median_split` is the partitioning fallback: a recursive
  median split along the wider-spread axis that is guaranteed to reduce
  the sink count, replacing the old
  ``RuntimeError("hierarchical clustering failed ...")``;
* :func:`star_topology` is the routing fallback of last resort: source
  directly wired to every sink.  It cannot fail and preserves the sink
  set exactly, so the chain always returns *a* tree.

A candidate tree is accepted only if it passes ``validate()`` and carries
the net's full sink count — a router that returns a corrupt or lossy tree
is treated exactly like one that raised.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.cbs import DEFAULT_EPS, cbs
from repro.dme.dme import bst_dme
from repro.dme.repair import repair_skew
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.geometry import manhattan_center
from repro.netlist.net import ClockNet
from repro.netlist.sink import Sink
from repro.netlist.tree import RoutedTree
from repro.netlist.tree_ops import binarize, sinks_to_leaves
from repro.partition.clustering import Cluster
from repro.reuse import StageReuse
from repro.salt.salt import salt

#: Parameter backoff steps: (skew-bound multiplier, eps multiplier).
BACKOFF_SCHEDULE: tuple[tuple[float, float], ...] = ((1.5, 2.0), (2.0, 4.0))

#: SALT relaxation used by the next-to-last fallback rung.
FALLBACK_SALT_EPS = 0.1


def star_topology(net: ClockNet) -> RoutedTree:
    """Source wired straight to every sink — the unfailable fallback."""
    tree = RoutedTree(net.source)
    for sink in net.sinks:
        tree.add_child(tree.root, sink.location, sink=sink)
    return tree


class RouterFallbackChain:
    """Per-net routing with parameter backoff and topology degradation.

    ``reuse``, when given, reaches every CBS rung (see
    :func:`~repro.core.cbs.cbs`).
    """

    def __init__(
        self,
        skew_bound: float,
        *,
        eps: float = DEFAULT_EPS,
        topology: str = "greedy_dist",
        primary: Callable | None = None,
        diagnostics: FlowDiagnostics | None = None,
        backoff: Sequence[tuple[float, float]] = BACKOFF_SCHEDULE,
        reuse: StageReuse | None = None,
    ):
        if skew_bound < 0:
            raise ValueError(f"negative skew bound {skew_bound}")
        self._bound = skew_bound
        self._eps = eps
        self._topology = topology
        self._primary = primary
        self._backoff = tuple(backoff)
        self._reuse = reuse
        self.diagnostics = diagnostics if diagnostics is not None \
            else FlowDiagnostics()

    # ------------------------------------------------------------------
    def route(self, net: ClockNet, model, level: int = -1) -> RoutedTree:
        """Route ``net``, degrading as needed; never raises for non-empty
        nets (the star rung cannot fail)."""
        attempts = self._attempts(net, model)
        last_error: Exception | None = None
        for i, (name, kind, build) in enumerate(attempts):
            try:
                tree = build()
                self._accept(tree, net)
                return tree
            except Exception as exc:  # noqa: BLE001 — the guard's job
                last_error = exc
                if i + 1 < len(attempts):
                    next_name, next_kind = attempts[i + 1][0], attempts[i + 1][1]
                    self.diagnostics.record(
                        "route", next_kind or "retry",
                        level=level, net=net.name,
                        detail=(f"{name} failed ({exc.__class__.__name__}: "
                                f"{exc}); falling back to {next_name}"),
                    )
        # unreachable in practice: star_topology cannot raise
        raise RuntimeError(
            f"every routing fallback failed for net {net.name!r}"
        ) from last_error

    # ------------------------------------------------------------------
    def _attempts(
        self, net: ClockNet, model
    ) -> list[tuple[str, str | None, Callable[[], RoutedTree]]]:
        """The degradation ladder as (name, event kind, thunk) triples.

        The event kind describes what *entering* this rung means: ``None``
        for the nominal attempt, ``"retry"`` for parameter backoff on the
        same algorithm, ``"downgrade"`` for a weaker topology.
        """
        bound, eps = self._bound, self._eps
        rungs: list[tuple[str, str | None, Callable[[], RoutedTree]]] = []

        def _cbs(b: float, e: float) -> Callable[[], RoutedTree]:
            return lambda: cbs(net, b, eps=e, model=model,
                               topology=self._topology, reuse=self._reuse)

        if self._primary is not None:
            primary = self._primary
            rungs.append(("primary", None,
                          lambda: primary(net, bound, model)))
            for skew_mult, _ in self._backoff:
                rungs.append((
                    f"primary(skew x{skew_mult})", "retry",
                    lambda m=skew_mult: primary(net, bound * m, model),
                ))
            rungs.append(("cbs", "downgrade", _cbs(bound, eps)))
        else:
            rungs.append(("cbs", None, _cbs(bound, eps)))
            for skew_mult, eps_mult in self._backoff:
                rungs.append((
                    f"cbs(skew x{skew_mult}, eps x{eps_mult})", "retry",
                    _cbs(bound * skew_mult, eps * eps_mult),
                ))
        rungs.append((
            "bst_dme", "downgrade",
            lambda: bst_dme(net, bound, model=model),
        ))
        rungs.append((
            "salt+repair", "downgrade",
            lambda: self._salt_repaired(net, model),
        ))
        rungs.append(("star", "downgrade", lambda: star_topology(net)))
        return rungs

    def _salt_repaired(self, net: ClockNet, model) -> RoutedTree:
        tree = salt(net, eps=FALLBACK_SALT_EPS)
        sinks_to_leaves(tree)
        binarize(tree)
        repair_skew(tree, self._bound, model=model)
        return tree

    @staticmethod
    def _accept(tree: RoutedTree, net: ClockNet) -> None:
        """Reject structurally broken or sink-lossy candidate trees."""
        tree.validate()
        got = sorted(s.name for s in tree.sinks())
        want = sorted(s.name for s in net.sinks)
        if got != want:
            raise ValueError(
                f"router returned {len(got)} sinks for net {net.name!r}, "
                f"expected {len(want)}"
            )


# ----------------------------------------------------------------------
# Partition fallback
# ----------------------------------------------------------------------
def forced_median_split(
    sinks: Sequence[Sink], max_size: int
) -> list[Cluster]:
    """Split ``sinks`` into clusters of at most ``max_size`` by recursive
    median bisection along the wider-spread axis.

    Deterministic, geometry-driven and guaranteed to produce strictly
    fewer clusters than sinks whenever ``max_size >= 2`` and there are at
    least two sinks — the property the hierarchical level loop needs to
    terminate when clustering itself misbehaves.
    """
    if max_size < 2:
        raise ValueError(f"max_size must be >= 2, got {max_size}")
    if not sinks:
        return []

    groups: list[list[Sink]] = []
    stack: list[list[Sink]] = [list(sinks)]
    while stack:
        group = stack.pop()
        if len(group) <= max_size:
            groups.append(group)
            continue
        xs = [s.location.x for s in group]
        ys = [s.location.y for s in group]
        if max(xs) - min(xs) >= max(ys) - min(ys):
            group.sort(key=lambda s: (s.location.x, s.location.y, s.name))
        else:
            group.sort(key=lambda s: (s.location.y, s.location.x, s.name))
        mid = len(group) // 2
        stack.append(group[:mid])
        stack.append(group[mid:])

    return [
        Cluster(group, manhattan_center([s.location for s in group]))
        for group in groups
    ]

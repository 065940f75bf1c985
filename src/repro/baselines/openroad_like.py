"""OpenROAD (TritonCTS)-style baseline.

Architecture, per TritonCTS's documentation and code structure:

1. sinks are grouped by balanced clustering under the fanout bound;
2. an H-tree trunk is built over the cluster taps;
3. clock buffers are inserted at every trunk branch point, sized with a
   generous safety factor (TritonCTS characterises and picks strong
   buffers — the paper's Table 7 remarks OpenROAD "minimizes [cap] by
   employing a large number of larger buffers");
4. leaf clusters are routed as plain Steiner nets without intra-cluster
   skew balancing.

The resulting quality signature matches the paper's OpenROAD columns:
longest latency (symmetric trunk overshoots distances), largest skew
(leaf nets unbalanced; the constraint can be violated), most buffers and
by far the most buffer area.
"""

from __future__ import annotations

from repro.buffering.insertion import place_driver, split_long_edges, _subtree_cap
from repro.cts.constraints import Constraints, TABLE5
from repro.cts.framework import CTSResult, LevelStats, graft_subtrees
from repro.geometry import Point, manhattan_center
from repro.htree.htree import htree
from repro.netlist.net import ClockNet
from repro.netlist.sink import Sink
from repro.netlist.tree import RoutedTree
from repro.obs.clock import now
from repro.obs.tracer import TRACER
from repro.partition.kmeans import balanced_kmeans
from repro.rsmt.flute_like import rsmt
from repro.tech.buffer_library import BufferLibrary, default_library
from repro.tech.technology import Technology
from repro.timing.elmore import downstream_stage_cap

#: Drive safety factor: pick the buffer as if the load were this much
#: bigger — the "larger buffers" signature.
DRIVE_SAFETY = 2.5


def openroad_like_cts(
    sinks: list[Sink],
    source: Point,
    tech: Technology | None = None,
    library: BufferLibrary | None = None,
    constraints: Constraints = TABLE5,
    seed: int = 0,
) -> CTSResult:
    """Run the TritonCTS-style baseline; returns the same result type as
    :class:`repro.cts.framework.HierarchicalCTS`."""
    if not sinks:
        raise ValueError("baseline CTS needs at least one sink")
    tech = tech or Technology()
    library = library or default_library()
    start = now()

    with TRACER.span("flow", engine="openroad_like", sinks=len(sinks)):
        # 1. leaf clustering under the fanout bound
        with TRACER.span("partition", sinks=len(sinks)):
            points = [s.location for s in sinks]
            centers, labels = balanced_kmeans(
                points, max_size=constraints.max_fanout, seed=seed
            )
            groups: dict[int, list[Sink]] = {}
            for sink, label in zip(sinks, labels):
                groups.setdefault(label, []).append(sink)

        # 4. leaf nets: plain RSMT, driver buffer at the tap, no balancing
        subtrees: dict[str, RoutedTree] = {}
        taps: list[Sink] = []
        for j, members in sorted(groups.items()):
            if not members:
                continue
            tap = manhattan_center([s.location for s in members])
            name = f"or_c{j}"
            with TRACER.span("cluster", net=name, sinks=len(members)):
                net = ClockNet(name, tap, members)
                with TRACER.span("route", net=name):
                    tree = rsmt(net)
                with TRACER.span("buffer", net=name):
                    split_long_edges(tree, library, tech,
                                     constraints.effective_span(tech))
                    driver = place_driver(tree, library, tech)
            subtrees[name] = tree
            taps.append(Sink(name, tap, cap=driver.input_cap))

        # 2. H-tree trunk over the taps
        with TRACER.span("cluster", net="or_trunk", sinks=len(taps)):
            trunk_net = ClockNet("or_trunk", source, taps)
            with TRACER.span("route", net="or_trunk"):
                trunk = htree(trunk_net, max_leaf_sinks=1)
            with TRACER.span("buffer", net="or_trunk"):
                split_long_edges(trunk, library, tech,
                                 constraints.effective_span(tech))

                # 3. buffer trunk branch points whose accumulated load
                #    warrants a stage, children before parents so each stage
                #    load is already cut at the freshly inserted buffers
                #    below; the generous safety factor yields the "fewer
                #    levels, larger buffers" TritonCTS signature
                threshold = 0.5 * constraints.max_cap
                for nid in trunk.postorder():
                    node = trunk.node(nid)
                    if node.is_sink or node.is_buffer:
                        continue
                    load = _subtree_cap(trunk, nid, tech)
                    if load > threshold or nid == trunk.root:
                        node.buffer = library.smallest_driving(
                            load * DRIVE_SAFETY
                        )

        with TRACER.span("assemble"):
            full = graft_subtrees(trunk, subtrees)
            full.validate()
    stats = LevelStats(
        level=0,
        num_sinks=len(sinks),
        num_clusters=len(taps),
        sa_cost_before=0.0,
        sa_cost_after=0.0,
        max_net_cap=max(
            _subtree_cap(subtrees[t.name], subtrees[t.name].root, tech)
            for t in taps
        ),
        max_routed_cap=max(
            downstream_stage_cap(tree, tech)[tree.root]
            for tree in subtrees.values()
        ),
        max_net_fanout=max(len(g) for g in groups.values()),
        buffers_added=len(full.buffer_node_ids()),
    )
    return CTSResult(
        tree=full,
        levels=[stats],
        runtime_s=now() - start,
    )

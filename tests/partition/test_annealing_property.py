"""Property test: the list-based annealer is *identical* to the
``Cluster``-based reference (``sa_oracle``) — same clusters with their
sinks in the same order, same centers, same cost trace, same move
counters, bit for bit.

The claims it rests on (docs/ALGORITHMS.md): a move is priced from the
per-net lists with ``net_cost``'s float expressions in the same order
(builtin ``sum`` over the caps in list order, never a running total,
whose rounding differs, and differs again between Python 3.11's naive
and 3.12's compensated float ``sum``); a net's cached boundary list is
dropped whenever it gains or loses a sink; the nearest-net target takes
the lowest index on ties; and the hull kernel matches its own oracle.
The inputs are tie-heavy: lattices, duplicate locations, signed zeros,
points on and around the hull's tolerance band, caps drawn from a few
values, empty and single-sink nets, and one-net partitions.
"""

from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.cts import FlowConfig, HierarchicalCTS
from repro.cts.constraints import Constraints
from repro.flowguard.diagnostics import FlowDiagnostics
from repro.geometry import Point
from repro.netlist import Sink
from repro.obs.metrics import METRICS
from repro.partition import Cluster, SAConfig, anneal_partition
from repro.partition.annealing import total_cost
from tests.geometry.test_hull_property import FAMILIES
from tests.partition import sa_oracle

#: A few distinct pin caps (fF) whose sums round differently depending
#: on the order and grouping of the additions.
CAPS = (0.1, 0.7, 1.3, 2.9)

_COUNTERS = ("partition.sa_moves_proposed", "partition.sa_moves_accepted")


@st.composite
def partitions(draw):
    """``[((cx, cy), [((x, y), cap), ...]), ...]``: one family of
    coordinates per partition, up to 6 nets of up to 12 sinks."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    nets = []
    for _ in range(draw(st.integers(1, 6))):
        sinks = draw(st.lists(st.tuples(family, st.sampled_from(CAPS)),
                              max_size=12))
        if sinks and draw(st.booleans()):
            center = sinks[0][0]
        else:
            center = draw(family)
        nets.append((center, sinks))
    return nets


configs = st.builds(
    SAConfig,
    iterations=st.integers(1, 60),
    initial_temp=st.sampled_from((0.5, 20.0)),
    seed=st.integers(0, 10_000),
    max_cap=st.sampled_from((4.0, 150.0)),
    max_fanout=st.integers(2, 8),
    max_length=st.sampled_from((2.0, 300.0)),
)


def _clusters(nets):
    return [
        Cluster([Sink(f"n{j}s{i}", Point(*xy), cap=cap)
                 for i, (xy, cap) in enumerate(sinks)], Point(*center))
        for j, (center, sinks) in enumerate(nets)
    ]


def _run(anneal, nets, cfg):
    """Everything a run yields, exactly (``repr`` keeps signs of zero)."""
    before = [METRICS.counter(name) for name in _COUNTERS]
    best, trace = anneal(_clusters(nets), cfg)
    moves = [METRICS.counter(name) - b for name, b in zip(_COUNTERS, before)]
    return ([[s.name for s in c.sinks] for c in best],
            [(repr(c.center.x), repr(c.center.y)) for c in best],
            [repr(cost) for cost in trace],
            moves)


@given(nets=partitions(), cfg=configs)
@settings(max_examples=300, deadline=None)
# the destination net's boundary list goes stale unless dropped when
# the net gains a sink (an empty net gains one too)
@example(
    nets=[((0.0, 1.0), [((0.0, 1.0), 0.7), ((2.0, 1.0), 2.9),
                        ((4.0, 0.0), 2.9)]),
          ((2.0, 4.0), [((2.0, 4.0), 2.9), ((4.0, 1.0), 0.1)]),
          ((0.0, 4.0), []),
          ((3.0, 2.0), [((3.0, 2.0), 0.1), ((0.0, 4.0), 2.9),
                        ((1.0, 1.0), 2.9)])],
    cfg=SAConfig(iterations=8, seed=8, max_fanout=2),
)
# caps whose running total drifts from a fresh ``sum`` of the list
@example(
    nets=[((1.0, 1.0), [((0.0, 0.0), 0.1), ((1.0, 3.0), 0.7),
                        ((3.0, 1.0), 1.3), ((2.0, 2.0), 0.7),
                        ((4.0, 4.0), 0.1)]),
          ((4.0, 0.0), [((4.0, 0.0), 0.7), ((3.0, 0.0), 0.1),
                        ((4.0, 1.0), 2.9)])],
    cfg=SAConfig(iterations=30, seed=1),
)
# the moved sink is equally far from two empty nets' centers: the
# target must be the lower index
@example(
    nets=[((0.0, 1.0), []), ((3.0, 3.0), []),
          ((0.0, 4.0), [((1.0, 2.0), 0.7), ((2.0, 0.0), 2.9)]),
          ((0.0, 3.0), [])],
    cfg=SAConfig(iterations=1, seed=15, max_fanout=4),
)
def test_anneal_partition_matches_oracle(nets, cfg):
    assert _run(anneal_partition, nets, cfg) == \
        _run(sa_oracle.anneal_partition, nets, cfg)


@given(nets=partitions(), cfg=configs)
@settings(max_examples=100, deadline=None)
def test_anneal_cost_drop_matches_oracle(nets, cfg):
    """The observed cost drop reads the best state's cost, which the
    kernel keeps as it goes instead of re-pricing the returned state;
    both must give the reference's float."""

    def observed(anneal):
        seen = []
        with mock.patch.object(
                METRICS, "observe",
                lambda name, value: seen.append((name, repr(value)))):
            anneal(_clusters(nets), cfg)
        return seen

    assert observed(anneal_partition) == \
        observed(sa_oracle.anneal_partition)


@given(nets=partitions(), cfg=configs)
@settings(max_examples=150, deadline=None)
def test_level_sa_costs_equal_total_cost(nets, cfg):
    """The flow quotes a level's SA costs from the annealer's trace
    instead of pricing the level twice more: the cost before SA must be
    ``total_cost`` of the clusters handed in, and the cost after it
    ``total_cost`` of the state SA hands back, both by ``repr``."""
    clusters = _clusters(nets)
    sinks = [s for c in clusters for s in c.sinks]
    centers = [c.center for c in clusters]
    labels = [j for j, c in enumerate(clusters) for _ in c.sinks]
    flow = HierarchicalCTS(
        constraints=Constraints(max_fanout=cfg.max_fanout,
                                max_cap=cfg.max_cap,
                                max_length=cfg.max_length),
        config=FlowConfig(
            sa_iterations=cfg.iterations, seed=cfg.seed,
            partitioner=lambda points, max_size, seed: (centers, labels)),
        jobs=1,
    )
    kept, before, after = flow._partition_inner(sinks, 0, FlowDiagnostics())
    sa_cfg = flow._sa_config(0)
    # the state SA hands back (empty nets included), or the input when
    # a one-net level skips SA
    handed_back = (anneal_partition(_clusters(nets), sa_cfg)[0]
                   if len(clusters) > 1 else clusters)
    assert [[s.name for s in c.sinks] for c in kept] == \
        [[s.name for s in c.sinks] for c in handed_back if c.sinks]
    assert repr(before) == repr(total_cost(clusters, sa_cfg))
    assert repr(after) == repr(total_cost(handed_back, sa_cfg))

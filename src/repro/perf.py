"""Fixed-seed uniform sink placements.

:func:`make_uniform_sinks` is the placement family of the quality pins
(``BENCH_perf.json``, checked by ``tests/test_flow_pins.py``), of the
uniform workload of the repo benchmark (``bench/``) and of the scaling
benches.  The generator is deliberately tiny and deterministic: the
same ``(n, seed)`` always yields the same placement, so two checkouts
of the code can be compared number for number.
"""

from __future__ import annotations

import random

from repro.geometry import Point
from repro.netlist import Sink


def make_uniform_sinks(
    n: int, seed: int = 0
) -> tuple[list[Sink], float]:
    """Fixed-seed uniform placement; returns (sinks, die side in um).

    Density is held roughly constant as ``n`` grows (side ~ sqrt(n)),
    the same family ``benchmarks/bench_scaling.py`` uses.
    """
    rng = random.Random(seed)
    side = 40.0 * (n ** 0.5) / 10.0 + 60.0
    sinks = [
        Sink(f"ff{i}", Point(rng.uniform(0, side), rng.uniform(0, side)),
             cap=1.0)
        for i in range(n)
    ]
    return sinks, side

"""Clock sinks.

A sink is a clock endpoint for the net currently being routed: a flip-flop
clock pin at the bottom level of the hierarchy, or a previously inserted
buffer acting as the next level's load.  ``subtree_delay`` carries the
accumulated (estimated) delay from this node down to the real flip-flops —
the quantity the paper's insertion-delay lower bound (Section 3.4) manages
so that upstream merges need no downstream rework.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point


@dataclass(frozen=True, slots=True)
class Sink:
    """One clock load pin."""

    name: str
    location: Point
    cap: float = 1.0            # input pin capacitance, fF
    subtree_delay: float = 0.0  # ps, delay already accumulated below this pin

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise ValueError(f"sink {self.name!r} has negative cap {self.cap}")
        if self.subtree_delay < 0:
            raise ValueError(
                f"sink {self.name!r} has negative subtree delay "
                f"{self.subtree_delay}"
            )

"""Clock nets: a driver location plus the sinks it must reach."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Point, bounding_box
from repro.netlist.sink import Sink


@dataclass(slots=True)
class ClockNet:
    """A single clock net (one driver, many loads).

    At the bottom of the hierarchy the driver is the clock source or a
    buffer; the sinks are flip-flop clock pins.  At upper levels the sinks
    are the buffers inserted at the level below.
    """

    name: str
    source: Point
    sinks: list[Sink] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.sinks:
            raise ValueError(f"net {self.name!r} has no sinks")
        names = [s.name for s in self.sinks]
        if len(set(names)) != len(names):
            raise ValueError(f"net {self.name!r} has duplicate sink names")

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def sink_points(self) -> list[Point]:
        return [s.location for s in self.sinks]

    def bbox(self) -> tuple[Point, Point]:
        """Bounding box of the source and all sinks."""
        return bounding_box([self.source] + self.sink_points())

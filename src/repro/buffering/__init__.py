"""Buffering optimisation (paper Section 3.4).

* :mod:`estimation` — buffer driver capability: which buffer drives a
  load, the longest wire span a slew limit allows, and the Eq. (7)
  insertion-delay lower bound that lets upstream levels budget a
  not-yet-inserted buffer's delay;
* :mod:`insertion` — placing the driver buffer of a net and splitting
  over-long edges with repeater chains.
"""

from repro.buffering.estimation import (
    driver_for_load,
    insertion_delay_estimate,
)
from repro.buffering.insertion import place_driver, split_long_edges

__all__ = [
    "driver_for_load",
    "insertion_delay_estimate",
    "place_driver",
    "split_long_edges",
]

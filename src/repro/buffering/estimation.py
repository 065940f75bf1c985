"""Buffer driver capability estimation (paper Section 3.4).

Thin policy layer over :mod:`repro.timing.buffer_model`: picks drivers,
bounds unbuffered spans, and exposes the Eq. (7) conservative delay that
the hierarchical flow charges to a node *before* its buffer exists, so
that later upstream merges cause no downstream rework (Fig. 5).
"""

from __future__ import annotations

import math

from repro.tech.buffer_library import BufferLibrary, BufferType
from repro.tech.technology import LN9, Technology
from repro.timing.buffer_model import insertion_delay_lower_bound


def driver_for_load(
    lib: BufferLibrary, cap_load: float, slew_in: float = 10.0
) -> BufferType:
    """Pick the net's driver buffer.

    Among buffers whose drive limit covers the load, take the one with the
    best Eq. (6) delay; smaller buffers win ties through their smaller
    omega_i.  Loads beyond every drive limit get the strongest buffer
    (callers are expected to have split the net first).
    """
    if cap_load < 0:
        raise ValueError(f"negative load {cap_load}")
    return lib.best_delay(slew_in, cap_load)


def insertion_delay_estimate(lib: BufferLibrary, cap_load: float) -> float:
    """Eq. (7): conservative lower bound of the future driver's delay.

    Charged to a cluster's root when it becomes a sink of the next level,
    so the upper level balances against a provisional-but-safe delay.
    """
    return insertion_delay_lower_bound(lib, cap_load)


def max_span_for_slew(tech: Technology, max_slew: float) -> float:
    """Longest wire span whose own degradation keeps slew under
    ``max_slew`` ps (Bakoglu: slew = ln9 * r*c*L^2/2), as in the
    slew-constrained design methodology of Sitik et al. [19].

    Used alongside the wirelength constraint when splitting edges: the
    effective span limit is ``min(max_length, max_span_for_slew(...))``.
    """
    if max_slew <= 0:
        raise ValueError(f"max_slew must be positive, got {max_slew}")
    rc = tech.rc_per_um2_ps()
    return math.sqrt(2.0 * max_slew / (LN9 * rc))

"""Pluggable delay models for DME merging.

Both models expose the three primitives bottom-up merging needs:

* ``wire_delay(length, downstream_cap)`` — delay added by a wire arm;
* ``extension_for_delay(delay, downstream_cap)`` — inverse: the wire
  length whose delay equals ``delay`` (used to size detours);
* ``balance_split(L, mid_a, mid_b, cap_a, cap_b)`` — the split point x
  along a connection of length L that equalises the two sides' midpoint
  delays; may fall outside [0, L], signalling a detour.

For the Elmore model the balance equation is *linear* in x (the quadratic
terms cancel), so both models solve in closed form.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.tech.technology import RC_TO_PS, Technology


class DelayModel(ABC):
    """Interface used by :func:`repro.dme.merging.merge_specs`."""

    #: capacitance added per unit wirelength (0 for the linear model)
    unit_cap: float = 0.0

    @abstractmethod
    def wire_delay(self, length: float, downstream_cap: float) -> float:
        """Delay of a wire arm of ``length`` driving ``downstream_cap``."""

    @abstractmethod
    def extension_for_delay(self, delay: float, downstream_cap: float) -> float:
        """Wire length realising exactly ``delay`` into ``downstream_cap``."""

    @abstractmethod
    def balance_split(
        self, total: float, mid_a: float, mid_b: float,
        cap_a: float, cap_b: float,
    ) -> float:
        """x with  mid_a + delay(x, cap_a) == mid_b + delay(total - x, cap_b).

        May return values outside [0, total]; the caller clamps and
        compensates with detour wire.
        """


class LinearDelay(DelayModel):
    """The wirelength delay model: delay == path length.

    This is the model under which the paper states the SLLT metrics
    (Eqs. (1)-(3)) and under which ZST-DME achieves exactly zero skew.
    Delays carry length units (um).
    """

    unit_cap = 0.0

    def wire_delay(self, length: float, downstream_cap: float) -> float:
        return length

    def extension_for_delay(self, delay: float, downstream_cap: float) -> float:
        return delay

    def balance_split(
        self, total: float, mid_a: float, mid_b: float,
        cap_a: float, cap_b: float,
    ) -> float:
        return (mid_b - mid_a + total) / 2.0


class ElmoreDelay(DelayModel):
    """Elmore delay with lumped downstream capacitance (ps / fF / um).

    A wire arm of length x driving subtree cap C contributes
    ``K * x * (c * x / 2 + C)`` with K = r * RC_TO_PS.
    """

    def __init__(self, tech: Technology):
        self._tech = tech
        self._k = tech.unit_res * RC_TO_PS
        self.unit_res = tech.unit_res
        self.unit_cap = tech.unit_cap

    def wire_delay(self, length: float, downstream_cap: float) -> float:
        c = self._tech.unit_cap
        return self._k * length * (c * length / 2.0 + downstream_cap)

    def extension_for_delay(self, delay: float, downstream_cap: float) -> float:
        if delay <= 0:
            return 0.0
        c = self._tech.unit_cap
        if c <= 0:
            # pure RC-less wire: delay = k * length * cap
            if downstream_cap <= 0:
                raise ValueError("cannot invert delay with zero wire cap and load")
            return delay / (self._k * downstream_cap)
        # (c/2) y^2 + C y - delay/k = 0  ->  positive root
        disc = downstream_cap * downstream_cap + 2.0 * c * delay / self._k
        return (-downstream_cap + math.sqrt(disc)) / c

    def balance_split(
        self, total: float, mid_a: float, mid_b: float,
        cap_a: float, cap_b: float,
    ) -> float:
        # f(x) = (mid_a + k x (c x/2 + cap_a)) - (mid_b + k (L-x)(c (L-x)/2 + cap_b))
        # the quadratic terms cancel into a linear function of x:
        # f(x) = delta - k (c L^2 / 2 + cap_b L) + k (c L + cap_a + cap_b) x
        c = self._tech.unit_cap
        delta = mid_a - mid_b
        slope = self._k * (c * total + cap_a + cap_b)
        if slope <= 0:
            # zero-length connection: any split works iff delta == 0;
            # signal the detour direction by the sign of delta
            return 0.0 if delta >= 0 else total
        intercept = delta - self._k * (c * total * total / 2.0 + cap_b * total)
        return -intercept / slope

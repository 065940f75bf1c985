"""Wire parasitics and delay unit conventions.

Units used throughout the repository:

==========  =======
quantity    unit
==========  =======
distance    um
resistance  ohm
capacitance fF
time        ps
area        um^2
==========  =======

With these units, ``ohm * fF = femtosecond``, hence the ``RC_TO_PS = 1e-3``
conversion constant applied by every delay formula.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ohm * fF -> ps conversion (1 ohm * 1 fF = 1 fs = 1e-3 ps).
RC_TO_PS: float = 1e-3

#: natural log of 9, the 10%-90% slew factor of Bakoglu's metric.
LN9: float = 2.1972245773362196


@dataclass(frozen=True, slots=True)
class Technology:
    """Per-unit wire parasitics of the clock routing layer.

    The defaults model a mid-level metal in a 28nm-like process:
    ``unit_res`` = 2.0 ohm/um and ``unit_cap`` = 0.2 fF/um give a wire RC
    constant of 0.4 fs/um^2, i.e. a 300 um net contributes ~18 ps of Elmore
    delay unbuffered — consistent with the wire-delay scale of the paper's
    Table 3 and the latency scale of Tables 6 and 7.
    """

    unit_res: float = 2.0  # ohm per um
    unit_cap: float = 0.2  # fF per um
    sink_cap_default: float = 1.0  # fF, FF clock-pin capacitance

    def wire_cap(self, length: float) -> float:
        """Capacitance (fF) of a wire of ``length`` um."""
        return self.unit_cap * length

    def wire_res(self, length: float) -> float:
        """Resistance (ohm) of a wire of ``length`` um."""
        return self.unit_res * length

    def wire_delay(self, length: float, load_cap: float = 0.0) -> float:
        """Elmore delay (ps) of a wire driving ``load_cap`` fF downstream.

        delay = R_wire * (C_wire / 2 + C_load), the standard pi-model.
        """
        if length < 0:
            raise ValueError(f"negative wire length {length}")
        res = self.wire_res(length)
        return res * (self.wire_cap(length) / 2.0 + load_cap) * RC_TO_PS

    def rc_per_um2_ps(self) -> float:
        """Wire RC constant r*c expressed in ps/um^2 (used by Eq. (7))."""
        return self.unit_res * self.unit_cap * RC_TO_PS

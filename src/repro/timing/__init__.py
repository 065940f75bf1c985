"""Timing substrate: Elmore RC-tree analysis and buffer delay models.

Two delay models are used in the paper and reproduced here:

* the *wirelength (linear) delay model*, where delay is proportional to
  path length — this is the model under which ZST-DME achieves exactly
  zero skew and under which the SLLT metrics (Eqs. (1)-(3)) are stated;
* the *Elmore model* with buffer stages, used for the full-flow evaluation
  (Tables 3, 6 and 7), with buffer delay from Eq. (6).
"""

from repro.timing.elmore import ElmoreAnalyzer, TimingReport
from repro.timing.buffer_model import (
    critical_wirelength,
    insertion_delay_lower_bound,
    refined_critical_wirelength,
)
from repro.timing.ocv import OCVReport, worst_ocv_skew

__all__ = [
    "ElmoreAnalyzer",
    "OCVReport",
    "TimingReport",
    "critical_wirelength",
    "insertion_delay_lower_bound",
    "refined_critical_wirelength",
    "worst_ocv_skew",
]

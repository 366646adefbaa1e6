"""Shot kernels and result types for the paper's Monte-Carlo evaluations.

Campaigns run through :func:`repro.campaigns.run`; this package holds
the batched kernels it drives and the domain results it returns.
"""

from repro.sim.montecarlo import BinomialEstimate, wilson_interval
from repro.sim.memory import LogicalErrorEstimate
from repro.sim.detection import (
    DetectionPerformance,
    analytic_required_window,
)
from repro.sim.endtoend import EndToEndResult
from repro.sim.batch import (
    DetectionShotKernel,
    EndToEndShotKernel,
    MemoryShotKernel,
)
from repro.sim import bitops

__all__ = [
    "bitops",
    "DetectionShotKernel",
    "EndToEndShotKernel",
    "MemoryShotKernel",
    "BinomialEstimate",
    "wilson_interval",
    "LogicalErrorEstimate",
    "DetectionPerformance",
    "analytic_required_window",
    "EndToEndResult",
]

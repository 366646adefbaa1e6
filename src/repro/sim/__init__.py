"""Monte-Carlo experiment drivers for the paper's evaluations."""

from repro.sim.montecarlo import BinomialEstimate, wilson_interval
from repro.sim.memory import MemoryExperiment, LogicalErrorEstimate
from repro.sim.detection import (
    DetectionTrialResult,
    DetectionPerformance,
    run_detection_trials,
    analytic_required_window,
)
from repro.sim.endtoend import EndToEndExperiment, EndToEndResult
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
    "MemoryExperiment",
    "LogicalErrorEstimate",
    "DetectionTrialResult",
    "DetectionPerformance",
    "run_detection_trials",
    "analytic_required_window",
    "EndToEndExperiment",
    "EndToEndResult",
]

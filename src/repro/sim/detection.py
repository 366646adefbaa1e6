"""Anomaly-detection experiments (paper Fig. 7, Sec. VII-B).

A :class:`repro.campaigns.DetectionSpec` campaign streams realistic
syndrome activity (normal period, then an MBBE onset) through the
anomaly detection unit and measures:

* false-positive rate during the normal period;
* detection (true-positive) rate and latency after the onset;
* error of the estimated anomaly position.

This module holds its :class:`DetectionPerformance`, the analytic
window-size bound, and the empirical "required window size" search the
bound seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from scipy.special import erfinv

from repro.core.statistics import (
    SyndromeStatistics,
    expected_activity_rate,
)

if TYPE_CHECKING:
    from repro.campaigns.executors import Executor
    from repro.campaigns.specs import DetectionSpec


@dataclass(frozen=True)
class DetectionPerformance:
    """Aggregate over trials."""

    trials: int
    false_positives: int
    detections: int
    mean_latency: float
    mean_position_error: float

    @property
    def false_positive_rate(self) -> float:
        return self.false_positives / self.trials

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.detections / self.trials


def calibrated_statistics(p: float) -> SyndromeStatistics:
    """Bulk-node activity statistics for normal qubits (pre-calibration)."""
    return SyndromeStatistics.from_activity_rate(expected_activity_rate(p))


def analytic_required_window(
    p: float,
    p_ano: float,
    alpha: float = 0.01,
    beta: float = 0.01,
) -> int:
    """Smallest window separating normal and anomalous counters.

    Requires the anomalous counter mean to clear the Eq. (3) threshold
    with miss probability ``beta``:

        c_win (mu_a - mu) >= sqrt(2 c_win) (sigma erfinv(1-alpha)
                                            + sigma_a erfinv(1-beta))

    Solved for ``c_win``.  Diverges as ``p_ano -> p`` (undetectable).
    """
    mu = expected_activity_rate(p)
    mu_a = expected_activity_rate(min(0.5, p_ano))
    if mu_a <= mu:
        raise ValueError("anomalous rate must exceed the normal rate")
    sigma = math.sqrt(mu * (1 - mu))
    sigma_a = math.sqrt(mu_a * (1 - mu_a))
    numerator = math.sqrt(2.0) * (sigma * erfinv(1 - alpha)
                                  + sigma_a * erfinv(1 - beta))
    return max(1, math.ceil((numerator / (mu_a - mu)) ** 2))


def empirical_required_window(
    base: DetectionSpec,
    target_error: float = 0.01,
    growth: float = 1.5,
    max_window: int = 4096,
    executor: Optional[Executor] = None,
) -> tuple[int, DetectionPerformance]:
    """Grow the window until both error rates fall below ``target_error``.

    Runs ``base`` with its ``c_win`` overridden, starting at the
    analytic bound for ``base.alpha`` and a miss rate of
    ``target_error``, and growing by ``growth`` up to ``max_window``.
    With ``base.trials`` shots the verifiable resolution is
    ``1/trials``; the paper's 1 % criterion is reproduced in shape
    (monotone decrease with the rate ratio) at reduced statistical
    depth.
    """
    from repro import campaigns
    c_win = analytic_required_window(base.p, base.p_ano, base.alpha,
                                     target_error)
    floor = max(target_error, 1.0 / base.trials)
    while True:
        perf = campaigns.run(replace(base, c_win=c_win),
                             executor=executor).detail
        if perf.false_positive_rate <= floor and perf.miss_rate <= floor:
            return c_win, perf
        if c_win >= max_window:
            return c_win, perf
        c_win = min(max_window, max(c_win + 1, int(c_win * growth)))

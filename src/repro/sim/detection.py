"""Anomaly-detection experiments (paper Fig. 7, Sec. VII-B).

Streams realistic syndrome activity (normal period, then an MBBE onset)
through the :class:`AnomalyDetectionUnit` and measures:

* false-positive rate during the normal period;
* detection (true-positive) rate and latency after the onset;
* error of the estimated anomaly position.

Also provides the analytic window-size bound used to seed the empirical
"required window size" search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfinv

from repro.core.statistics import (
    SyndromeStatistics,
    expected_activity_rate,
)


@dataclass(frozen=True)
class DetectionTrialResult:
    """Outcome of one streamed trial."""

    false_positive: bool
    detected: bool
    latency_cycles: Optional[int]
    position_error: Optional[float]


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


def run_detection_trials(
    distance: int,
    p: float,
    p_ano: float,
    anomaly_size: int,
    c_win: int,
    n_th: int = 20,
    alpha: float = 0.01,
    trials: int = 20,
    normal_cycles: Optional[int] = None,
    post_cycles: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 0,
) -> DetectionPerformance:
    """Stream trials through the detection unit and aggregate outcomes.

    This is now a thin shim over the unified campaign API — it builds a
    :class:`repro.campaigns.DetectionSpec` and calls
    :func:`repro.campaigns.run`, so its results are bit-identical per
    ``(seed, batch_size)`` to a directly run spec.  Prefer the campaign
    API for new code (sweeps, executors, checkpoint/resume, provenance).

    Each trial: ``normal_cycles`` of anomaly-free operation (any flag here
    is a false positive), then an MBBE appears at a random position and
    runs for ``post_cycles`` (no flag here is a miss).  The staged batch
    kernel (bit-packed sampling/extraction, one windowed-count pass per
    chunk) is the only engine: ``workers = 0`` (default) runs it
    in-process over whole-request chunks (``batch_size = trials``, shrunk by
    :func:`repro.sim.batch.default_chunk_shots` when the chunk's
    activity tensors would not fit in memory), ``> 1`` fans batches over
    a process pool.  The retired per-cycle reference loop lives in
    ``tests/reference_engines.py``, reachable only from the equivalence
    suite.
    """
    from repro import campaigns
    if seed is None:
        # reprolint: disable=RL001 -- seed=None is the legacy API's
        # explicit opt-out; the drawn seed lands in the spec so the
        # run is still replayable from its provenance block
        seed = int(np.random.default_rng().integers(2 ** 63))
    spec = campaigns.DetectionSpec(
        distance=distance, p=p, p_ano=p_ano,
        anomaly_size=anomaly_size, c_win=c_win, n_th=n_th,
        alpha=alpha, trials=trials, normal_cycles=normal_cycles,
        post_cycles=post_cycles, seed=seed)
    executor = campaigns.default_executor(workers)
    return campaigns.run(spec, executor=executor).detail


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
    distance: int,
    p: float,
    p_ano: float,
    anomaly_size: int,
    n_th: int = 20,
    alpha: float = 0.01,
    target_error: float = 0.01,
    trials: int = 25,
    seed: Optional[int] = None,
    growth: float = 1.5,
    max_window: int = 4096,
    workers: int = 0,
) -> tuple[int, DetectionPerformance]:
    """Grow the window until both error rates fall below ``target_error``.

    With ``trials`` shots the verifiable resolution is ``1/trials``; the
    paper's 1 % criterion is reproduced in shape (monotone decrease with
    the rate ratio) at reduced statistical depth.
    """
    c_win = analytic_required_window(p, p_ano, alpha, target_error)
    while True:
        perf = run_detection_trials(
            distance, p, p_ano, anomaly_size, c_win, n_th, alpha,
            trials=trials, seed=seed, workers=workers)
        if (perf.false_positive_rate <= max(target_error, 1.0 / trials)
                and perf.miss_rate <= max(target_error, 1.0 / trials)):
            return c_win, perf
        if c_win >= max_window:
            return c_win, perf
        c_win = min(max_window, max(c_win + 1, int(c_win * growth)))

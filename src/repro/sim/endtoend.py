"""End-to-end Q3DE experiment: detect, estimate, re-decode.

The Fig. 8 experiments give the decoder the *true* anomalous region (the
paper's "with rollback" idealization).  This experiment closes the loop
the way the architecture actually runs it:

1. a cosmic ray strikes mid-run at a position the decoder does not know;
2. the anomaly detection unit watches the live syndrome stream;
3. on detection, the anomalous region is *estimated* (median position,
   onset one window back) and decoding is re-executed with weighted
   edges over that estimate;
4. the shot is scored three ways -- naive decoding, detection-driven
   re-execution, and oracle re-execution (true region) -- so the cost of
   imperfect detection is measurable.

The paper's claim that detection is accurate enough (Fig. 7 position
error of a node or two) implies the detected-region decoder should sit
close to the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.statistics import SyndromeStatistics, expected_activity_rate
from repro.decoding.graph import SyndromeLattice
from repro.noise.models import AnomalousRegion


def estimate_strike_region(distance: int, anomaly_size: int,
                           event_row: int, event_col: int,
                           onset_estimate: int) -> AnomalousRegion:
    """The control unit's region estimate from a detection event.

    Shared by the sequential and batched experiment paths so the two
    engines always score ``detected`` against the same box: the assumed
    ``anomaly_size`` centred on the flagged position (clipped to the
    lattice), starting at the estimated onset.
    """
    half = anomaly_size // 2
    rows, cols = distance - 1, distance
    return AnomalousRegion(
        row_lo=int(np.clip(event_row - half, 0,
                           max(0, rows - anomaly_size))),
        col_lo=int(np.clip(event_col - half, 0,
                           max(0, cols - anomaly_size))),
        size=anomaly_size,
        t_lo=max(0, onset_estimate),
    )


@dataclass(frozen=True)
class EndToEndResult:
    """Failure counts over the campaign, per decoding strategy."""

    shots: int
    naive_failures: int
    detected_failures: int
    oracle_failures: int
    detections: int
    mean_latency: float

    @property
    def detection_rate(self) -> float:
        return self.detections / self.shots

    def rates(self) -> dict[str, float]:
        return {
            "naive": self.naive_failures / self.shots,
            "detected": self.detected_failures / self.shots,
            "oracle": self.oracle_failures / self.shots,
        }


class EndToEndExperiment:
    """Detection-driven re-execution over repeated strike shots.

    Args:
        distance: code distance.
        p: normal physical error rate per cycle.
        p_ano: anomalous error rate.
        anomaly_size: true (and assumed) region size ``d_ano``.
        onset: cycle at which the strike lands.
        cycles: total noisy rounds per shot.
        c_win: detection window.
        n_th: detection count threshold.
    """

    def __init__(
        self,
        distance: int,
        p: float,
        p_ano: float = 0.5,
        anomaly_size: int = 4,
        onset: int = 150,
        cycles: int = 300,
        c_win: int = 100,
        n_th: int = 8,
        alpha: float = 0.01,
    ):
        if onset >= cycles:
            raise ValueError("the strike must land inside the run")
        self.distance = distance
        self.p = p
        self.p_ano = p_ano
        self.anomaly_size = anomaly_size
        self.onset = onset
        self.cycles = cycles
        self.c_win = c_win
        self.n_th = n_th
        self.alpha = alpha
        self.lattice = SyndromeLattice(distance)
        self.stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(p))

    # ------------------------------------------------------------------
    def run(self, shots: int,
            rng: Optional[np.random.Generator] = None,
            workers: int = 0,
            batch_size: Optional[int] = None,
            seed: Optional[int] = None) -> EndToEndResult:
        """Run the campaign and aggregate failure rates.

        This is now a thin shim over the unified campaign API — it
        builds a :class:`repro.campaigns.EndToEndSpec` and calls
        :func:`repro.campaigns.run`, so its results are bit-identical
        per ``(seed, batch_size)`` to a directly run spec.  Prefer the
        campaign API for new code (sweeps, executors, checkpoint/resume,
        provenance).

        The staged shot kernel (bit-packed sampling, region-bucketed
        decoding) is the only engine: ``workers = 0`` (default) runs it
        in-process over whole-request chunks (``batch_size = shots``,
        shrunk by :func:`repro.sim.batch.default_chunk_shots` when the
        chunk's activity tensors would not fit in memory);
        ``workers > 1`` fans batches over a process pool.  Campaigns
        are reproducible from ``(seed, batch_size)`` (``seed`` drawn
        from ``rng`` when not given).  The retired per-cycle reference
        loop lives in ``tests/reference_engines.py``, reachable only
        from the equivalence suite.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        # reprolint: disable=RL001 -- rng=None is the caller's explicit
        # opt-out of reproducibility; campaigns always pass a seeded rng
        rng = rng if rng is not None else np.random.default_rng()
        from repro import campaigns
        if seed is None:
            seed = int(rng.integers(2 ** 63))
        spec = campaigns.EndToEndSpec(
            distance=self.distance, p=self.p, shots=shots,
            p_ano=self.p_ano, anomaly_size=self.anomaly_size,
            onset=self.onset, cycles=self.cycles, c_win=self.c_win,
            n_th=self.n_th, alpha=self.alpha, seed=seed,
            batch_size=batch_size)
        executor = campaigns.default_executor(workers)
        return campaigns.run(spec, executor=executor).detail

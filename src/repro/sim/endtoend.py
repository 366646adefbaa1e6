"""End-to-end Q3DE results: detect, estimate, re-decode.

The Fig. 8 experiments give the decoder the *true* anomalous region (the
paper's "with rollback" idealization).  A
:class:`repro.campaigns.EndToEndSpec` campaign closes the loop the way
the architecture actually runs it:

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
close to the oracle.  This module holds the region estimate the shot
kernel and the per-shot reference share, and the campaign's
:class:`EndToEndResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noise.models import AnomalousRegion


def estimate_strike_region(distance: int, anomaly_size: int,
                           event_row: int, event_col: int,
                           onset_estimate: int) -> AnomalousRegion:
    """The control unit's region estimate from a detection event.

    Shared by every engine that scores ``detected``, so they all score
    it against the same box: the assumed
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

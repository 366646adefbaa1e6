"""Qubit-count scalability model (paper Sec. VIII-A, Fig. 9).

For a target logical error rate (10^-10), what chip area and qubit
density must each logical qubit be given?  Following the paper:

* logical error rate model: ``p_L(d_eff) = 0.1 * (p/p_th)^floor((d_eff+1)/2)``
  with ``p/p_th = 0.1``;
* code distance grows with the physical qubit budget:
  ``d = d_ref * sqrt(area_ratio * density_ratio)`` (2 d^2 qubits per patch);
* MBBE frequency scales linearly with chip area, anomaly size (in qubits)
  with ``sqrt(density)`` (a fixed physical diffusion radius covers more
  qubits when they are packed tighter; the paper states the anomalous
  region grows linearly with density, i.e. in qubit *count*);
* an active anomaly of size ``c`` behaves as a code-distance reduction of
  ``2c`` for the baseline and ``c`` with Q3DE's informed decoding
  (Sec. VI-A); Q3DE additionally expands the code after the detection
  latency ``c_lat``, so only ``c_lat`` cycles are exposed per event.

The evaluation is event-driven over a 10^8-cycle horizon: strikes arrive
by a Poisson process, each contributing its exposure window at the
reduced effective distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.noise.cosmic_ray import CosmicRayModel


@dataclass(frozen=True)
class ScalingParameters:
    """Inputs of the Fig. 9 evaluation (paper baseline defaults)."""

    p_over_pth: float = 0.1
    cycle_s: float = 1e-6
    anomaly_size: int = 4          # d_ano at reference density
    frequency_hz: float = 0.1      # f_ano at reference area
    lifetime_s: float = 25e-3      # tau_ano
    c_lat: int = 30                # Q3DE exposure per event (cycles)
    d_ref: int = 11                # code distance at area=density=1
    target_logical_rate: float = 1e-10
    horizon_cycles: int = 100_000_000

    def logical_rate(self, d_eff: float) -> float:
        """The paper's p_L(d) = 0.1 (p/p_th)^floor((d_eff+1)/2)."""
        if d_eff < 1:
            return 1.0
        return min(1.0, 0.1 * self.p_over_pth ** math.floor((d_eff + 1) / 2))

    def code_distance(self, area_ratio: float, density_ratio: float) -> int:
        """d from the physical-qubit budget (2 d^2 qubits per patch)."""
        d = int(self.d_ref * math.sqrt(area_ratio * density_ratio))
        return max(3, d)

    def anomaly_qubits(self, density_ratio: float) -> int:
        """Anomaly size in qubit units at the given density."""
        return max(1, round(self.anomaly_size * math.sqrt(density_ratio)))

    def event_rate_hz(self, area_ratio: float) -> float:
        return self.frequency_hz * area_ratio


def average_logical_error_rate(
    params: ScalingParameters,
    area_ratio: float,
    density_ratio: float,
    use_q3de: bool,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Time-averaged p_L over the event-driven horizon.

    Strikes land at positions uniform over the patch; the effective
    code-distance reduction ``c`` equals the anomaly's qubit extent
    (clipped by the patch size).  Baseline: exposed for the full anomaly
    lifetime at ``d - 2c``.  Q3DE: exposed ``c_lat`` cycles at ``d - c``,
    protected (expanded) for the remainder.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    d = params.code_distance(area_ratio, density_ratio)
    base_rate = params.logical_rate(d)
    c = min(params.anomaly_qubits(density_ratio), d - 1)

    horizon = params.horizon_cycles
    model = CosmicRayModel(
        frequency_hz=params.event_rate_hz(area_ratio),
        lifetime_s=params.lifetime_s,
        anomaly_size=c,
        cycle_s=params.cycle_s,
        rows=max(1, d - 1),
        cols=max(1, d),
        rng=rng,
    )
    total = 0.0
    for start, end, strike in model.iter_event_windows(horizon):
        span = end - start
        if strike is None:
            total += span * base_rate
            continue
        if use_q3de:
            exposed = min(span, params.c_lat)
            total += exposed * params.logical_rate(d - c)
            total += (span - exposed) * base_rate
        else:
            total += span * params.logical_rate(d - 2 * c)
    return total / horizon


def required_density(
    params: ScalingParameters,
    area_ratio: float,
    use_q3de: bool,
    max_density: float = 4000.0,
    seed: int = 0,
) -> Optional[float]:
    """Smallest density ratio achieving the target logical rate.

    Scans a geometric grid of density ratios (the paper raises density
    until the rate crosses 10^-10); returns ``None`` when even
    ``max_density`` is insufficient.
    """
    density = max(1.0 / area_ratio, 0.01)
    step = 1.2
    while density <= max_density:
        rate = average_logical_error_rate(
            params, area_ratio, density, use_q3de,
            rng=np.random.default_rng(seed))
        if rate < params.target_logical_rate:
            return density
        density *= step
    return None


def density_curve(
    params: ScalingParameters,
    area_ratios: list[float],
    use_q3de: bool,
    seed: int = 0,
) -> list[Optional[float]]:
    """Required density across chip areas: one Fig. 9 series."""
    return [required_density(params, area, use_q3de, seed=seed)
            for area in area_ratios]

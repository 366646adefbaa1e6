"""Logical-memory Monte-Carlo experiments (paper Sec. VII-A).

Estimates the logical Pauli-X error rate per code cycle of ``d``-cycle
idling: sample per-cycle errors, extract the syndrome-difference lattice,
decode (greedy or exact MWPM; uniform or anomaly-aware weights), and
declare failure when the residual error crosses the north-boundary cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.decoding.decoder_base import Decoder
from repro.decoding.graph import SyndromeLattice
from repro.decoding.greedy import GreedyDecoder
from repro.decoding.mwpm import MWPMDecoder
from repro.decoding.weights import DistanceModel, relative_anomalous_weight
from repro.noise.models import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios.model import Scenario
from repro.sim.montecarlo import BinomialEstimate


@dataclass(frozen=True)
class LogicalErrorEstimate:
    """A measured logical failure rate."""

    failures: int
    samples: int
    cycles: int

    @property
    def estimate(self) -> BinomialEstimate:
        return BinomialEstimate(self.failures, self.samples)

    @property
    def per_run(self) -> float:
        return self.failures / self.samples

    @property
    def per_cycle(self) -> float:
        """Failure probability per code cycle: 1 - (1 - P)^(1/T)."""
        p_run = self.per_run
        if p_run >= 1.0:
            return 1.0
        return 1.0 - (1.0 - p_run) ** (1.0 / self.cycles)

    @property
    def per_cycle_std_error(self) -> float:
        """Delta-method standard error of :attr:`per_cycle`.

        ``per_cycle = f(P) = 1 - (1 - P)^(1/T)`` with ``P`` the per-run
        rate, so ``se(per_cycle) = se(P) * f'(P)`` with
        ``f'(P) = (1 - P)^(1/T - 1) / T``.  (Dividing by ``T`` alone
        understates the error once ``P`` is not small.)
        """
        p_run = self.per_run
        if p_run >= 1.0:
            # f'(P) diverges as P -> 1; the estimate saturates at 1.0 and
            # the linearized error bar is meaningless, so fall back to the
            # raw per-run uncertainty scaled by 1/T.
            return self.estimate.std_error / self.cycles
        derivative = (1.0 - p_run) ** (1.0 / self.cycles - 1.0) / self.cycles
        return self.estimate.std_error * derivative


class MemoryExperiment:
    """One configuration of the idling experiment.

    Args:
        distance: code distance ``d``.
        p: physical error rate per cycle.
        region: optional anomalous region (``None`` = MBBE free).
        p_ano: anomalous error rate (paper: 0.5).
        decoder: ``"greedy"`` (default; tractable at paper scales) or
            ``"mwpm"`` (exact blossom).
        informed: if True the decoder knows the region -- the paper's
            "with rollback" re-executed decoding; if False it decodes
            with uniform weights ("without rollback").
        cycles: number of noisy rounds (default ``d``).
    """

    def __init__(
        self,
        distance: int,
        p: float,
        region: Optional[AnomalousRegion] = None,
        p_ano: float = 0.5,
        decoder: str = "greedy",
        informed: bool = False,
        cycles: Optional[int] = None,
    ):
        if decoder not in ("greedy", "mwpm"):
            raise ValueError("decoder must be 'greedy' or 'mwpm'")
        self.distance = distance
        self.p = p
        self.region = region
        self.p_ano = p_ano
        self.decoder = decoder
        self.informed = informed
        self.cycles = cycles if cycles is not None else distance
        self.noise = PhenomenologicalNoise(
            distance, p, Scenario.from_region(region, p_ano))
        self.lattice = SyndromeLattice(distance)
        self._decoder = self._build_decoder(decoder)

    def _build_decoder(self, kind: str) -> Decoder:
        if self.informed and self.region is not None:
            w_ano = relative_anomalous_weight(self.p, self.p_ano)
            model = DistanceModel(self.distance, self.region, w_ano)
        else:
            model = DistanceModel(self.distance)
        if kind == "mwpm":
            return MWPMDecoder(model)
        return GreedyDecoder(model)

    # ------------------------------------------------------------------
    def run_once(self, rng: np.random.Generator) -> bool:
        """One shot: True iff a logical X error survived decoding."""
        v, h, m = self.noise.sample(self.cycles, rng)
        nodes = self.lattice.detection_events(v, h, m)
        result = self._decoder.decode(nodes)
        error_parity = self.lattice.error_cut_parity(v)
        return bool(error_parity ^ result.correction_cut_parity)

    def run(self, samples: int,
            rng: Optional[np.random.Generator] = None,
            workers: int = 0,
            batch_size: Optional[int] = None,
            seed: Optional[int] = None,
            target_rel_width: Optional[float] = None,
            ) -> LogicalErrorEstimate:
        """Estimate the logical failure rate over ``samples`` shots.

        This is now a thin shim over the unified campaign API — the
        ``workers >= 1`` path builds a
        :class:`repro.campaigns.MemorySpec` and calls
        :func:`repro.campaigns.run`, so its results are bit-identical
        per ``(seed, batch_size)`` to a directly run spec.  Prefer the
        campaign API for new code: it adds sweeps, pluggable executors,
        checkpoint/resume and provenance that this signature cannot
        express.

        ``workers = 0`` (default) runs the original sequential per-shot
        path.  ``workers >= 1`` runs the batched shot engine
        (:mod:`repro.sim.batch`): bit-packed sampling and word-wise
        syndrome extraction, the certified-equal fast matching core,
        and — for ``workers > 1`` — a process pool with per-worker
        decoder reuse.  Batched campaigns are reproducible from ``seed`` (drawn
        from ``rng`` when not given) and can stop early once the Wilson
        interval is narrower than ``target_rel_width`` times the mean.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        # reprolint: disable=RL001 -- rng=None is the caller's explicit
        # opt-out of reproducibility; campaigns always pass a seeded rng
        rng = rng if rng is not None else np.random.default_rng()
        if workers == 0:
            failures = sum(self.run_once(rng) for _ in range(samples))
            return LogicalErrorEstimate(failures, samples, self.cycles)

        from repro import campaigns
        if seed is None:
            seed = int(rng.integers(2 ** 63))
        spec = campaigns.MemorySpec(
            distance=self.distance, p=self.p, samples=samples,
            region=self.region, p_ano=self.p_ano, decoder=self.decoder,
            informed=self.informed, cycles=self.cycles, seed=seed,
            batch_size=batch_size, target_rel_width=target_rel_width)
        executor = campaigns.default_executor(workers)
        return campaigns.run(spec, executor=executor).detail


def logical_error_rate(
    distance: int,
    p: float,
    samples: int,
    region: Optional[AnomalousRegion] = None,
    informed: bool = False,
    decoder: str = "greedy",
    p_ano: float = 0.5,
    seed: Optional[int] = None,
    workers: int = 0,
    batch_size: Optional[int] = None,
    target_rel_width: Optional[float] = None,
) -> LogicalErrorEstimate:
    """Convenience one-call estimator (used by benches and examples)."""
    experiment = MemoryExperiment(
        distance, p, region=region, p_ano=p_ano,
        decoder=decoder, informed=informed)
    return experiment.run(samples, np.random.default_rng(seed),
                          workers=workers, batch_size=batch_size,
                          target_rel_width=target_rel_width)


def fit_scaling_exponent(
    rates: dict[int, float]) -> tuple[float, float]:
    """Fit ``p_L(d) = A * base**(floor(d/2) + 1)`` to per-distance rates.

    Returns ``(A, base)``; used to extrapolate Monte-Carlo data to the
    low-error regime, as in the paper's first-order analysis.
    """
    ds = sorted(d for d, r in rates.items() if r > 0)
    if len(ds) < 2:
        raise ValueError("need at least two distances with nonzero rates")
    xs = np.array([math.floor(d / 2) + 1 for d in ds], dtype=float)
    ys = np.array([math.log(rates[d]) for d in ds])
    slope, intercept = np.polyfit(xs, ys, 1)
    return math.exp(intercept), math.exp(slope)

"""Logical-memory results (paper Sec. VII-A).

A :class:`repro.campaigns.MemorySpec` campaign estimates the logical
Pauli-X error rate per code cycle of ``d``-cycle idling: sample
per-cycle errors, extract the syndrome-difference lattice, decode
(greedy or exact MWPM; uniform or anomaly-aware weights), and declare
failure when the residual error crosses the north-boundary cut.  Its
``detail`` is the :class:`LogicalErrorEstimate` defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

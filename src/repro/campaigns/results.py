"""Uniform campaign results and their provenance blocks.

Every campaign — whatever its kind — comes back as a
:class:`CampaignResult`: the headline ``estimates`` (floats), the raw
``counts`` (shots, failures, the shot request), and a
:class:`Provenance` block recording exactly what produced them (spec
hash, seed, package version, executor, wall clock, chunk accounting).
``to_dict()`` gives the JSON the CLI prints; ``detail`` keeps the domain
result object (:class:`~repro.sim.LogicalErrorEstimate` and friends)
for in-process callers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class Provenance:
    """Where a result came from, completely enough to reproduce it."""

    spec_hash: str
    kind: str
    seed: int
    version: str
    executor: str
    wall_clock_s: float
    batch_size: Optional[int] = None
    chunks: int = 0
    resumed_chunks: int = 0
    #: Transport-executor robustness accounting (attempts, retries,
    #: re-dispatches, quarantined chunks, dead workers, ...) from
    #: :meth:`repro.campaigns.executors.Executor.accounting`; ``None``
    #: for in-process executors.
    supervisor: Optional[dict] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


@dataclass(frozen=True)
class CampaignResult:
    """What :func:`repro.campaigns.run` returns for a single spec."""

    kind: str
    estimates: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    provenance: Optional[Provenance] = None
    #: The domain result object (LogicalErrorEstimate, EndToEndResult,
    #: DetectionPerformance, ThroughputResult, ...).  In-process only;
    #: not part of the JSON wire format.
    detail: Any = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "estimates": dict(self.estimates),
            "counts": dict(self.counts),
            "provenance": (self.provenance.to_dict()
                           if self.provenance is not None else None),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class SweepResult:
    """Results of a :class:`~repro.campaigns.specs.Sweep`, in grid order.

    ``points`` pairs each grid point's axis overrides with its
    :class:`CampaignResult`, so callers can rebuild the paper's tables
    without re-deriving the grid.
    """

    points: list  # list[tuple[dict, CampaignResult]]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def results(self) -> list:
        return [result for _, result in self.points]

    def to_dict(self) -> dict:
        from repro.campaigns.specs import _jsonify
        return {"kind": "sweep",
                "points": [{"overrides": _jsonify(dict(overrides)),
                            "result": result.to_dict()}
                           for overrides, result in self.points]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

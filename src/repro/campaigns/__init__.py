"""Unified campaign API: declarative specs, one ``run()``, checkpoints.

The paper's evaluation is a handful of long Monte-Carlo campaigns over
parameter grids.  This package is the single public way to run any of
them:

>>> from repro import campaigns
>>> spec = campaigns.MemorySpec(distance=9, p=0.01, samples=1000,
...                             region="centered", seed=42)
>>> result = campaigns.run(spec)
>>> result.estimates["per_cycle"]          # doctest: +SKIP

* **Specs** (:mod:`~repro.campaigns.specs`) are frozen dataclasses,
  validated at construction and JSON-round-trippable; ``Sweep`` wraps a
  base spec with parameter axes.
* **run(spec, executor=..., checkpoint=...)**
  (:mod:`~repro.campaigns.runner`) dispatches through a registry to the
  batched shot kernels and returns a uniform :class:`CampaignResult`
  with a provenance block.
* **Executors** (:mod:`~repro.campaigns.executors`) decide where chunks
  run: inline, a process pool, or a distributed transport — the
  reference transport is the fault-tolerant filesystem work queue
  (:mod:`~repro.campaigns.distributed`, served by ``python -m repro
  worker``, chaos-tested via :mod:`~repro.campaigns.faults`).
* **Checkpoints** (:mod:`~repro.campaigns.checkpoint`) record finished
  chunks in JSONL shards keyed by spec hash, so killed campaigns resume
  bit-identically.
* **Result store + refinement** (:mod:`~repro.campaigns.store`,
  :mod:`~repro.campaigns.refine`): finished results persist in a
  content-addressed cache keyed by ``(spec hash, version)``, and
  ``run(..., refine=True)`` seeds a spec's shard from a sibling spec's
  (same campaign, different shot count) so "more shots" resumes
  instead of recomputing — the serving substrate of
  :mod:`repro.service` (``python -m repro serve``).

``python -m repro run spec.json`` drives all of this from the command
line.  See ``docs/API.md`` for the full schema.
"""

from repro.campaigns.checkpoint import (CheckpointError, CheckpointStore,
                                        ShardFile)
from repro.campaigns.distributed import (Worker, WorkerCrashed,
                                         WorkQueueError, WorkQueueExecutor,
                                         serve)
from repro.campaigns.executors import (DistributedExecutor, Executor,
                                       InlineExecutor, ProcessPoolExecutor,
                                       default_executor)
from repro.campaigns.refine import (find_refinement_base, seed_refinement,
                                    shots_field)
from repro.campaigns.results import CampaignResult, Provenance, SweepResult
from repro.campaigns.runner import register_campaign, registered_kinds, run
from repro.campaigns.store import ResultStore
from repro.campaigns.specs import (CampaignSpec, DetectionSpec, EndToEndSpec,
                                   MemorySpec, ScalingSpec, ScenarioSpec,
                                   SpecError, Sweep, ThroughputSpec,
                                   derive_seed, spec_from_dict, spec_from_json,
                                   spec_hash, spec_to_dict, spec_to_json)

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "CheckpointError",
    "CheckpointStore",
    "DetectionSpec",
    "DistributedExecutor",
    "EndToEndSpec",
    "Executor",
    "InlineExecutor",
    "MemorySpec",
    "ProcessPoolExecutor",
    "Provenance",
    "ResultStore",
    "ScalingSpec",
    "ScenarioSpec",
    "ShardFile",
    "SpecError",
    "Sweep",
    "SweepResult",
    "ThroughputSpec",
    "WorkQueueError",
    "WorkQueueExecutor",
    "Worker",
    "WorkerCrashed",
    "default_executor",
    "serve",
    "derive_seed",
    "find_refinement_base",
    "register_campaign",
    "registered_kinds",
    "run",
    "seed_refinement",
    "shots_field",
    "spec_from_dict",
    "spec_from_json",
    "spec_hash",
    "spec_to_dict",
    "spec_to_json",
]

"""Incremental refinement: grow a cached estimate instead of recomputing.

A chunked campaign's outcomes are a pure function of ``(seed,
batch_size, chunk index)`` (:func:`repro.sim.batch.chunk_plan`), and the
plan's per-chunk seeds are *prefix-stable*: ``SeedSequence(seed)``
spawns child ``i`` with spawn key ``(i,)`` whatever the total chunk
count, so two specs that differ only in their shot request share every
full-size chunk of the smaller plan.  That makes "the same campaign,
more shots" resumable rather than recomputable: seed the bigger spec's
checkpoint shard with the sibling shard's compatible chunk records and
let the ordinary resume path (:mod:`repro.campaigns.checkpoint`) do the
rest.  The refined result is bit-identical to an uninterrupted single
run of the larger request per ``(seed, batch_size)`` — the same
invariant class as checkpoint resume and the distributed chaos suite,
and test-enforced the same way (``tests/test_refine.py``,
docs/CONTRACTS.md).

Refinement is *opportunistic*: anything that prevents a provably
bit-identical seed — no sibling shard, a corrupt one, a pinned
``batch_size`` that disagrees with the recorded one — silently degrades
to a fresh run, never to an error.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Optional

from repro.campaigns.checkpoint import (FORMAT, CheckpointError,
                                        CheckpointStore, ShardFile,
                                        chunk_record)
from repro.campaigns.specs import (DetectionSpec, EndToEndSpec, MemorySpec,
                                   ScenarioSpec, SpecError, spec_from_dict,
                                   spec_hash, spec_to_dict)
from repro.sim.batch import chunk_plan

#: Which spec field carries a chunked campaign's shot request — the one
#: axis refinement may vary.  Kinds without a chunked shot engine
#: (scaling, throughput) are deliberately absent.
SHOT_FIELDS: dict[type, str] = {
    MemorySpec: "samples",
    EndToEndSpec: "shots",
    DetectionSpec: "trials",
    ScenarioSpec: "shots",
}

#: The same map keyed by wire kind name (for code holding spec JSON).
SHOT_FIELDS_BY_KIND: dict[str, str] = {
    cls.kind: name for cls, name in SHOT_FIELDS.items()  # type: ignore[attr-defined]
}


def shots_field(spec: object) -> Optional[str]:
    """The spec's shot-request field name, or ``None`` if not refinable."""
    return SHOT_FIELDS.get(type(spec))


@dataclasses.dataclass(frozen=True)
class RefinementBase:
    """A sibling shard a refinement can seed from."""

    spec: object
    path: Path
    batch_size: int
    #: Upper bound on usable records (full chunks shared by both plans).
    aligned_chunks: int


def _read_header(path: Path) -> Optional[dict]:
    """The shard's header line, or ``None`` if unreadable/foreign."""
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline()
        header = json.loads(line)
    except (OSError, ValueError):
        return None
    if not isinstance(header, dict) or header.get("type") != "header" \
            or header.get("format") != FORMAT:
        return None
    return header


def find_refinement_base(store: CheckpointStore,
                         spec: object) -> Optional[RefinementBase]:
    """The best sibling shard for ``spec`` in ``store``, if any.

    A sibling is a shard whose header spec equals ``spec`` in every
    field but the shot request, recorded under a batch size compatible
    with ``spec`` (equal to a pinned ``spec.batch_size``; anything for
    an unpinned spec, which adopts the recorded size on resume).  Among
    siblings the one sharing the most full-size chunks with ``spec``'s
    plan wins; ties break deterministically (larger request, then
    filename).
    """
    field = shots_field(spec)
    if field is None or not store.directory.is_dir():
        return None
    own = f"{spec_hash(spec)}.jsonl"
    best: Optional[tuple[int, int, str, RefinementBase]] = None
    for path in sorted(store.directory.glob("*.jsonl")):
        if path.name == own:
            continue
        header = _read_header(path)
        if header is None:
            continue
        batch = header.get("batch_size")
        if not isinstance(batch, int) or batch < 1:
            continue
        pinned = getattr(spec, "batch_size", None)
        if pinned is not None and batch != pinned:
            continue
        try:
            base = spec_from_dict(header.get("spec"))
        except SpecError:
            continue
        if type(base) is not type(spec):
            continue
        # An unpinned spec adopts whatever batch size the shard records
        # (the ordinary resume rule), so the sibling's own ``batch_size``
        # field is free to differ in that case.
        fields = {field: getattr(spec, field)}
        if pinned is None:
            fields["batch_size"] = None
        if dataclasses.replace(base, **fields) != spec:
            continue
        aligned = min(int(getattr(base, field)),
                      int(getattr(spec, field))) // batch
        if aligned < 1:
            continue
        key = (aligned, int(getattr(base, field)), path.name)
        if best is None or key > best[:3]:
            best = (*key, RefinementBase(spec=base, path=path,
                                         batch_size=batch,
                                         aligned_chunks=aligned))
    return best[3] if best is not None else None


def seed_refinement(store: Optional[CheckpointStore],
                    spec: object) -> int:
    """Seed ``spec``'s shard from its best sibling; returns chunks seeded.

    No-op (returning 0) whenever a provably-identical seed is not
    possible: no store, a non-refinable kind, ``spec``'s own shard
    already exists (plain resume handles it), no sibling, a sibling
    that fails its CRC/consistency checks, or a batch-size conflict.

    The seeded shard is written whole to a temporary file and lands via
    ``os.replace``, so a concurrent reader (the service's partial
    endpoint) never sees a half-seeded shard, and every copied record
    is re-encoded through :func:`repro.campaigns.checkpoint.chunk_record`
    — one wire format, one CRC.
    """
    if store is None:
        return 0
    field = shots_field(spec)
    if field is None:
        return 0
    target = store.shard(spec)
    if target.path.exists():
        return 0
    base = find_refinement_base(store, spec)
    if base is None:
        return 0
    shard = ShardFile(base.path, base.spec)
    try:
        done = shard.load()
    except CheckpointError:
        return 0  # opportunistic: a damaged sibling just means no seed
    batch = shard.recorded_batch_size
    if batch is None or batch < 1:
        return 0
    pinned = getattr(spec, "batch_size", None)
    if pinned is not None and batch != pinned:
        return 0
    plan = chunk_plan(int(getattr(spec, field)), batch,
                      getattr(spec, "seed"))
    usable = [(index, done[index]) for index in sorted(done)
              if index < len(plan) and len(done[index]) == plan[index][0]]
    if not usable:
        return 0

    from repro import config
    header = {"type": "header", "format": FORMAT,
              "spec_hash": target.spec_hash,
              "kind": getattr(spec, "kind", "?"),
              "batch_size": batch,
              "spec": spec_to_dict(spec)}
    target.path.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.path.with_name(f".{target.path.name}.tmp-{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for index, outcome in usable:
            fh.write(json.dumps(chunk_record(index, outcome)) + "\n")
        fh.flush()
        if config.checkpoint_fsync():
            os.fsync(fh.fileno())
    os.replace(tmp, target.path)
    return len(usable)

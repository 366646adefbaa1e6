"""The service's on-disk state and the live-shard partial reader.

One ``STORE_DIR`` holds everything a server needs, all of it in
formats other layers already own:

.. code-block:: text

    STORE_DIR/
      results/<spec_hash>-<version>.json   # ResultStore records
      checkpoints/<spec_hash>.jsonl        # checkpoint shards

The result cache is :class:`repro.campaigns.store.ResultStore` (keyed
``(spec_hash, repro.__version__)``); the checkpoint directory is a
plain :class:`repro.campaigns.checkpoint.CheckpointStore`, which is
also where incremental refinement finds sibling shards.  Because both
are ordinary campaign-layer stores, a server's STORE_DIR is fully
usable offline: ``python -m repro run SPEC --checkpoint
STORE_DIR/checkpoints`` resumes the very shards the server wrote.

:func:`read_partial` is the serving half of "stream partial estimates
while a campaign runs": it reads a shard file *while the campaign's
writer appends to it*, so unlike
:meth:`~repro.campaigns.checkpoint.ShardFile.load` it treats any
undecodable tail as in-flight (stop reading, serve what's complete)
rather than as corruption.  Chunks only ever append, so successive
reads report monotonically non-decreasing shot counts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.campaigns.checkpoint import (FORMAT, CheckpointError,
                                        CheckpointStore, decode_chunk)
from repro.campaigns.refine import SHOT_FIELDS_BY_KIND
from repro.campaigns.store import ResultStore
from repro.sim.batch import (DetectionShotKernel, EndToEndShotKernel,
                             MemoryShotKernel)
from repro.sim.montecarlo import wilson_interval

#: Outcome column streaming each kind's headline estimate — the same
#: ``success_column`` the early-stop predicate watches, so the partial
#: endpoint reports exactly the quantity the campaign is converging.
SUCCESS_COLUMNS: dict[str, int] = {
    "memory": MemoryShotKernel.success_column,
    "endtoend": EndToEndShotKernel.success_column,
    "detection": DetectionShotKernel.success_column,
}


def _success_column(kind: object, spec_doc: object) -> int:
    """The streamed-estimate column for a shard's kind.

    Scenario campaigns pick their engine per spec, so the column comes
    from the spec doc's ``mode`` — the same shot engine
    :func:`repro.campaigns.runner.shot_engine` would build.
    """
    if kind == "scenario":
        mode = (spec_doc.get("mode", "memory")
                if isinstance(spec_doc, dict) else "memory")
        return SUCCESS_COLUMNS.get(mode, 0) if isinstance(mode, str) else 0
    return SUCCESS_COLUMNS.get(kind, 0) if isinstance(kind, str) else 0


class ServiceStore:
    """The STORE_DIR layout: result cache + checkpoint shards."""

    def __init__(self, root: Union[str, Path],
                 version: Optional[str] = None):
        self.root = Path(root)
        self.results = ResultStore(self.root / "results", version=version)
        self.checkpoints = CheckpointStore(self.root / "checkpoints")

    def shard_path(self, spec_hash: str) -> Path:
        """The checkpoint shard a running campaign appends to."""
        return self.checkpoints.directory / f"{spec_hash}.jsonl"


def read_partial(path: Union[str, Path]) -> Optional[dict]:
    """Tolerantly read a (possibly live) shard into a partial estimate.

    Returns ``None`` when there is no usable shard (missing file,
    unreadable/foreign header).  Otherwise a dict with the shard's
    ``kind``/``batch_size``, progress counters (``chunks_done``,
    ``shots_done``, ``shots_requested``), the streamed success count,
    and its Wilson interval — the server-side mirror of the early-stop
    estimate.  A line that fails to parse or fails its CRC ends the
    read (the writer is mid-append); everything before it is complete
    by the shard's append-before-next-chunk discipline.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return None
    try:
        header = json.loads(lines[0])
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("type") != "header" \
            or header.get("format") != FORMAT:
        return None
    kind = header.get("kind")
    spec_doc = header.get("spec")
    column = _success_column(kind, spec_doc)

    successes = trials = chunks = 0
    for line in lines[1:]:
        try:
            record = json.loads(line)
            _, outcome = decode_chunk(record, "live shard record")
        except (ValueError, CheckpointError):
            break  # in-flight tail: serve what is durably complete
        col = outcome if outcome.ndim == 1 else outcome[:, column]
        successes += int(np.count_nonzero(col))
        trials += len(outcome)
        chunks += 1

    requested: Optional[int] = None
    if isinstance(spec_doc, dict) and isinstance(kind, str):
        field = SHOT_FIELDS_BY_KIND.get(kind)
        if field is not None and isinstance(spec_doc.get(field), int):
            requested = spec_doc[field]

    if trials:
        lo, hi = wilson_interval(successes, trials)
        estimate: Optional[float] = successes / trials
        wilson_low: Optional[float] = lo
        wilson_high: Optional[float] = hi
    else:
        estimate = wilson_low = wilson_high = None
    return {
        "kind": kind,
        "batch_size": header.get("batch_size"),
        "chunks_done": chunks,
        "shots_done": trials,
        "shots_requested": requested,
        "successes": successes,
        "estimate": estimate,
        "wilson_low": wilson_low,
        "wilson_high": wilson_high,
    }

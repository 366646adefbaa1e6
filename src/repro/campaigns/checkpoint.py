"""Chunk-granular checkpoint/resume for long campaigns.

A checkpoint is a directory of JSONL *shard files*, one per spec, named
by the spec's hash (``<spec_hash>.jsonl``).  The first line is a header
carrying the full spec JSON; every later line is one finished chunk:
its index in the campaign's chunk plan, the outcome array (dtype, shape
and exact values — float64 round-trips losslessly through ``repr``),
and a CRC-32 of the payload.  Records written by older releases also
carry a ``cache`` field of matching-cache counters; it is ignored.

Because a chunk's outcome is a pure function of ``(seed, batch_size,
chunk index)`` (the :func:`repro.sim.batch.chunk_plan` contract), a
killed campaign restarts from its shard file and produces outcomes
bit-identical to an uninterrupted run: restored chunks are ingested in
plan order, interleaved with freshly computed ones, through the same
streaming-estimate and early-stop code path.

Failure semantics are deliberately strict: a *truncated final line* is
the signature of a killed writer and is silently dropped (the chunk
recomputes), but any other malformation — garbage mid-file, a CRC
mismatch, a record for the wrong spec, duplicate chunk indices —
raises :class:`CheckpointError` rather than silently recomputing, since
it means the directory holds something other than what this campaign
wrote.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.campaigns.specs import spec_hash, spec_to_dict

#: Shard format version (bump on incompatible record changes).
FORMAT = 1

#: Outcome dtypes a shard may carry (guards eval-free reconstruction).
_DTYPES = ("int8", "int64", "float64")


class CheckpointError(RuntimeError):
    """A shard file exists but cannot be trusted."""


def _payload_crc(dtype: str, shape: list, data: list) -> int:
    doc = json.dumps([dtype, shape, data], separators=(",", ":"))
    return zlib.crc32(doc.encode("utf-8"))


def chunk_record(index: int, outcome: np.ndarray) -> dict:
    """One finished chunk as its CRC-stamped wire record.

    This is *the* chunk wire format: shard files append these records,
    and the distributed work queue (:mod:`repro.campaigns.distributed`)
    ships the identical record as a worker's result payload — one
    format, one CRC, one parser (:func:`decode_chunk`).
    """
    dtype = str(outcome.dtype)
    if dtype not in _DTYPES:
        raise CheckpointError(
            f"cannot checkpoint outcomes of dtype {dtype!r}")
    shape = list(outcome.shape)
    data = outcome.tolist()
    return {
        "type": "chunk",
        "index": int(index),
        "shots": int(len(outcome)),
        "dtype": dtype,
        "shape": shape,
        "data": data,
        "crc": _payload_crc(dtype, shape, data),
    }


def decode_chunk(record, where: str) -> tuple[int, np.ndarray]:
    """Validate a chunk wire record back into ``(index, outcomes)``.

    ``where`` names the record's origin for error messages (a shard
    line, a queue result file).  Raises :class:`CheckpointError` on any
    malformation — wrong type, missing fields, CRC mismatch, payload
    not matching its declared shape/dtype.  Fields outside the payload
    (an older record's ``cache`` counters) are ignored.
    """
    if not isinstance(record, dict) or record.get("type") != "chunk":
        raise CheckpointError(f"{where} is not a chunk record")
    try:
        index = record["index"]
        dtype, shape = record["dtype"], record["shape"]
        data, crc = record["data"], record["crc"]
    except KeyError as exc:
        raise CheckpointError(f"{where} is missing field {exc}") from exc
    if not isinstance(index, int) or index < 0:
        raise CheckpointError(f"{where} has a bad chunk index")
    if dtype not in _DTYPES:
        raise CheckpointError(f"{where} has unsupported dtype {dtype!r}")
    if crc != _payload_crc(dtype, shape, data):
        raise CheckpointError(
            f"{where} failed its CRC — the record is corrupted; delete "
            "it to recompute from scratch")
    try:
        outcome = np.asarray(data, dtype=dtype).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"{where} payload does not match its declared shape/dtype "
            f"({exc})") from exc
    return index, outcome


class ShardFile:
    """One spec's chunk records (``<dir>/<spec_hash>.jsonl``)."""

    def __init__(self, path: Union[str, Path], spec):
        self.path = Path(path)
        self.spec = spec
        self.spec_hash = spec_hash(spec)
        #: Effective chunk size the shard was written under (from the
        #: header, set by :meth:`load`).  Specs with ``batch_size=None``
        #: resolve it per executor, so a resume must adopt the recorded
        #: value to keep the chunk plan — and the outcomes — identical.
        self.recorded_batch_size: Optional[int] = None

    # ------------------------------------------------------------------
    def load(self) -> dict[int, np.ndarray]:
        """Restore finished chunks: ``{index: outcomes}``.

        Missing file means a fresh campaign (empty dict).  A truncated
        final line is dropped; everything else malformed raises
        :class:`CheckpointError`.
        """
        if not self.path.exists():
            return {}
        raw = self.path.read_text(encoding="utf-8")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return {}
        records = []
        for pos, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                if pos == len(lines) - 1:
                    break  # killed mid-write: recompute that chunk
                raise CheckpointError(
                    f"{self.path}: line {pos + 1} is not valid JSON "
                    f"({exc}); refusing to resume from a corrupted shard"
                ) from exc
        if not records:
            return {}
        self._check_header(records[0])
        chunks: dict[int, np.ndarray] = {}
        for pos, record in enumerate(records[1:], start=2):
            index, outcome = self._parse_chunk(record, pos)
            if index in chunks:
                raise CheckpointError(
                    f"{self.path}: duplicate record for chunk {index}")
            chunks[index] = outcome
        return chunks

    def _check_header(self, header) -> None:
        if not isinstance(header, dict) or header.get("type") != "header":
            raise CheckpointError(
                f"{self.path}: first line is not a shard header")
        if header.get("format") != FORMAT:
            raise CheckpointError(
                f"{self.path}: unsupported shard format "
                f"{header.get('format')!r} (expected {FORMAT})")
        if header.get("spec_hash") != self.spec_hash:
            raise CheckpointError(
                f"{self.path}: shard belongs to spec "
                f"{header.get('spec_hash')!r}, not {self.spec_hash!r}")
        batch_size = header.get("batch_size")
        if batch_size is not None and (not isinstance(batch_size, int)
                                       or batch_size < 1):
            raise CheckpointError(
                f"{self.path}: header has a bad batch_size "
                f"{batch_size!r}")
        self.recorded_batch_size = batch_size

    def _parse_chunk(self, record, pos: int):
        return decode_chunk(record, f"{self.path}: line {pos}")

    # ------------------------------------------------------------------
    def _drop_partial_tail(self) -> None:
        """Truncate a killed writer's partial final line before appending.

        ``load()`` ignores a truncated last line, but appending onto it
        would weld the new record to the garbage and move the damage
        mid-file — bricking the shard on the *next* resume.  Cutting
        back to the last complete newline keeps the recompute-the-last-
        chunk semantics stable across any number of kills.
        """
        if not self.path.exists() or self.path.stat().st_size == 0:
            return
        with open(self.path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) == b"\n":
                return
            # Scan back (in one bounded read) for the last newline.
            fh.seek(0)
            data = fh.read(size)
            keep = data.rfind(b"\n") + 1  # 0 when no newline at all
            fh.truncate(keep)

    def append(self, index: int, outcome: np.ndarray,
               batch_size: Optional[int] = None) -> None:
        """Durably record one finished chunk (header written lazily).

        ``batch_size`` is the campaign's *effective* chunk size; it goes
        into the header so a later resume rebuilds the exact same chunk
        plan even under a different executor.

        Every record is flushed before returning; whether it is also
        fsynced is the ``REPRO_CHECKPOINT_FSYNC`` knob
        (:func:`repro.config.checkpoint_fsync`, on by default).
        """
        from repro import config
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._drop_partial_tail()
        is_new = not self.path.exists() or self.path.stat().st_size == 0
        record = chunk_record(index, outcome)
        with open(self.path, "a", encoding="utf-8") as fh:
            if is_new:
                header = {"type": "header", "format": FORMAT,
                          "spec_hash": self.spec_hash,
                          "kind": getattr(self.spec, "kind", "?"),
                          "batch_size": batch_size,
                          "spec": spec_to_dict(self.spec)}
                fh.write(json.dumps(header) + "\n")
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            if config.checkpoint_fsync():
                os.fsync(fh.fileno())


class CheckpointStore:
    """A directory of shard files, one per spec hash."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def shard(self, spec) -> ShardFile:
        return ShardFile(self.directory / f"{spec_hash(spec)}.jsonl",
                         spec)


def resolve_store(checkpoint) -> Optional[CheckpointStore]:
    """Coerce the public ``checkpoint=`` argument to a store.

    Accepts ``None``, a directory path, or a ready
    :class:`CheckpointStore`.
    """
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    return CheckpointStore(checkpoint)

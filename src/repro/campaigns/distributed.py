"""Reference distributed transport: a fault-tolerant filesystem work queue.

The multi-host story of :mod:`repro.campaigns` rests on three facts the
engine already guarantees: a chunk's outcome is a pure function of
``(seed, batch_size, chunk index)`` (:func:`repro.sim.batch.chunk_plan`),
a kernel is rebuilt from spec JSON alone
(:func:`repro.campaigns.runner.shot_engine`), and a finished chunk is one
CRC-stamped wire record (:func:`repro.campaigns.checkpoint.chunk_record`).
This module adds the part that survives the real world — workers that
crash, stall, get preempted, or write garbage:

* :class:`WorkQueueExecutor` — the campaign-side supervisor.  Chunks are
  published as *task files*; finished chunks come back as CRC-checked
  *result records*; the robustness envelope is lease-expiry re-dispatch,
  per-attempt timeouts, retry with deterministic (seeded) exponential
  backoff + jitter, poison-chunk quarantine after ``max_attempts``, and
  a graceful-degradation drain that finishes remaining chunks inline
  when the worker pool vanishes — a campaign always completes.
* :class:`Worker` / :func:`serve` — the worker side, also reachable as
  ``python -m repro worker <queue_dir>``.  Workers claim tasks by
  atomically renaming them into the lease area (`os.replace`; exactly
  one claimant wins), heartbeat while alive, and deliver results with
  write-to-temp + atomic rename.

Queue directory layout (all writes atomic; every scan sorted)::

    <queue>/tasks/<spec_hash>.c<index>.a<attempt>.json   claimable work
    <queue>/leases/<task name>.<worker id>               claimed work
    <queue>/results/<spec_hash>.c<index>.json            chunk wire records
    <queue>/quarantine/<task name>                       poisoned chunks
    <queue>/workers/<worker id>.json                     heartbeats
    <queue>/stop                                         drain sentinel

**Delivery semantics are at-least-once; the merge is idempotent by chunk
index.**  A re-dispatched chunk may complete twice (a stalled worker
finishing late plus its replacement), but any *valid* record for a chunk
index is *the* record — placement independence makes recomputation
byte-identical — so the supervisor keeps the first valid record per
index and counts the rest as duplicates.  That invariant is chaos-tested
in ``tests/test_distributed.py`` (see docs/CONTRACTS.md).

Timestamps (heartbeats, lease ages, backoff deadlines) come from an
injectable ``clock`` — ``time.perf_counter`` by default, which is
system-wide on the platforms the reference transport targets (one
filesystem implies one host or one coherent clock domain); the
deterministic chaos harness (:mod:`repro.campaigns.faults`) swaps in a
virtual clock.  Clock values steer scheduling only — they never reach
outcome payloads, so results stay bit-reproducible (reprolint RL005
covers this module).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from repro.campaigns.checkpoint import (CheckpointError, chunk_record,
                                        decode_chunk)
from repro.campaigns.executors import DistributedExecutor
from repro.campaigns.specs import spec_from_dict, spec_hash, spec_to_dict
from repro.sim.batch import chunk_plan

#: Task-file format version (bump on incompatible changes).
TASK_FORMAT = 1

#: A monotonically increasing seconds source.
Clock = Callable[[], float]


class WorkQueueError(RuntimeError):
    """The work queue cannot make progress (and inline fallback is off)."""


class WorkerCrashed(RuntimeError):
    """A worker died mid-task (raised by injected faults; the abandoned
    lease is recovered by the supervisor's expiry sweep)."""


def _atomic_write_text(path: Path, text: str, fsync: bool = False) -> None:
    """Publish ``text`` at ``path`` via write-to-temp + atomic rename."""
    tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_write_json(path: Path, doc: dict, fsync: bool = False) -> None:
    _atomic_write_text(path, json.dumps(doc) + "\n", fsync=fsync)


def backoff_delay(spec_digest: str, index: int, attempt: int,
                  base_s: float, cap_s: float) -> float:
    """Deterministic exponential backoff with seeded jitter.

    Attempt ``n`` (n >= 2) waits ``min(cap, base * 2**(n-2))`` scaled by
    a jitter factor in ``[0.5, 1.5)`` derived from SHA-256 of
    ``(spec hash, chunk index, attempt)`` — no wall-clock entropy, so a
    replayed fault schedule re-dispatches at identical offsets.
    """
    raw = min(cap_s, base_s * (2.0 ** max(0, attempt - 2)))
    digest = hashlib.sha256(
        f"{spec_digest}:{index}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return raw * jitter


class WorkQueue:
    """Path bookkeeping shared by the supervisor and the workers."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.tasks = self.root / "tasks"
        self.leases = self.root / "leases"
        self.results = self.root / "results"
        self.quarantine = self.root / "quarantine"
        self.workers = self.root / "workers"
        self.stop_file = self.root / "stop"

    def ensure(self) -> None:
        for directory in (self.tasks, self.leases, self.results,
                          self.quarantine, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    def stopped(self) -> bool:
        return self.stop_file.exists()

    def request_stop(self) -> None:
        _atomic_write_text(self.stop_file, "stop\n")

    # -- file-name grammar -------------------------------------------------
    @staticmethod
    def task_name(digest: str, index: int, attempt: int) -> str:
        return f"{digest}.c{index:06d}.a{attempt:03d}.json"

    @staticmethod
    def parse_task_name(name: str) -> tuple[str, int, int]:
        """``(spec_hash, index, attempt)`` from a task/lease stem."""
        stem, _, _ = name.partition(".json")
        digest, c_part, a_part = stem.split(".")
        if not (c_part.startswith("c") and a_part.startswith("a")):
            raise ValueError(f"not a task name: {name!r}")
        return digest, int(c_part[1:]), int(a_part[1:])

    @staticmethod
    def result_name(digest: str, index: int) -> str:
        return f"{digest}.c{index:06d}.json"

    @staticmethod
    def parse_result_name(name: str) -> tuple[str, int]:
        """``(spec_hash, index)`` from a result file name."""
        stem, _, _ = name.partition(".json")
        digest, _, c_part = stem.rpartition(".")
        if not digest or not c_part.startswith("c"):
            raise ValueError(f"not a result name: {name!r}")
        return digest, int(c_part[1:])

    def result_path(self, digest: str, index: int) -> Path:
        return self.results / self.result_name(digest, index)

    def task_files(self, digest: Optional[str] = None) -> list[Path]:
        pattern = f"{digest}.c*.json" if digest else "*.json"
        return sorted(self.tasks.glob(pattern))

    def lease_files(self, digest: Optional[str] = None) -> list[Path]:
        pattern = f"{digest}.c*" if digest else "*"
        return sorted(self.leases.glob(pattern))

    def result_files(self, digest: Optional[str] = None) -> list[Path]:
        pattern = f"{digest}.c*.json" if digest else "*.json"
        return sorted(self.results.glob(pattern))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class Worker:
    """One queue worker: claim a task, rebuild the kernel, deliver.

    ``step()`` performs one unit of work and is the only entry point the
    serving loop (:func:`serve`) and the deterministic chaos harness
    (:class:`repro.campaigns.faults.WorkerPoolSim`) need.  Work is a
    resumable three-phase machine (claimed → compute → deliver) so an
    injected stall can yield control mid-chunk exactly where a
    preempted real worker would lose it.

    Kernels (and their decoders) are built once per
    ``(spec hash, batch size)`` and reused across chunks, mirroring the
    process-pool workers.  The chunk seed is re-derived on this side via
    :func:`repro.sim.batch.chunk_plan` — the placement-independence
    contract — and the result is the same CRC-stamped record a
    checkpoint shard would hold.
    """

    def __init__(self, queue: Union[str, Path],
                 worker_id: Optional[str] = None, *,
                 clock: Optional[Clock] = None,
                 faults: Optional[Any] = None):
        self.queue = WorkQueue(queue)
        self.queue.ensure()
        self.worker_id = worker_id if worker_id is not None \
            else f"w{os.getpid()}"
        if not self.worker_id or any(c in self.worker_id for c in "./\\"):
            raise ValueError(f"bad worker id {self.worker_id!r}")
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self.faults = faults
        self.chunks_done = 0
        self._engines: dict[tuple[str, int], tuple] = {}
        self._resume: Optional[tuple] = None
        self._stall_until: Optional[float] = None
        self._redeliver: Optional[tuple[Path, str]] = None

    @property
    def busy(self) -> bool:
        """Mid-chunk (stalled); a busy real worker cannot heartbeat."""
        return self._resume is not None

    def heartbeat(self) -> None:
        """Publish liveness (skipped by an injected ``heartbeat`` fault)."""
        if self.faults is not None:
            event = self.faults.fire("heartbeat", chunk=None, attempt=None,
                                     worker=self.worker_id)
            if event is not None and event.action == "skip":
                return
        _atomic_write_json(self.queue.workers / f"{self.worker_id}.json",
                           {"worker": self.worker_id,
                            "t": float(self.clock())})

    def step(self) -> bool:
        """One unit of queue work; ``False`` when the queue had none."""
        if self._stall_until is not None:
            if self.clock() < self._stall_until:
                return True  # still wedged mid-chunk
            self._stall_until = None
        if self._redeliver is not None:
            path, text = self._redeliver
            self._redeliver = None
            _atomic_write_text(path, text)
            return True
        if self._resume is not None:
            phase, lease, doc, payload = self._resume
            self._resume = None
        else:
            lease = self._claim()
            if lease is None:
                return False
            try:
                doc = json.loads(lease.read_text(encoding="utf-8"))
            except ValueError:
                # A torn task file cannot happen under the atomic-write
                # protocol; treat it as poison and leave it leased so
                # the supervisor's expiry sweep re-dispatches.
                return True
            phase, payload = "claimed", None
        while True:
            if phase == "claimed":
                if self._fault("claim", doc, lease, None, "compute"):
                    return True
                phase = "compute"
            elif phase == "compute":
                payload = self._compute(doc)
                if self._fault("computed", doc, lease, payload, "deliver"):
                    return True
                phase = "deliver"
            else:
                self._deliver(doc, lease, payload)
                self.chunks_done += 1
                return True

    # ------------------------------------------------------------------
    def _claim(self) -> Optional[Path]:
        """Atomically claim the first available task (rename wins)."""
        for task in self.queue.task_files():
            lease = self.queue.leases / f"{task.name}.{self.worker_id}"
            try:
                os.replace(task, lease)
            except FileNotFoundError:
                continue  # lost the race to another worker
            return lease
        return None

    def _fault(self, point: str, doc: dict, lease: Path,
               payload: Optional[np.ndarray], next_phase: str) -> bool:
        """Fire an injection point; True when the step must yield."""
        if self.faults is None:
            return False
        event = self.faults.fire(point, chunk=doc["index"],
                                 attempt=doc["attempt"],
                                 worker=self.worker_id)
        if event is None:
            return False
        if event.action == "crash":
            raise WorkerCrashed(
                f"worker {self.worker_id} crashed at {point} "
                f"(chunk {doc['index']}, injected)")
        if event.action == "stall":
            if hasattr(self.clock, "advance"):
                # Virtual time: wedge mid-chunk until the clock (driven
                # by the harness) passes the stall, exactly like a
                # preempted worker — no heartbeats, lease going stale,
                # work resuming late.
                self._resume = (next_phase, lease, doc, payload)
                self._stall_until = self.clock() + event.seconds
                return True
            time.sleep(event.seconds)
            return False
        raise ValueError(
            f"fault action {event.action!r} is not valid at {point!r}")

    def _compute(self, doc: dict) -> np.ndarray:
        if doc.get("format") != TASK_FORMAT:
            raise CheckpointError(
                f"unsupported task format {doc.get('format')!r}")
        digest, batch_size = doc["spec_hash"], int(doc["batch_size"])
        engine = self._engines.get((digest, batch_size))
        if engine is None:
            from repro.campaigns.runner import shot_engine
            spec = spec_from_dict(doc["spec"])
            if spec_hash(spec) != digest:
                raise CheckpointError(
                    f"task {doc['index']} spec hashes to "
                    f"{spec_hash(spec)}, not {digest}")
            kernel, shots, _ = shot_engine(spec)
            kernel.prepare()
            plan = chunk_plan(shots, batch_size, spec.seed)
            engine = (kernel, plan)
            self._engines[(digest, batch_size)] = engine
        kernel, plan = engine
        index = int(doc["index"])
        if not 0 <= index < len(plan) or plan[index][0] != doc["size"]:
            raise CheckpointError(
                f"task {index} does not fit the chunk plan "
                f"(size {doc['size']} vs plan)")
        size, child = plan[index]
        return kernel.run_batch_packed(size, np.random.default_rng(child))

    def _deliver(self, doc: dict, lease: Path, outcome: np.ndarray) -> None:
        record = chunk_record(doc["index"], outcome)
        record["spec_hash"] = doc["spec_hash"]
        record["attempt"] = doc["attempt"]
        record["worker"] = self.worker_id
        text = json.dumps(record) + "\n"
        path = self.queue.result_path(doc["spec_hash"], doc["index"])
        event = None
        if self.faults is not None:
            event = self.faults.fire("write", chunk=doc["index"],
                                     attempt=doc["attempt"],
                                     worker=self.worker_id)
        if event is not None and event.action == "crash":
            raise WorkerCrashed(
                f"worker {self.worker_id} crashed writing chunk "
                f"{doc['index']} (injected)")
        if event is not None and event.action == "torn":
            # A torn write lands *directly* at the final path, bypassing
            # the atomic-rename protocol — the failure mode the CRC and
            # the supervisor's recovery exist for.
            cut = max(1, int(len(text) * event.fraction))
            path.write_text(text[:cut], encoding="utf-8")
        elif event is not None and event.action == "corrupt":
            bad = dict(record)
            bad["crc"] = int(bad["crc"]) + 1
            _atomic_write_text(path, json.dumps(bad) + "\n")
        else:
            from repro import config
            _atomic_write_text(path, text, fsync=config.checkpoint_fsync())
            if event is not None and event.action == "duplicate":
                self._redeliver = (path, text)
        lease.unlink(missing_ok=True)


def serve(queue_dir: Union[str, Path], worker_id: Optional[str] = None, *,
          poll_s: float = 0.2, max_chunks: Optional[int] = None,
          idle_exit_s: Optional[float] = None,
          faults: Optional[Any] = None,
          clock: Optional[Clock] = None) -> int:
    """Serve a queue until stopped; returns the number of chunks done.

    The loop behind ``python -m repro worker``: heartbeat, claim, run,
    deliver; exit on the queue's ``stop`` sentinel, after ``max_chunks``
    chunks, or after ``idle_exit_s`` seconds without work.
    """
    worker = Worker(queue_dir, worker_id, clock=clock, faults=faults)
    idle_s = 0.0
    while not worker.queue.stopped():
        worker.heartbeat()
        if worker.step():
            idle_s = 0.0
            if max_chunks is not None and worker.chunks_done >= max_chunks:
                break
            continue
        if idle_exit_s is not None and idle_s >= idle_exit_s:
            break
        time.sleep(poll_s)
        idle_s += poll_s
    return worker.chunks_done


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Binding:
    """The campaign context ``bind()`` hands to ``run_chunks``."""

    spec: Any
    spec_dict: dict
    digest: str
    batch_size: int
    shots: int
    indices: list


class WorkQueueExecutor(DistributedExecutor):
    """Supervise a campaign over the filesystem work queue.

    Dispatch is at-least-once and the merge is idempotent by chunk
    index; see the module docstring for the full failure semantics.
    Robustness knobs:

    ``lease_s``
        A claimed chunk whose worker has neither heartbeat nor finished
        for this long is considered lost and re-dispatched.  Must
        comfortably exceed one chunk's runtime.
    ``attempt_timeout_s``
        Hard per-attempt ceiling (default ``8 * lease_s``): even a
        heartbeating worker loses the lease after this long (the
        stuck-but-alive straggler).
    ``max_attempts``
        Attempts (initial + re-dispatches) before a chunk is declared
        poison, quarantined away from workers, and computed inline.
    ``backoff_base_s`` / ``backoff_cap_s``
        Deterministic exponential backoff + jitter between attempts
        (:func:`backoff_delay`).
    ``worker_grace_s``
        How long to wait for a first worker before declaring the pool
        vanished.
    ``inline_fallback``
        When the pool vanishes (never appeared, or every worker went
        stale with no live leases), drain the remaining chunks inline
        so the campaign completes; ``False`` raises
        :class:`WorkQueueError` instead.
    ``clock`` / ``idle_hook``
        Deterministic-test seams: the time source, and what to do when
        a poll found nothing (default: sleep ``poll_s``).  The chaos
        harness passes a virtual clock and pumps simulated workers from
        the idle hook.
    """

    name = "work-queue"

    def __init__(self, queue_dir: Union[str, Path], *,
                 lease_s: float = 30.0,
                 poll_s: float = 0.05,
                 max_attempts: int = 3,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 4.0,
                 worker_grace_s: float = 5.0,
                 attempt_timeout_s: Optional[float] = None,
                 inline_fallback: bool = True,
                 clock: Optional[Clock] = None,
                 idle_hook: Optional[Callable[[], None]] = None):
        if lease_s <= 0 or poll_s <= 0:
            raise ValueError("lease_s and poll_s must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if backoff_base_s < 0 or backoff_cap_s < backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")
        self.queue = WorkQueue(queue_dir)
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.worker_grace_s = float(worker_grace_s)
        self.attempt_timeout_s = (float(attempt_timeout_s)
                                  if attempt_timeout_s is not None
                                  else 8.0 * float(lease_s))
        self.inline_fallback = bool(inline_fallback)
        self.clock: Clock = clock if clock is not None else time.perf_counter
        self.idle_hook = idle_hook
        self._bound: Optional[_Binding] = None
        self._accounting: Optional[dict] = None

    def describe(self) -> str:
        return f"{self.name}({self.queue.root})"

    def stop_workers(self) -> None:
        """Ask every worker serving this queue to exit."""
        self.queue.request_stop()

    def bind(self, spec, *, batch_size: int, shots: int,
             indices: list) -> None:
        self._bound = _Binding(spec=spec, spec_dict=spec_to_dict(spec),
                               digest=spec_hash(spec),
                               batch_size=int(batch_size), shots=int(shots),
                               indices=list(indices))

    def accounting(self) -> Optional[dict]:
        return dict(self._accounting) if self._accounting else None

    def run_chunks(self, kernel, packing: str,
                   tasks: list) -> Iterator[tuple[np.ndarray, tuple]]:
        bound, self._bound = self._bound, None
        if bound is None:
            raise WorkQueueError(
                "WorkQueueExecutor needs the campaign context: run it "
                "through repro.campaigns.run (which calls bind()) rather "
                "than invoking run_chunks directly")
        if len(bound.indices) != len(tasks):
            raise WorkQueueError(
                f"bind() named {len(bound.indices)} chunks but "
                f"run_chunks received {len(tasks)}")
        supervisor = _Supervisor(self, kernel, tasks, bound)
        self._accounting = supervisor.acct
        return supervisor.run()


class _Supervisor:
    """One campaign's dispatch/collect loop over the queue."""

    def __init__(self, executor: WorkQueueExecutor, kernel, tasks: list,
                 bound: _Binding):
        self.ex = executor
        self.queue = executor.queue
        self.clock = executor.clock
        self.kernel = kernel
        self.bound = bound
        self.task_by_index = dict(zip(bound.indices, tasks, strict=True))
        self.needed = frozenset(bound.indices)
        self.acct: dict = {
            "dispatched": 0, "re_dispatched": 0, "retried": 0,
            "expired_leases": 0, "corrupt_records": 0, "duplicates": 0,
            "quarantined": 0, "drained_inline": 0, "workers_seen": 0,
            "dead_workers": 0, "max_attempt": 0,
        }
        self.ready: dict[int, np.ndarray] = {}
        self.consumed: set[int] = set()
        self.attempt: dict[int, int] = {}
        self.due: dict[int, tuple[float, int]] = {}
        self.lease_seen: dict[str, float] = {}
        self.worker_hb: dict[str, float] = {}
        self.drained = False
        self._saw_worker = False
        self.started = self.clock()

    # -- the loop ------------------------------------------------------
    def run(self) -> Iterator[tuple[np.ndarray, tuple]]:
        try:
            self.queue.ensure()
            self._scan_results()  # adopt records a killed supervisor left
            for index in self.bound.indices:
                if index not in self.ready:
                    self._dispatch(index, attempt=1)
            for index in self.bound.indices:
                while index not in self.ready:
                    progressed = self._scan_results()
                    self._reconcile()
                    if index not in self.ready and not progressed:
                        self._idle()
                self.consumed.add(index)
                yield self.ready.pop(index), ()
        finally:
            self._cleanup()

    def _idle(self) -> None:
        if self.ex.idle_hook is not None:
            self.ex.idle_hook()
        else:
            time.sleep(self.ex.poll_s)

    # -- dispatch ------------------------------------------------------
    def _dispatch(self, index: int, attempt: int) -> None:
        self.attempt[index] = attempt
        self.acct["dispatched"] += 1
        self.acct["max_attempt"] = max(self.acct["max_attempt"], attempt)
        size, _ = self.task_by_index[index]
        doc = {"format": TASK_FORMAT, "type": "task",
               "spec_hash": self.bound.digest,
               "spec": self.bound.spec_dict,
               "index": int(index), "size": int(size),
               "batch_size": self.bound.batch_size,
               "attempt": int(attempt)}
        name = self.queue.task_name(self.bound.digest, index, attempt)
        _atomic_write_json(self.queue.tasks / name, doc)

    def _note_lost(self, index: int, counter: str) -> None:
        """A chunk attempt failed; schedule the next one (or quarantine)."""
        if self.drained or index in self.ready or index in self.consumed:
            return
        if index in self.due:
            return  # already rescheduled
        self.acct[counter] += 1
        next_attempt = self.attempt.get(index, 0) + 1
        if next_attempt > self.ex.max_attempts:
            self._quarantine(index)
            return
        delay = backoff_delay(self.bound.digest, index, next_attempt,
                              self.ex.backoff_base_s, self.ex.backoff_cap_s)
        self.due[index] = (self.clock() + delay, next_attempt)

    def _quarantine(self, index: int) -> None:
        """A poison chunk: isolate it from workers, compute it inline."""
        self.acct["quarantined"] += 1
        self._remove_task_files(index)
        attempt = self.attempt.get(index, 0)
        size, _ = self.task_by_index[index]
        name = self.queue.task_name(self.bound.digest, index, attempt)
        _atomic_write_json(
            self.queue.quarantine / name,
            {"format": TASK_FORMAT, "type": "quarantine",
             "spec_hash": self.bound.digest, "index": int(index),
             "size": int(size), "attempts": int(attempt)})
        self._run_inline(index)

    # -- collect -------------------------------------------------------
    def _scan_results(self) -> bool:
        progressed = False
        for path in self.queue.result_files(self.bound.digest):
            try:
                _, index = WorkQueue.parse_result_name(path.name)
            except ValueError:
                continue
            if (index not in self.needed or index in self.ready
                    or index in self.consumed):
                self.acct["duplicates"] += 1
                path.unlink(missing_ok=True)
                continue
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if doc.get("spec_hash") != self.bound.digest:
                    raise CheckpointError(
                        f"{path}: record belongs to another spec")
                ridx, outcome = decode_chunk(doc, str(path))
                if ridx != index:
                    raise CheckpointError(
                        f"{path}: record is for chunk {ridx}")
                if len(outcome) != self.task_by_index[index][0]:
                    raise CheckpointError(
                        f"{path}: record holds {len(outcome)} shots, "
                        f"expected {self.task_by_index[index][0]}")
            except (ValueError, CheckpointError):
                # Torn or corrupt delivery: drop it, retry the chunk.
                path.unlink(missing_ok=True)
                self._note_lost(index, "corrupt_records")
                continue
            path.unlink(missing_ok=True)
            self.ready[index] = outcome
            self.due.pop(index, None)
            progressed = True
        return progressed

    # -- recovery ------------------------------------------------------
    def _reconcile(self) -> None:
        now = self.clock()
        self._read_heartbeats()
        if not self.drained:
            for index in sorted(self.due):
                due_t, attempt = self.due[index]
                if now >= due_t:
                    del self.due[index]
                    self._dispatch(index, attempt)
        self._expire_leases(now)
        if not self.drained and self._pool_gone(now):
            if not self.ex.inline_fallback:
                raise WorkQueueError(
                    f"work queue {self.queue.root} has no live workers "
                    "and inline_fallback is off")
            self._drain()

    def _read_heartbeats(self) -> None:
        for path in sorted(self.queue.workers.glob("*.json")):
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                worker, t = str(doc["worker"]), float(doc["t"])
            except (ValueError, KeyError, TypeError):
                continue
            if worker not in self.worker_hb:
                self.acct["workers_seen"] += 1
            self.worker_hb[worker] = max(self.worker_hb.get(worker, t), t)
            self._saw_worker = True

    def _expire_leases(self, now: float) -> None:
        for lease in self.queue.lease_files(self.bound.digest):
            try:
                _, index, _ = WorkQueue.parse_task_name(lease.name)
            except ValueError:
                continue
            if index in self.ready or index in self.consumed:
                continue
            first = self.lease_seen.setdefault(lease.name, now)
            worker = lease.name.rpartition(".")[2]
            hb = self.worker_hb.get(worker, first)
            fresh = max(first, hb)
            if (now - fresh > self.ex.lease_s
                    or now - first > self.ex.attempt_timeout_s):
                lease.unlink(missing_ok=True)
                self.lease_seen.pop(lease.name, None)
                self._note_lost(index, "expired_leases")
                self.acct["re_dispatched"] += 1

    def _pool_gone(self, now: float) -> bool:
        dead = sum(now - t > self.ex.lease_s
                   for t in self.worker_hb.values())
        self.acct["dead_workers"] = int(dead)
        if any(now - t <= self.ex.lease_s
               for t in self.worker_hb.values()):
            return False
        for lease in self.queue.lease_files(self.bound.digest):
            first = self.lease_seen.get(lease.name)
            if first is not None and now - first <= self.ex.lease_s:
                return False  # someone is (or just was) working
        if self._saw_worker:
            return True
        return now - self.started >= self.ex.worker_grace_s

    # -- graceful degradation -----------------------------------------
    def _drain(self) -> None:
        """The pool vanished: finish every remaining chunk inline."""
        self.drained = True
        self.due.clear()
        for index in self.bound.indices:
            if index not in self.ready and index not in self.consumed:
                self._remove_task_files(index)
                self._run_inline(index)
                self.acct["drained_inline"] += 1

    def _run_inline(self, index: int) -> None:
        size, child = self.task_by_index[index]
        self.ready[index] = self.kernel.run_batch_packed(
            size, np.random.default_rng(child))
        self.due.pop(index, None)

    def _remove_task_files(self, index: int) -> None:
        token = f".c{index:06d}."
        for path in self.queue.task_files(self.bound.digest):
            if token in path.name:
                path.unlink(missing_ok=True)

    def _cleanup(self) -> None:
        """Withdraw unclaimed work; leave results (adoptable on resume)."""
        for path in self.queue.task_files(self.bound.digest):
            path.unlink(missing_ok=True)

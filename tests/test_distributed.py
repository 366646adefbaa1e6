"""Chaos suite for the distributed work queue.

The contract under test (docs/CONTRACTS.md): dispatch is at-least-once,
the merge is idempotent by chunk index, and therefore under *every*
fault schedule in the matrix — worker crashes, stalls past lease
expiry, torn and corrupt record writes, duplicate deliveries, total
worker loss — a campaign completes with estimates and counts
bit-identical to an uninterrupted :class:`InlineExecutor` run of the
same ``(seed, batch_size)``, while the supervisor's accounting records
the recovery work honestly.

Everything runs single-threaded on virtual time
(:mod:`repro.campaigns.faults`), so a failing schedule replays exactly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import campaigns
from repro.campaigns.distributed import (WorkQueue, WorkQueueError,
                                         WorkQueueExecutor, backoff_delay)
from repro.campaigns.faults import (FaultEvent, FaultInjector, FaultPlan,
                                    VirtualClock, WorkerPoolSim)

SPEC = campaigns.MemorySpec(distance=3, p=2e-2, samples=48, seed=9,
                            batch_size=8)  # 6 chunks


@pytest.fixture(scope="module")
def inline_result():
    return campaigns.run(SPEC, executor=campaigns.InlineExecutor())


def _run_under(plan, tmp_path, workers=2, **executor_kw):
    sim = WorkerPoolSim(tmp_path / "q", workers=workers, plan=plan)
    result = campaigns.run(SPEC, executor=sim.executor(**executor_kw))
    return result, sim


# ----------------------------------------------------------------------
# The chaos matrix
# ----------------------------------------------------------------------
CHAOS_MATRIX = {
    "crash-mid-chunk": (
        FaultPlan((FaultEvent(point="computed", action="crash", chunk=1),)),
        {"expired_leases": 1, "re_dispatched": 1, "dead_workers": 1},
    ),
    "stall-past-lease": (
        FaultPlan((FaultEvent(point="claim", action="stall", chunk=2,
                              seconds=20.0),)),
        {"expired_leases": 1, "re_dispatched": 1},
    ),
    "corrupt-record": (
        FaultPlan((FaultEvent(point="write", action="corrupt", chunk=0),)),
        {"corrupt_records": 1},
    ),
    "torn-record": (
        FaultPlan((FaultEvent(point="write", action="torn", chunk=3),)),
        {"corrupt_records": 1},
    ),
    "duplicate-delivery": (
        FaultPlan((FaultEvent(point="write", action="duplicate", chunk=1),)),
        {"duplicates": 1},
    ),
    "crash-on-write": (
        FaultPlan((FaultEvent(point="write", action="crash", chunk=4),)),
        {"expired_leases": 1, "dead_workers": 1},
    ),
    "total-worker-loss": (
        FaultPlan((FaultEvent(point="claim", action="crash"),
                   FaultEvent(point="claim", action="crash"))),
        {"dead_workers": 2, "drained_inline": 6},
    ),
    "poison-chunk": (
        FaultPlan((FaultEvent(point="write", action="corrupt", chunk=2,
                              times=10),)),
        {"quarantined": 1, "corrupt_records": 3},
    ),
    "heartbeat-loss": (
        FaultPlan((FaultEvent(point="heartbeat", action="skip",
                              worker="sim1", times=100),)),
        {},
    ),
    "compound": (
        FaultPlan((FaultEvent(point="computed", action="crash", chunk=0),
                   FaultEvent(point="write", action="corrupt", chunk=3),
                   FaultEvent(point="write", action="duplicate", chunk=5),)),
        {"expired_leases": 1, "corrupt_records": 1, "duplicates": 1},
    ),
}


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(CHAOS_MATRIX))
def test_chaos_bit_identical_to_inline(name, tmp_path, inline_result):
    plan, floors = CHAOS_MATRIX[name]
    result, _ = _run_under(plan, tmp_path)
    assert result.estimates == inline_result.estimates
    assert result.counts == inline_result.counts
    acct = result.provenance.supervisor
    assert acct is not None and acct["dispatched"] >= 6
    for counter, floor in floors.items():
        assert acct[counter] >= floor, (
            f"{name}: expected {counter} >= {floor}, got {acct}")


@pytest.mark.chaos
def test_chaos_replay_is_deterministic(tmp_path, inline_result):
    plan, _ = CHAOS_MATRIX["compound"]
    first, sim1 = _run_under(plan, tmp_path / "a")
    second, sim2 = _run_under(plan, tmp_path / "b")
    assert first.estimates == second.estimates == inline_result.estimates
    assert first.provenance.supervisor == second.provenance.supervisor
    assert sim1.injector.fired == sim2.injector.fired


def test_clean_queue_run_reports_no_recovery(tmp_path, inline_result):
    result, sim = _run_under(None, tmp_path)
    assert result.estimates == inline_result.estimates
    acct = result.provenance.supervisor
    assert acct["dispatched"] == 6 and acct["re_dispatched"] == 0
    assert acct["workers_seen"] == 2 and acct["quarantined"] == 0
    assert result.provenance.executor.startswith("work-queue(")
    # Supervisor accounting reaches the JSON wire format.
    assert json.loads(result.to_json())["provenance"]["supervisor"] == acct


def test_pool_never_appears_drains_inline(tmp_path, inline_result):
    clock = VirtualClock()
    ex = WorkQueueExecutor(tmp_path / "q", worker_grace_s=3.0,
                           clock=clock,
                           idle_hook=lambda: clock.advance(1.0))
    result = campaigns.run(SPEC, executor=ex)
    assert result.estimates == inline_result.estimates
    assert result.counts == inline_result.counts
    assert result.provenance.supervisor["drained_inline"] == 6


def test_pool_never_appears_without_fallback_raises(tmp_path):
    clock = VirtualClock()
    ex = WorkQueueExecutor(tmp_path / "q", worker_grace_s=3.0,
                           inline_fallback=False, clock=clock,
                           idle_hook=lambda: clock.advance(1.0))
    with pytest.raises(WorkQueueError, match="no live workers"):
        campaigns.run(SPEC, executor=ex)


def test_checkpoint_resume_through_queue(tmp_path, inline_result):
    class StopAfter(campaigns.InlineExecutor):
        def __init__(self, limit):
            super().__init__()
            self.limit = limit

        def run_chunks(self, kernel, packing, tasks):
            for done, out in enumerate(
                    super().run_chunks(kernel, packing, tasks)):
                if done >= self.limit:
                    raise KeyboardInterrupt
                yield out

    ckpt = tmp_path / "ckpt"
    with pytest.raises(KeyboardInterrupt):
        campaigns.run(SPEC, executor=StopAfter(2), checkpoint=ckpt)
    sim = WorkerPoolSim(tmp_path / "q", workers=2)
    resumed = campaigns.run(SPEC, executor=sim.executor(), checkpoint=ckpt)
    assert resumed.provenance.resumed_chunks == 2
    assert resumed.estimates == inline_result.estimates
    assert resumed.counts == inline_result.counts


def test_queue_cleanup_withdraws_tasks_keeps_results(tmp_path):
    result, sim = _run_under(
        FaultPlan((FaultEvent(point="write", action="duplicate", chunk=5),)),
        tmp_path)
    queue = WorkQueue(tmp_path / "q")
    assert queue.task_files() == []
    assert queue.lease_files() == []


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------
class TestPieces:
    def test_name_grammar_round_trips(self):
        name = WorkQueue.task_name("abc123", 7, 2)
        assert WorkQueue.parse_task_name(name) == ("abc123", 7, 2)
        rname = WorkQueue.result_name("abc123", 7)
        assert WorkQueue.parse_result_name(rname) == ("abc123", 7)
        with pytest.raises(ValueError):
            WorkQueue.parse_task_name("garbage")

    def test_backoff_is_deterministic_bounded_and_growing(self):
        delays = [backoff_delay("h", 3, attempt, 0.25, 4.0)
                  for attempt in (2, 3, 4, 5, 6, 7)]
        assert delays == [backoff_delay("h", 3, attempt, 0.25, 4.0)
                          for attempt in (2, 3, 4, 5, 6, 7)]
        for attempt, delay in zip((2, 3, 4, 5, 6, 7), delays):
            raw = min(4.0, 0.25 * 2 ** (attempt - 2))
            assert 0.5 * raw <= delay < 1.5 * raw
        assert backoff_delay("h", 3, 2, 0.25, 4.0) != \
            backoff_delay("h", 4, 2, 0.25, 4.0)

    def test_fault_plan_round_trips_through_json(self):
        plan = FaultPlan((FaultEvent(point="write", action="torn", chunk=3,
                                     fraction=0.25),
                          FaultEvent(point="claim", action="stall",
                                     seconds=9.0, times=2)))
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("kwargs", [
        dict(point="nowhere", action="crash"),
        dict(point="claim", action="torn"),
        dict(point="write", action="stall"),
        dict(point="heartbeat", action="crash"),
        dict(point="claim", action="crash", times=0),
        dict(point="write", action="torn", fraction=1.5),
    ])
    def test_fault_event_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultEvent(**kwargs)

    def test_injector_spends_budget_and_filters(self):
        plan = FaultPlan((FaultEvent(point="claim", action="crash",
                                     chunk=1, worker="w1"),))
        injector = FaultInjector(plan)
        assert injector.fire("claim", chunk=0, attempt=1, worker="w1") is None
        assert injector.fire("claim", chunk=1, attempt=1, worker="w2") is None
        event = injector.fire("claim", chunk=1, attempt=1, worker="w1")
        assert event is not None and event.action == "crash"
        assert injector.fire("claim", chunk=1, attempt=2, worker="w1") is None
        assert injector.fired == [("claim", 1, 1, "w1", "crash")]

    def test_unbound_run_chunks_refuses(self, tmp_path):
        ex = WorkQueueExecutor(tmp_path / "q")
        with pytest.raises(WorkQueueError, match="bind"):
            next(iter(ex.run_chunks(None, "bits", [])))

    def test_executor_knob_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, lease_s=0)
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, max_attempts=0)
        with pytest.raises(ValueError):
            WorkQueueExecutor(tmp_path, backoff_base_s=2.0,
                              backoff_cap_s=1.0)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_worker_rejects_index_outside_the_plan(self, tmp_path, index):
        # SPEC plans six 8-shot chunks: a task at index -1 or 6 names no
        # chunk, so the worker must refuse it rather than run another.
        from repro.campaigns.checkpoint import CheckpointError
        from repro.campaigns.distributed import TASK_FORMAT, Worker
        queue = WorkQueue(tmp_path / "q")
        queue.ensure()
        digest = campaigns.spec_hash(SPEC)
        doc = {"format": TASK_FORMAT, "type": "task", "spec_hash": digest,
               "spec": campaigns.spec_to_dict(SPEC), "index": index,
               "size": 8, "batch_size": 8, "attempt": 1}
        (queue.tasks / WorkQueue.task_name(digest, 0, 1)).write_text(
            json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError, match="does not fit"):
            Worker(queue.root, "w0").step()
        assert queue.result_files() == []

    def test_parse_executor_queue_syntax(self, tmp_path):
        from repro.campaigns.cli import parse_executor
        ex = parse_executor(f"queue:{tmp_path / 'q'}")
        assert isinstance(ex, WorkQueueExecutor)
        assert ex.queue.root == tmp_path / "q"


# ----------------------------------------------------------------------
# The real thing: worker subprocesses over a shared directory
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestRealWorkers:
    def _spawn(self, queue_dir, *extra):
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", str(queue_dir),
             "--poll", "0.05", "--idle-exit", "15", *extra],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_subprocess_worker_bit_identical(self, tmp_path, inline_result):
        queue_dir = tmp_path / "q"
        proc = self._spawn(queue_dir, "--id", "real0")
        try:
            ex = WorkQueueExecutor(queue_dir, lease_s=30.0,
                                   worker_grace_s=90.0, poll_s=0.05)
            result = campaigns.run(SPEC, executor=ex)
        finally:
            WorkQueue(queue_dir).request_stop()
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert result.estimates == inline_result.estimates
        assert result.counts == inline_result.counts
        acct = result.provenance.supervisor
        assert acct["workers_seen"] >= 1
        assert acct["drained_inline"] == 0

    def test_subprocess_worker_replays_fault_plan(self, tmp_path):
        # A crash-on-first-claim plan kills the real worker process with
        # the dedicated exit code; the queue is left recoverable.
        queue_dir = tmp_path / "q"
        plan = FaultPlan((FaultEvent(point="claim", action="crash"),))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        # Enqueue one real task by hand, then hand the queue to the
        # doomed worker.
        from repro.campaigns.distributed import TASK_FORMAT
        queue = WorkQueue(queue_dir)
        queue.ensure()
        digest = campaigns.spec_hash(SPEC)
        doc = {"format": TASK_FORMAT, "type": "task", "spec_hash": digest,
               "spec": campaigns.spec_to_dict(SPEC), "index": 0, "size": 8,
               "batch_size": 8, "attempt": 1}
        name = WorkQueue.task_name(digest, 0, 1)
        (queue.tasks / name).write_text(json.dumps(doc), encoding="utf-8")
        proc = self._spawn(queue_dir, "--id", "doomed",
                           "--fault-plan", str(plan_path))
        out, err = proc.communicate(timeout=90)
        assert proc.returncode == 3, (out, err)
        assert "crashed" in err
        # The claim survived as a recoverable lease for the supervisor.
        assert [p.name for p in queue.lease_files()] == [f"{name}.doomed"]

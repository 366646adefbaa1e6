"""The benchmark's workloads, driven only through the public surface.

Four workloads call :func:`repro.campaigns.run` on spec objects in this
process; ``service-keepalive`` drives ``python -m repro serve`` over one
persistent HTTP/1.1 connection.  Every spec pins ``batch_size`` to its
kernel's default and takes its seed from the workload seed, so the same
seed always gives the same inputs and the same outcomes.

The traced mode times layers from outside: a span around each
``campaigns.run``, a :class:`TracingExecutor` (a subclass of the public
executor seam) that runs each chunk's ``kernel.pipeline()`` stage by
stage, and, for Fig. 10, a span around the scheduler run.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro import campaigns
from repro.sim.stages import StageState
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Counts left out of outcome checks: they describe the matching cache,
#: not the simulated physics.
ENGINE_COUNTS = ("requested", "cache_hits", "cache_misses",
                 "cache_evictions")
#: Cache-hit POSTs per service round.
SERVICE_HITS = 8
#: Seconds a server may take from spawn until ``/healthz`` answers 200.
SERVER_START_TIMEOUT_S = 60.0


def child_env() -> dict:
    """This process's environment without ``REPRO_*``, plus ``src``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def workload_seed(seed: int, workload: str, round_: int) -> int:
    return campaigns.derive_seed(seed, {"workload": workload,
                                        "round": round_})


def outcome(result) -> dict:
    """The exact outcome of a campaign: its counts plus latency sums."""
    counts = {k: v for k, v in result.counts.items()
              if k not in ENGINE_COUNTS}
    mean = result.estimates.get("mean_latency")
    if mean is not None:
        # Latencies are whole cycles, so the sum is an exact integer.
        counts["latency_sum"] = (round(mean * counts["detections"])
                                 if counts["detections"] else 0)
    return counts


def fingerprint(doc: dict) -> str:
    """A result's counts (less the cache counters) and estimates, as JSON.

    Compared as text so that NaN estimates compare equal.
    """
    counts = {k: v for k, v in doc["counts"].items()
              if k not in ENGINE_COUNTS}
    return json.dumps([counts, doc["estimates"]], sort_keys=True)


class Ledger:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: What one unit of ``work_per_s`` is on this workload.
    work: str
    #: What ``result_ms`` times: one result of this workload.
    result: str
    #: Layer metric -> the end-to-end metrics it should move here (an
    #: empty list predicts no change).
    moves: dict
    #: ``round_specs(seed, r)`` -> ``[(label, spec), ...]``.
    round_specs: Callable
    #: Each spec of a round is one result (Fig. 10's points), rather
    #: than the round as a whole.
    result_per_spec: bool = False


def memory_round(seed: int, r: int) -> list:
    base = dict(distance=13, p=0.008, samples=512, anomaly_size=4,
                batch_size=512, seed=workload_seed(seed, "memory", r))
    return [("free", campaigns.MemorySpec(**base)),
            ("naive", campaigns.MemorySpec(region="centered", **base)),
            ("rollback", campaigns.MemorySpec(region="centered",
                                              informed=True, **base))]


def endtoend_round(seed: int, r: int) -> list:
    return [("endtoend", campaigns.EndToEndSpec(
        distance=9, p=0.008, shots=128, onset=60, cycles=78, c_win=40,
        n_th=8, batch_size=64, seed=workload_seed(seed, "endtoend", r)))]


def detection_round(seed: int, r: int) -> list:
    return [("detection", campaigns.DetectionSpec(
        distance=21, p=1e-3, p_ano=0.05, anomaly_size=4, c_win=300,
        n_th=20, trials=16, batch_size=16,
        seed=workload_seed(seed, "detection", r)))]


def fig10_round(seed: int, r: int) -> list:
    return [(f"f={f:g}", campaigns.ThroughputSpec(
        architecture="q3de", num_instructions=10_000,
        strike_prob_per_slot=f, strike_duration_slots=100,
        seed=workload_seed(seed, f"fig10-{f:g}", r)))
        for f in (1e-3, 3e-3)]


def service_round(seed: int, r: int) -> list:
    """A round's new spec (a miss) and its more-shots sibling."""
    spec = campaigns.MemorySpec(
        distance=9, p=0.008, samples=512, region="centered",
        anomaly_size=4, batch_size=512,
        seed=workload_seed(seed, "service", r))
    return [("miss", spec),
            ("refine", dataclasses.replace(spec, samples=1024))]


SHOT_MOVES = {
    "sim.decode_share": ["work_per_s", "result_ms_p50"],
    "decode.pairs_per_shot": ["work_per_s"],
    "decode.pairs_per_s": ["work_per_s"],
    "sim.sample_share": ["work_per_s"],
    "sim.extract_share": ["work_per_s"],
    "sim.accumulate_share": ["work_per_s"],
    "campaign.self_ms_p50": ["work_per_s", "result_ms_p50"],
    "chunk.ms_p50": ["result_ms_p50", "result_ms_tail"],
    "chunk.ms_tail": ["result_ms_tail"],
}

WORKLOADS = {w.name: w for w in (
    Workload(
        "memory-fig8-d13",
        "Fig. 8 free/naive/rollback at d=13: the global and informed "
        "batched decode, ~84% of its time",
        work="shot", result="one Fig. 8 row (three campaigns.run calls)",
        moves={**SHOT_MOVES, "sim.active_nodes_per_shot": ["work_per_s"]},
        round_specs=memory_round),
    Workload(
        "endtoend-fig8-d9",
        "detect, estimate and re-decode over 78-cycle windows: the only "
        "user of the per-shot-region decode",
        work="shot", result="one EndToEndSpec campaigns.run (128 shots)",
        moves={**SHOT_MOVES, "sim.detect_share": ["work_per_s"],
               "detect.cells_per_s": ["work_per_s"],
               "sample.shots_per_s": ["work_per_s"]},
        round_specs=endtoend_round),
    Workload(
        "detection-fig7-d21",
        "Fig. 7 point at d=21 with no decode: per-trial overwrites and "
        "the windowed scan, the bypass for decode changes",
        work="trial", result="one DetectionSpec campaigns.run (16 trials)",
        moves={"sim.sample_share": ["work_per_s", "result_ms_p50"],
               "sample.shots_per_s": ["work_per_s"],
               "sim.detect_share": ["work_per_s", "result_ms_p50"],
               "detect.cells_per_s": ["work_per_s"],
               "campaign.self_ms_p50": ["work_per_s"],
               "chunk.ms_p50": ["result_ms_p50"],
               "decode.pairs_per_shot": []},
        round_specs=detection_round),
    Workload(
        "throughput-fig10",
        "Fig. 10 q3de at strike rates 1e-3 and 3e-3 with 10^4 "
        "instructions: the only workload for the repro.arch scheduler",
        work="simulated instruction",
        result="one Fig. 10 point (one ThroughputSpec campaigns.run)",
        moves={"arch.share": ["work_per_s", "result_ms_p50"],
               "arch.slots_per_s": ["work_per_s", "result_ms_p50",
                                    "result_ms_tail"],
               "arch.strikes_per_slot": ["work_per_s"],
               "arch.slots_per_instruction": [],
               "chunk.ms_p50": ["result_ms_p50"],
               "chunk.ms_tail": ["result_ms_tail"]},
        round_specs=fig10_round, result_per_spec=True),
    Workload(
        "service-keepalive",
        "python -m repro serve with one keep-alive client: misses, "
        "cache hits and refinements, and the two-send response stall",
        work="result delivered (hit, miss or refinement)",
        result="a cache-hit POST round trip (80% of the POSTs)",
        moves={"service.cache_hit_ratio": ["result_ms_p50", "work_per_s"],
               "service.polls_per_result": ["work_per_s"],
               "store.bytes_per_result": ["work_per_s"],
               "sim.decode_share": ["work_per_s"]},
        round_specs=service_round),
)}


# ----------------------------------------------------------------------
# Tracing hooks (the traced mode only)
# ----------------------------------------------------------------------
#: Work totals of a traced run; the per-layer metrics divide them by
#: the work done (per shot, per slot) or by a layer's self time.
COUNTERS = ("shots", "chunks", "active_nodes", "decode_pairs",
            "detect_cells", "slots", "strikes", "instructions")


class TracingExecutor(campaigns.Executor):
    """The inline executor, run stage by stage under spans.

    Each chunk builds the kernel's own stage context and runs its
    ``pipeline()`` one ``Stage.run`` at a time, so outcomes are the ones
    :class:`repro.campaigns.InlineExecutor` produces for the same chunk
    plan.  Work counters are taken from the stage state in a separate
    ``trace.count`` span, outside the stage spans.
    """

    name = "inline-traced"
    whole_request = True

    def __init__(self, tracer: Tracer, counters: dict):
        self.tracer = tracer
        self.counters = counters

    def run_chunks(self, kernel, packing, tasks):
        kernel.prepare()
        if packing == "bits" and not hasattr(kernel, "run_batch_packed"):
            packing = "none"
        for size, child in tasks:
            with self.tracer.span("chunk"):
                before = _cache_stats(kernel)
                pipeline = kernel.pipeline()
                # The kernel's own context builder: the same arena,
                # cache and packing that run_batch would use.
                ctx = kernel._context(size, np.random.default_rng(child),
                                      packing)
                state = StageState()
                for stage in pipeline:
                    with self.tracer.span(f"stage.{stage.name}"):
                        stage.run(ctx, state)
                after = _cache_stats(kernel)
                with self.tracer.span("trace.count"):
                    self._count(pipeline.names(), size, state)
            yield state.outcomes, tuple(
                a - b for a, b in zip(after, before, strict=True))

    def _count(self, names, size, state) -> None:
        c = self.counters
        c["shots"] += size
        c["chunks"] += 1
        if state.nodes_list is not None:
            sizes = np.fromiter((len(n) for n in state.nodes_list),
                                dtype=np.int64, count=len(state.nodes_list))
            c["active_nodes"] += int(sizes.sum())
            if "decode" in names:
                c["decode_pairs"] += int((sizes * (sizes - 1) // 2).sum())
        elif state.activity is not None:
            c["active_nodes"] += int(np.bitwise_count(state.activity).sum())
        if "detect" in names and state.activity is not None:
            c["detect_cells"] += size * int(np.prod(state.activity.shape[1:]))


def _cache_stats(kernel) -> tuple:
    cache = getattr(kernel, "cache", None)
    return cache.stats() if cache is not None else (0, 0, 0)


@contextmanager
def arch_spans(tracer: Tracer):
    """Open an ``arch`` span around each Fig. 10 scheduler run.

    The throughput runner imports ``simulate_throughput`` from its module
    at call time, so wrapping the module attribute is seen there.
    """
    from repro.arch import throughput
    original = throughput.simulate_throughput

    def traced(*args, **kwargs):
        with tracer.span("arch"):
            return original(*args, **kwargs)

    throughput.simulate_throughput = traced
    try:
        yield
    finally:
        throughput.simulate_throughput = original


class Campaigns:
    """Runs specs untraced (plain inline executor) or traced."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.counters = dict.fromkeys(COUNTERS, 0)

    def run(self, spec):
        if self.tracer is None:
            return campaigns.run(spec, executor=campaigns.InlineExecutor())
        self.tracer.new_run()
        executor = TracingExecutor(self.tracer, self.counters)
        with arch_spans(self.tracer), self.tracer.span("campaign"):
            result = campaigns.run(spec, executor=executor)
        if isinstance(spec, campaigns.ThroughputSpec):
            for key in ("slots", "strikes", "instructions"):
                self.counters[key] += result.counts[key]
        return result


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_result(spec, result) -> Optional[str]:
    """Why ``result`` cannot be right for ``spec`` (None if it can)."""
    counts = result.counts
    if isinstance(spec, campaigns.ThroughputSpec):
        if counts["instructions"] < spec.num_instructions:
            return (f"censored: {counts['instructions']} of "
                    f"{spec.num_instructions} instructions in "
                    f"{counts['slots']} slots (max_slots "
                    f"{spec.max_slots})")
        return None
    shots = {"memory": "samples", "endtoend": "shots",
             "detection": "trials"}[spec.kind]
    requested = getattr(spec, shots)
    if counts[shots] != requested:
        return f"{counts[shots]} {shots} for a request of {requested}"
    return None


def check_expected(expected: Optional[dict], key: str,
                   got: dict) -> Optional[str]:
    """Compare an outcome with the recorded one for the default seed."""
    if expected is None or key not in expected:
        return None
    if expected[key] != got:
        return f"{key}: outcome {got} != recorded {expected[key]}"
    return None


def expected_note(rounds: list, expected: Optional[dict]) -> str:
    """How many results of a default-seed run ``expected.json`` checked.

    It records a fixed number of rounds; a faster machine may run more,
    and those pass unchecked.
    """
    keys = [f"{r}/{label}" for r, rnd in enumerate(rounds)
            for label, _ in rnd.specs]
    checked = sum(key in expected for key in keys) if expected else 0
    return f"{checked} of {len(keys)} results checked against expected.json"


def check(key: str, spec, result, expected: Optional[dict]) -> Optional[str]:
    """The first problem with ``result`` (``None`` if there is none)."""
    problem = check_result(spec, result)
    if problem:
        return f"{key}: {problem}"
    return check_expected(expected, key, outcome(result))


# ----------------------------------------------------------------------
# Shot and Fig. 10 workloads
# ----------------------------------------------------------------------
def keep_going(r: int, started: float, seconds: float, last: float,
               replay: Optional[int]) -> bool:
    """Start round ``r``?  Always the first; after it, only a round that
    should end within ``seconds`` if it lasts as long as the ``last``
    one did (or exactly ``replay`` rounds).

    Judging by the last round keeps the round count, and so the result
    samples, the same from run to run when a round is a large part of
    ``seconds`` (one Fig. 10 round takes about as long as a whole run).
    """
    if replay is not None:
        return r < replay
    return r == 0 or time.perf_counter() - started + last <= seconds


@dataclasses.dataclass
class Round:
    specs: list
    results: list
    #: Seconds of each ``campaigns.run``, in spec order.
    times: list
    seconds: float

    def result_ms(self, per_spec: bool) -> list:
        """The round's result latencies: one per spec, or the round."""
        return [1e3 * t for t in self.times] if per_spec \
            else [1e3 * self.seconds]


def run_rounds(workload: Workload, seed: int, seconds: float,
               runner: Campaigns, ledger: Ledger,
               expected: Optional[dict],
               replay: Optional[list] = None) -> list:
    """Closed loop of rounds for ``seconds`` (or a replay of rounds)."""
    rounds: list[Round] = []
    started = time.perf_counter()
    r = 0
    while keep_going(r, started, seconds,
                     rounds[-1].seconds if rounds else 0.0,
                     None if replay is None else len(replay)):
        specs = workload.round_specs(seed, r)
        results, times = [], []
        t0 = time.perf_counter()
        for label, spec in specs:
            key = f"{r}/{label}"
            t_spec = time.perf_counter()
            try:
                result = runner.run(spec)
            except Exception as exc:  # noqa: BLE001 - a failed run is
                # a failed operation, reported in the result line.
                ledger.record(False, f"{key}: {type(exc).__name__}: {exc}")
                results.append(None)
                times.append(time.perf_counter() - t_spec)
                continue
            times.append(time.perf_counter() - t_spec)
            problem = check(key, spec, result, expected)
            if replay is not None and problem is None:
                before = replay[r].results[len(results)]
                if before is not None and fingerprint(before.to_dict()) \
                        != fingerprint(result.to_dict()):
                    problem = (f"{key}: traced outcome {outcome(result)} "
                               f"!= untraced {outcome(before)}")
            ledger.record(problem is None, problem or key)
            results.append(result)
        rounds.append(Round(specs, results, times,
                            time.perf_counter() - t0))
        r += 1
    return rounds


def work_units(workload: Workload, result) -> int:
    """Shots, trials, or Fig. 10's simulated instructions.

    A Fig. 10 point's host time follows its fixed instruction count:
    over ten seeds its slots moved by up to 11% but its time by 7%, and
    a round's time by 4%.
    """
    counts = result.counts
    for key in ("samples", "shots", "trials", "instructions"):
        if key in counts:
            return counts[key]
    raise KeyError(f"no work count in {sorted(counts)}")


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
class RequestFailed(Exception):
    """A non-2xx answer, a wrong payload or a timeout."""


class Server:
    """``python -m repro serve`` on a fresh store and an ephemeral port."""

    def __init__(self, store: Path, log: Path):
        store.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(store),
             "--port", "0"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log)
        deadline = t0 + SERVER_START_TIMEOUT_S
        try:
            self.port = self._await_port(log, deadline)
            self._await_health(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self, log: Path, deadline: float) -> int:
        while time.perf_counter() < deadline:
            match = re.search(r"http://[^:\s]+:(\d+)",
                              log.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            time.sleep(0.005)
        raise RuntimeError("server did not report its port")

    def _await_health(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kb / 1024.0

    def stop(self) -> None:
        """Terminate the server and wait for it (the store is discarded)."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """One persistent HTTP/1.1 connection; every request is timed."""

    def __init__(self, port: int, tracer: Optional[Tracer] = None,
                 timeout: float = 30.0):
        self.tracer = tracer
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)
        self.times: dict[str, list[float]] = {}

    def request(self, route: str, method: str, path: str,
                body: Optional[bytes] = None) -> tuple:
        """``(status, document, ms)``; raises :class:`RequestFailed`."""
        headers = {"Content-Type": "application/json"} if body else {}
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                status, raw = self._exchange(method, path, body, headers)
            else:
                with self.tracer.span(f"http.{route}"):
                    status, raw = self._exchange(method, path, body, headers)
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()  # reconnects on the next request
            raise RequestFailed(f"{method} {path}: {type(exc).__name__}: "
                                f"{exc}") from exc
        ms = 1e3 * (time.perf_counter() - t0)
        self.times.setdefault(route, []).append(ms)
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise RequestFailed(f"{method} {path}: body is not JSON") from exc
        return status, doc, ms

    def _exchange(self, method, path, body, headers) -> tuple:
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


def expect(code: int, doc, allowed: tuple, what: str, **fields) -> None:
    """Raise :class:`RequestFailed` unless the HTTP code and payload fit."""
    if not isinstance(doc, dict):
        raise RequestFailed(f"{what}: HTTP {code}: payload is not an object")
    if code not in allowed:
        raise RequestFailed(f"{what}: HTTP {code}: {doc.get('error', doc)}")
    for key, value in fields.items():
        if doc.get(key) != value:
            raise RequestFailed(f"{what}: {key}={doc.get(key)!r}, "
                                f"expected {value!r}")


def served_result(doc: dict, what: str) -> dict:
    """The result document of a complete answer, or :class:`RequestFailed`."""
    result = doc.get("result")
    if not (isinstance(result, dict)
            and isinstance(result.get("counts"), dict)
            and isinstance(result.get("estimates"), dict)
            and isinstance(result.get("provenance"), dict)):
        raise RequestFailed(f"{what}: complete answer without a result")
    return result


@dataclasses.dataclass
class ServiceRound:
    specs: list  # [(label, spec)]: the miss and its refinement
    results: list  # the served result documents
    hits: list  # hit round trips, ms
    computes: list  # POST -> 200 latencies, ms
    polls: int
    seconds: float


class ServiceSession:
    """The closed-loop client: miss, k hits, refinement, per round.

    A computing campaign is polled (partial, then status) after a pause
    drawn from ``POLL_S``: with a fixed pause every result would be
    seen at the same poll phase, and the latency of misses and
    refinements would jump between poll periods instead of tracking the
    compute time.
    """

    POLL_S = (0.05, 0.1)
    #: A miss or refinement not complete by then is a failed request.
    RESULT_TIMEOUT_S = 60.0

    def __init__(self, client: Client, ledger: Ledger, seed: int):
        self.client = client
        self.ledger = ledger
        self.pauses = random.Random(seed)
        self.posts = 0
        self.cache_hits = 0

    def run(self, seed: int, seconds: float,
            replay: Optional[int] = None) -> list:
        rounds = []
        started = time.perf_counter()
        r = 0
        while keep_going(r, started, seconds,
                         rounds[-1].seconds if rounds else 0.0, replay):
            rounds.append(self.round(seed, r))
            r += 1
        return rounds

    def round(self, seed: int, r: int) -> ServiceRound:
        specs = service_round(seed, r)
        (_, spec), (_, more) = specs
        rnd = ServiceRound(specs, [None, None], [], [], 0, 0.0)
        t0 = time.perf_counter()
        rnd.results[0] = self._compute(rnd, spec, f"{r}/miss")
        for i in range(SERVICE_HITS):
            self._hit(rnd, spec, rnd.results[0], f"{r}/hit{i}")
        rnd.results[1] = self._compute(rnd, more, f"{r}/refine")
        rnd.seconds = time.perf_counter() - t0
        return rnd

    def _post(self, spec, route: str) -> tuple:
        self.posts += 1
        return self.client.request(
            route, "POST", "/campaigns",
            campaigns.spec_to_json(spec).encode("utf-8"))

    def _compute(self, rnd: ServiceRound, spec, what: str) -> Optional[dict]:
        h = campaigns.spec_hash(spec)
        t0 = time.perf_counter()
        try:
            status, doc, _ = self._post(spec, "post_miss")
            expect(status, doc, (202,), what, cache_hit=False, spec_hash=h)
            self.ledger.record(True, what)
            while True:
                if time.perf_counter() - t0 > self.RESULT_TIMEOUT_S:
                    raise RequestFailed(f"{what}: no result after "
                                        f"{self.RESULT_TIMEOUT_S:g} s")
                time.sleep(self.pauses.uniform(*self.POLL_S))
                rnd.polls += 1
                status, doc, _ = self.client.request(
                    "partial", "GET", f"/campaigns/{h}/partial")
                expect(status, doc, (200, 202), f"{what} partial",
                       spec_hash=h)
                self.ledger.record(True, f"{what} partial")
                status, doc, _ = self.client.request(
                    "status", "GET", f"/campaigns/{h}")
                expect(status, doc, (200, 202), f"{what} status",
                       spec_hash=h)
                self.ledger.record(True, f"{what} status")
                if status == 200:
                    break
            expect(status, doc, (200,), what, status="complete")
            result = served_result(doc, what)
        except RequestFailed as exc:
            self.ledger.record(False, str(exc))
            return None
        rnd.computes.append(1e3 * (time.perf_counter() - t0))
        return result

    def _hit(self, rnd: ServiceRound, spec, first: Optional[dict],
             what: str) -> None:
        try:
            status, doc, ms = self._post(spec, "post_hit")
            expect(status, doc, (200,), what, cache_hit=True,
                   spec_hash=campaigns.spec_hash(spec), status="complete")
            result = served_result(doc, what)
            if first is not None and fingerprint(result) != fingerprint(first):
                raise RequestFailed(f"{what}: hit differs from the miss")
        except RequestFailed as exc:
            self.ledger.record(False, str(exc))
            return
        self.cache_hits += 1
        rnd.hits.append(ms)
        self.ledger.record(True, what)


def verify_served(rounds: list, runner: Campaigns, ledger: Ledger,
                  expected: Optional[dict]) -> None:
    """Each served result must equal a direct ``campaigns.run``."""
    for r, rnd in enumerate(rounds):
        for (label, spec), served in zip(rnd.specs, rnd.results,
                                         strict=True):
            if served is None:
                continue
            key = f"{r}/{label}"
            try:
                direct = runner.run(spec)
            except Exception as exc:  # noqa: BLE001 - as in run_rounds
                ledger.record(False, f"{key}: direct run: "
                                     f"{type(exc).__name__}: {exc}")
                continue
            problem = None
            if fingerprint(served) != fingerprint(direct.to_dict()):
                problem = f"{key}: served {served['counts']} != direct " \
                          f"{direct.counts}"
            elif label == "refine" and \
                    not served["provenance"].get("resumed_chunks"):
                problem = f"{key}: refinement recomputed every chunk"
            problem = problem or check(key, spec, direct, expected)
            ledger.record(problem is None, problem or key)


def jobs_run(client: Client, ledger: Ledger, computed: int) -> int:
    try:
        status, doc, _ = client.request("healthz", "GET", "/healthz")
        expect(status, doc, (200,), "healthz", status="ok")
    except RequestFailed as exc:
        ledger.record(False, str(exc))
        return 0
    jobs = doc.get("jobs_run")
    ledger.record(jobs == computed, f"healthz jobs_run {jobs} for "
                                    f"{computed} misses and refinements")
    return jobs if isinstance(jobs, int) else 0


def store_bytes(store: Path) -> int:
    return sum(p.stat().st_size for p in store.rglob("*") if p.is_file())


def scratch_dir(workload: str) -> Path:
    path = OUT / f"tmp-{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

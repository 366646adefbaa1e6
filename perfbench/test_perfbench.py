"""Tests of the benchmark's own code (spans, tails, checks, hooks).

    PYTHONPATH=src python -m pytest perfbench -q
"""

import io
import json
import os
import socket
import threading
from contextlib import redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import run
import workloads as wl
from repro import campaigns
from tracing import Tracer, covered, median, tail

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def nested_tracer():
    # campaign [0, 10] > chunk [1, 6] > a [1.5, 3], b [3, 5.5]
    #                  > chunk [6, 9.5] > a [6, 9]
    tracer = Tracer(FakeClock([0, 1, 1.5, 3, 3, 5.5, 6, 6, 6, 9, 9.5, 10]))
    with tracer.span("campaign"):
        with tracer.span("chunk"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        with tracer.span("chunk"):
            with tracer.span("a"):
                pass
    return tracer


def test_self_time_is_span_minus_children():
    tracer = nested_tracer()
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 1, 0, 4]
    assert tracer.self_times() == pytest.approx([1.5, 1.0, 1.5, 2.5, 0.5, 3])
    own = tracer.self_time_by_name()
    assert own == pytest.approx({"campaign": 1.5, "chunk": 1.5, "a": 4.5,
                                 "b": 2.5})
    # Self times partition the root span.
    assert sum(own.values()) == pytest.approx(10)


def test_overlapping_children_count_once():
    tracer = Tracer(FakeClock([0, 10]))
    with tracer.span("root"):
        pass
    children = Tracer(FakeClock([1, 4, 3, 6, 8, 12]))
    for _ in range(3):
        with children.span("c"):
            pass
    # [1, 4] and [3, 6] overlap; [8, 12] is clipped to the root's end.
    assert covered(tracer.spans[0], children.spans) == pytest.approx(5 + 2)


def test_spans_share_a_run_id_and_are_written(tmp_path):
    tracer = Tracer()
    tracer.new_run()
    with tracer.span("campaign"), tracer.span("chunk"):
        pass
    tracer.new_run()
    with tracer.span("campaign"):
        pass
    assert [s.run_id for s in tracer.spans] == [1, 1, 2]
    tracer.write(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in
            (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["campaign", "chunk", "campaign"]
    assert {"start", "end", "parent", "run_id", "self"} <= set(rows[0])


@pytest.mark.parametrize("n, index, percentile, beyond", [
    (100, 89, 90.0, 10),
    (30, 19, 100 * 20 / 30, 10),
    (22, 11, 100 * 12 / 22, 10),
    (12, 6, 100 * 7 / 12, 5),
    (1, 0, 100.0, 0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, index, percentile,
                                                    beyond):
    samples = [float(i) for i in range(n)][::-1]
    got = tail(samples)
    assert got.value == index
    assert got.percentile == pytest.approx(percentile)
    assert (got.samples, got.beyond) == (n, beyond)


@pytest.mark.parametrize("n", range(1, 40))
def test_tail_never_below_median(n):
    samples = [float((7 * i) % n) for i in range(n)]
    assert tail(samples).value >= median(samples)


# ----------------------------------------------------------------------
# Checks count as failed operations, never as passes
# ----------------------------------------------------------------------
class StubRunner:
    """Returns canned results instead of running campaigns."""

    def __init__(self, result):
        self.result = result
        self.counters = dict.fromkeys(wl.COUNTERS, 0)

    def run(self, spec):
        return self.result


def memory_workload(samples=512):
    result = campaigns.CampaignResult(
        kind="memory", estimates={"per_cycle": 0.0},
        counts={"failures": 3, "samples": samples, "requested": samples,
                "cache_hits": 0, "cache_misses": 0, "cache_evictions": 0})
    return wl.WORKLOADS["memory-fig8-d13"], StubRunner(result)


def test_wrong_expected_count_is_a_failure():
    workload, runner = memory_workload()
    ledger = wl.Ledger()
    expected = {"0/free": {"failures": 4, "samples": 512}}
    wl.run_rounds(workload, 0, 0, runner, ledger, expected)
    assert ledger.attempted == 3
    assert len(ledger.failures) == 1
    assert "0/free" in ledger.failures[0] and "recorded" in ledger.failures[0]


def test_short_shot_count_is_a_failure():
    workload, runner = memory_workload(samples=100)
    ledger = wl.Ledger()
    wl.run_rounds(workload, 0, 0, runner, ledger, None)
    assert len(ledger.failures) == 3


def test_a_round_starts_only_if_it_should_end_in_time(monkeypatch):
    monkeypatch.setattr(wl.time, "perf_counter", lambda: 110.0)
    # 10 s of a 15 s run are gone: a 4 s round fits, a 6 s one does not.
    assert wl.keep_going(1, 100.0, 15.0, 4.0, None)
    assert not wl.keep_going(1, 100.0, 15.0, 6.0, None)
    # The first round always runs; a replay runs exactly its rounds.
    assert wl.keep_going(0, 0.0, 15.0, 0.0, None)
    assert wl.keep_going(2, 0.0, 0.0, 9.0, 3)
    assert not wl.keep_going(3, 0.0, 99.0, 0.0, 3)


def test_fig10_points_are_separate_results():
    rnd = wl.Round(specs=[], results=[], times=[4.0, 12.0], seconds=16.5)
    assert wl.WORKLOADS["throughput-fig10"].result_per_spec
    assert rnd.result_ms(True) == [4000.0, 12000.0]
    assert rnd.result_ms(False) == [16500.0]


def test_censored_fig10_point_is_a_failure():
    censored = campaigns.CampaignResult(
        kind="throughput", estimates={"throughput": 0.002},
        counts={"instructions": 216, "slots": 100_000, "strikes": 4000})
    ledger = wl.Ledger()
    rounds = wl.run_rounds(wl.WORKLOADS["throughput-fig10"], 0, 0,
                           StubRunner(censored), ledger, None)
    assert len(rounds) == 1 and ledger.attempted == 2
    assert len(ledger.failures) == 2
    assert all("censored" in f for f in ledger.failures)


def test_report_marks_failures_incorrect(tmp_path):
    ledger = wl.Ledger()
    ledger.record(True, "fine")
    ledger.record(False, "broken")
    out = io.StringIO()
    with redirect_stdout(out):
        run.report({"work_per_s": (1.0, "1/s")}, {}, ledger,
                   tmp_path / "summary.json")
    doc = json.loads(out.getvalue().splitlines()[-1])
    assert doc == {"correct": False, "attempted": 2, "failed": 1,
                   "metrics": {"work_per_s": {"value": 1.0, "unit": "1/s"}}}


class Refusing(BaseHTTPRequestHandler):
    """Answers every request with HTTP 500."""

    protocol_version = "HTTP/1.1"

    def _reply(self):
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)
        body = b'{"error": "boom"}'
        self.send_response(500)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _reply

    def log_message(self, *args):
        pass


@pytest.fixture
def refusing_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), Refusing)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_non_2xx_responses_are_failures(refusing_server):
    ledger = wl.Ledger()
    client = wl.Client(refusing_server, timeout=5)
    session = wl.ServiceSession(client, ledger, seed=0)
    rnd = session.round(0, 0)
    client.close()
    assert rnd.results == [None, None] and rnd.hits == []
    # The miss, every hit and the refinement each fail once.
    assert ledger.attempted == wl.SERVICE_HITS + 2
    assert len(ledger.failures) == ledger.attempted
    assert all("HTTP 500" in f for f in ledger.failures)


@pytest.mark.parametrize("code, doc", [
    (200, ["not", "an", "object"]),
    (200, {"status": "complete", "cache_hit": True}),
    (200, {"status": "complete", "cache_hit": True,
           "result": {"counts": {}, "estimates": {}}}),
])
def test_wrong_payloads_are_failures(code, doc):
    with pytest.raises(wl.RequestFailed):
        wl.expect(code, doc, (200,), "hit", status="complete",
                  cache_hit=True)
        wl.served_result(doc, "hit")


def test_timeouts_are_failures():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(32)  # connections queue up but are never answered
    try:
        ledger = wl.Ledger()
        client = wl.Client(listener.getsockname()[1], timeout=0.1)
        session = wl.ServiceSession(client, ledger, seed=0)
        rnd = session.round(0, 0)
        client.close()
    finally:
        listener.close()
    assert rnd.results == [None, None] and rnd.hits == []
    assert ledger.attempted == wl.SERVICE_HITS + 2
    assert len(ledger.failures) == ledger.attempted
    assert all("timed out" in f for f in ledger.failures)


class Raising:
    counters = dict.fromkeys(wl.COUNTERS, 0)

    def run(self, spec):
        raise RuntimeError("kernel blew up")


def test_a_direct_run_that_raises_is_a_failure():
    spec = campaigns.MemorySpec(distance=3, p=0.01, samples=8, seed=1)
    served = {"counts": {}, "estimates": {}, "provenance": {}}
    rnd = wl.ServiceRound([("miss", spec)], [served], [], [], 0, 0.0)
    ledger = wl.Ledger()
    wl.verify_served([rnd], Raising(), ledger, None)
    assert ledger.attempted == 1
    assert ledger.failures == ["0/miss: direct run: RuntimeError: "
                               "kernel blew up"]


# ----------------------------------------------------------------------
# The tracing hook changes no outcome
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", [
    campaigns.MemorySpec(distance=5, p=0.02, samples=96, region="centered",
                         informed=True, batch_size=64, seed=3),
    campaigns.EndToEndSpec(distance=5, p=0.01, shots=24, onset=20,
                           cycles=30, c_win=10, n_th=4, batch_size=16,
                           seed=4),
    campaigns.DetectionSpec(distance=5, p=0.005, p_ano=0.2, anomaly_size=2,
                            c_win=10, n_th=5, trials=20, batch_size=8,
                            seed=5),
    campaigns.ThroughputSpec(num_instructions=40,
                             strike_prob_per_slot=0.01, seed=6),
])
def test_traced_outcomes_equal_untraced(spec):
    plain = wl.Campaigns().run(spec)
    tracer = Tracer()
    runner = wl.Campaigns(tracer)
    traced = runner.run(spec)
    assert traced.counts == plain.counts
    assert wl.fingerprint(traced.to_dict()) == wl.fingerprint(plain.to_dict())
    names = {s.name for s in tracer.spans}
    if isinstance(spec, campaigns.ThroughputSpec):
        assert names == {"campaign", "arch"}
        assert runner.counters["slots"] == plain.counts["slots"]
    else:
        assert {"campaign", "chunk", "stage.sample"} <= names
        shots = next(plain.counts[k] for k in ("samples", "shots", "trials")
                     if k in plain.counts)
        assert runner.counters["shots"] == shots
    shares = run.layer_metrics(tracer, runner.counters, 0.0)
    total = sum(shares[m][0] for m in run.LAYER_SHARES)
    assert total == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Real outcomes of the default seed match expected.json
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["memory-fig8-d13", "endtoend-fig8-d9",
                                  "detection-fig7-d21", "service-keepalive"])
def test_first_round_of_default_seed_matches_expected(name, monkeypatch):
    # Fig. 10 is left out: one round takes about 15 s.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    expected = wl.load_expected()["workloads"][name]
    ledger = wl.Ledger()
    rounds = wl.run_rounds(wl.WORKLOADS[name], run.DEFAULT_SEED, 0,
                           wl.Campaigns(), ledger, expected)
    assert len(rounds) == 1
    keys = [f"0/{label}" for label, _ in rounds[0].specs]
    assert all(key in expected for key in keys)
    assert ledger.attempted == len(keys) and ledger.failures == []


# ----------------------------------------------------------------------
# BENCHMARK.json matches the code
# ----------------------------------------------------------------------
def test_benchmark_json_matches_workloads_and_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in wl.WORKLOADS.values()]
    e2e = run.end_to_end(1.0, [1.0], [1.0], 1.0)
    assert [m["name"] for m in doc["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in doc["end_to_end"]] == \
        [unit for _, unit in e2e.values()]
    layers = run.layer_metrics(Tracer(), dict.fromkeys(wl.COUNTERS, 0), 0.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    for workload in wl.WORKLOADS.values():
        assert set(workload.moves) <= set(layers)
        assert {m for ms in workload.moves.values() for m in ms} <= set(e2e)

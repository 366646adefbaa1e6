#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload memory-fig8-d13 --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing; ``--trace 1`` measures the same work untraced
and then traced, checks that both give the same outcomes, and reports
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a summary (tail percentiles with
their sample counts, failure reasons) are written under
``perfbench/out/`` when the run ends.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402 - imported from the checkout's src/ above
import workloads as wl  # noqa: E402
from tracing import Tail, Tracer, median, tail  # noqa: E402

#: The seed whose outcomes ``perfbench/expected.json`` records.
DEFAULT_SEED = 0
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUPS = 3
PROBE_TIMEOUT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops the server it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The program reads its REPRO_* knobs at call time, so clearing them
    # here pins every campaign of this run (and, via child_env, the
    # server's).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 1
    if args.workload not in wl.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = wl.load_expected()["workloads"].get(workload.name)
    ledger = wl.Ledger()
    scratch = wl.scratch_dir(workload.name)
    try:
        if workload.name == "service-keepalive":
            run = service_layers if args.trace else service_end_to_end
        else:
            run = batch_layers if args.trace else batch_end_to_end
        metrics, notes, tracer = run(workload, args, ledger, expected,
                                     scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    stem = wl.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    report(metrics, notes, ledger, stem.with_suffix(".summary.json"))
    return 0


# ----------------------------------------------------------------------
# End-to-end runs (tracing off)
# ----------------------------------------------------------------------
def probe_setup(workload, seed: int) -> float:
    """Seconds from spawning a fresh process until the workload is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name,
         str(seed)], cwd=ROOT, env=wl.child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    with proc:
        if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
            proc.kill()
            raise RuntimeError("set-up probe did not become ready")
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return elapsed


def batch_end_to_end(workload, args, ledger, expected, scratch):
    setups = [probe_setup(workload, args.seed) for _ in range(SETUPS)]
    rounds = wl.run_rounds(workload, args.seed, args.seconds,
                           wl.Campaigns(), ledger, expected)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rates = [sum(wl.work_units(workload, res) for res in r.results
                 if res is not None) / r.seconds for r in rounds]
    notes = run_notes(workload, rounds, expected)
    if workload.name == "throughput-fig10":
        notes["slots_per_s"] = median(
            [sum(res.counts["slots"] for res in r.results
                 if res is not None) / r.seconds for r in rounds])
    result_ms = [ms for r in rounds
                 for ms in r.result_ms(workload.result_per_spec)]
    return end_to_end(median(rates), result_ms, setups,
                      peak_kb / 1024.0), notes, None


def service_end_to_end(workload, args, ledger, expected, scratch):
    setups = []
    for i in range(SETUPS - 1):
        server = wl.Server(scratch / f"setup{i}", scratch / f"setup{i}.log")
        setups.append(server.setup_s)
        server.stop()
    rounds, facts = serve_rounds(args, ledger, scratch / "run", args.seconds)
    setups.append(facts["setup_s"])
    wl.verify_served(rounds, wl.Campaigns(), ledger, expected)
    hits = [ms for r in rounds for ms in r.hits]
    computes = [ms for r in rounds for ms in r.computes]
    rates = [(len(r.hits) + len(r.computes)) / r.seconds for r in rounds]
    notes = run_notes(workload, rounds, expected)
    if computes:
        t = tail(computes)
        notes["miss_and_refine_ms"] = (
            f"p50 {median(computes):.4g}, p{t.percentile:.1f} "
            f"{t.value:.4g} of {t.samples}")
    return end_to_end(median(rates), hits or [0.0], setups,
                      facts["peak_rss_mb"]), notes, None


def run_notes(workload, rounds, expected) -> dict:
    notes = {"rounds": len(rounds), "work_unit": workload.work,
             "result": workload.result}
    if expected is not None:
        notes["expected"] = wl.expected_note(rounds, expected)
    return notes


def end_to_end(work_per_s, result_ms, setups, peak_mb):
    return {
        "work_per_s": (work_per_s, "1/s"),
        "result_ms_p50": (median(result_ms), "ms"),
        "result_ms_tail": (tail(result_ms), "ms"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def batch_layers(workload, args, ledger, expected, scratch):
    plain = wl.run_rounds(workload, args.seed, args.seconds / 2,
                          wl.Campaigns(), ledger, expected)
    tracer = Tracer()
    runner = wl.Campaigns(tracer)
    traced = wl.run_rounds(workload, args.seed, 0, runner, ledger,
                           expected, replay=plain)
    overhead = (sum(r.seconds for r in traced)
                / sum(r.seconds for r in plain) - 1.0)
    notes = {**run_notes(workload, traced, expected),
             "traced_work": runner.counters}
    return layer_metrics(tracer, runner.counters, overhead), notes, tracer


def service_layers(workload, args, ledger, expected, scratch):
    plain = serve_rounds(args, ledger, scratch / "plain", args.seconds / 2)[0]
    tracer = Tracer()
    traced, service = serve_rounds(args, ledger, scratch / "traced",
                                   args.seconds / 2, tracer,
                                   replay=len(plain))
    for r, (a, b) in enumerate(zip(plain, traced, strict=True)):
        for (label, _), x, y in zip(a.specs, a.results, b.results,
                                    strict=True):
            same = x is not None and y is not None and \
                wl.fingerprint(x) == wl.fingerprint(y)
            ledger.record(same, f"{r}/{label}: traced and untraced "
                                f"served results differ")
    runner = wl.Campaigns(tracer)
    wl.verify_served(traced, runner, ledger, expected)
    overhead = (sum(r.seconds for r in traced)
                / sum(r.seconds for r in plain) - 1.0)
    metrics = layer_metrics(tracer, runner.counters, overhead, service)
    notes = {**run_notes(workload, traced, expected),
             "jobs_run": service["jobs_run"],
             "http_ms_p50": {route: median(ms) for route, ms
                             in service["route_ms"].items()},
             "traced_work": runner.counters}
    return metrics, notes, tracer


def serve_rounds(args, ledger, scratch, seconds, tracer=None, replay=None):
    """Service rounds on a fresh server: ``(rounds, facts)``.

    The facts are the server's set-up time and peak RSS, ``/healthz``
    ``jobs_run``, the per-layer service metrics and each route's round
    trips.
    """
    server = wl.Server(scratch / "store", scratch.with_suffix(".log"))
    try:
        client = wl.Client(server.port, tracer)
        session = wl.ServiceSession(client, ledger, args.seed)
        rounds = session.run(args.seed, seconds, replay=replay)
        computed = 2 * len(rounds)
        jobs = wl.jobs_run(client, ledger, computed)
        peak_mb = server.peak_rss_mb()
        client.close()
    finally:
        server.stop()
    polls = sum(r.polls for r in rounds)
    facts = {
        "setup_s": server.setup_s,
        "peak_rss_mb": peak_mb,
        "jobs_run": jobs,
        "service.cache_hit_ratio": session.cache_hits / max(1, session.posts),
        "service.polls_per_result": polls / max(1, computed),
        "store.bytes_per_result": wl.store_bytes(scratch / "store")
        / max(1, computed),
        "route_ms": client.times,
    }
    return rounds, facts


LAYER_SHARES = {
    "campaign.self_share": "campaign",
    "executor.self_share": "chunk",
    "sim.sample_share": "stage.sample",
    "sim.extract_share": "stage.extract",
    "sim.detect_share": "stage.detect",
    "sim.decode_share": "stage.decode",
    "sim.accumulate_share": "stage.accumulate",
    "arch.share": "arch",
    "trace.count_share": "trace.count",
}

SERVICE_UNITS = {
    "service.cache_hit_ratio": "ratio",
    "service.polls_per_result": "ratio",
    "store.bytes_per_result": "bytes",
}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 where the layer did no work (``den`` is 0)."""
    return num / den if den else 0.0


def layer_metrics(tracer, counters, overhead, service=None):
    """Per-layer metrics from the spans and counters of a traced run.

    Shares divide a layer's self time by the summed ``campaigns.run``
    spans, so together they account for those spans exactly.  Work
    counts are given per shot or per slot and rates per second of the
    layer's self time, so that they do not grow with the number of
    rounds a run fits in.
    """
    own = tracer.self_time_by_name()
    span_total = sum(tracer.durations("campaign"))
    units = [1e3 * d for d in tracer.durations("chunk", "arch")] or [0.0]
    runs = [1e3 * t for span, t in zip(tracer.spans, tracer.self_times(),
                                       strict=True)
            if span.name == "campaign"] or [0.0]
    c = counters
    metrics = {
        "campaign.self_ms_p50": (median(runs), "ms"),
        "chunk.ms_p50": (median(units), "ms"),
        "chunk.ms_tail": (tail(units), "ms"),
        "trace.overhead": (overhead, "ratio"),
    }
    for metric, name in LAYER_SHARES.items():
        metrics[metric] = (ratio(own.get(name, 0.0), span_total), "ratio")
    metrics.update({
        "sim.active_nodes_per_shot": (ratio(c["active_nodes"], c["shots"]),
                                      "count"),
        "decode.pairs_per_shot": (ratio(c["decode_pairs"], c["shots"]),
                                  "count"),
        "sample.shots_per_s": (
            ratio(c["shots"], own.get("stage.sample", 0.0)), "1/s"),
        "decode.pairs_per_s": (
            ratio(c["decode_pairs"], own.get("stage.decode", 0.0)), "1/s"),
        "detect.cells_per_s": (
            ratio(c["detect_cells"], own.get("stage.detect", 0.0)), "1/s"),
        "arch.slots_per_s": (ratio(c["slots"], own.get("arch", 0.0)),
                             "1/s"),
        "arch.strikes_per_slot": (ratio(c["strikes"], c["slots"]), "ratio"),
        "arch.slots_per_instruction": (ratio(c["slots"], c["instructions"]),
                                       "ratio"),
    })
    for name, unit in SERVICE_UNITS.items():
        metrics[name] = ((service or {}).get(name, 0), unit)
    return metrics


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def report(metrics, notes, ledger, summary_path: Path) -> None:
    out, tails = {}, {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, Tail):
            tails[name] = {"percentile": value.percentile,
                           "samples": value.samples, "beyond": value.beyond}
            print(f"{name} = {value.value:.6g} {unit} (p{value.percentile:.1f}"
                  f" of {value.samples} samples, {value.beyond} beyond)")
            value = value.value
        else:
            print(f"{name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    for note, value in notes.items():
        print(f"# {note}: {value}")
    for failure in ledger.failures[:20]:
        print(f"# FAILED: {failure}")
    summary_path.parent.mkdir(parents=True, exist_ok=True)
    summary_path.write_text(json.dumps(
        {"metrics": out, "tails": tails, "notes": notes,
         "attempted": ledger.attempted, "failures": ledger.failures},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not ledger.failures,
                      "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": out}))


if __name__ == "__main__":
    sys.exit(main())

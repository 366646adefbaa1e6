"""The scenario catalog: beyond-Fig.-8 stress cases through ``run()``.

Drives every entry of :mod:`repro.scenarios.catalog` — overlapping
strikes, back-to-back strikes, heterogeneous and drifting base rates,
a long-lived leakage burst, and the greedy-vs-MWPM decoder frontier —
through the unified campaign entry point, and records each entry's
headline numbers as its own ``scenario_*`` section of
``BENCH_batch.json`` so the catalog's trajectory is guarded by
``compare_bench.py`` alongside the engine bars.

One certification contract rides along as ``*_bit_equal`` flags (any
flip off ``true`` fails the trajectory compare at every tolerance): the
degenerate single-fixed-event, uniform-base scenario campaign is
bit-identical per ``(seed, batch_size)`` to the legacy
``AnomalousRegion`` campaign, across the memory / end-to-end /
detection engines (docs/CONTRACTS.md).
"""

import time

import numpy as np

import pytest

from repro import campaigns
from repro.noise import AnomalousRegion
from repro.scenarios import Scenario, StrikeEvent, catalog_spec, \
    scenario_catalog

from _common import emit_json, mc_samples, print_table

#: Catalog entries driven one campaign at a time (the sweep entry,
#: ``decoder-frontier``, gets its own bench below).
SINGLE_ENTRIES = ("overlapping-strikes", "back-to-back-strikes",
                  "heterogeneous-base-rate", "drifting-base-rate",
                  "leakage-burst")

#: Headline estimate per engine mode (the entry's one-number summary).
HEADLINE = {"memory": "per_run", "endtoend": "detected_failure_rate",
            "detection": "miss_rate"}


def _entry_shots(spec) -> int:
    """The bench-depth shot request for one catalog entry.

    Memory entries run at the Monte-Carlo depth knob; detection and
    end-to-end entries simulate hundreds of cycles per shot, so they
    run at a tenth of it (matching their catalog defaults at the
    committed ``REPRO_SAMPLES``).
    """
    samples = mc_samples()
    if spec.mode == "memory":
        return max(32, samples)
    return max(8, samples // 10)


def _run_entry(name: str):
    """Run one catalog entry at bench depth; returns (spec, result, s)."""
    spec = catalog_spec(name)
    spec = catalog_spec(name, shots=_entry_shots(spec))
    start = time.perf_counter()
    result = campaigns.run(spec)
    return spec, result, time.perf_counter() - start


@pytest.mark.benchmark(group="scenarios")
def bench_scenario_catalog(benchmark):
    """Every single-campaign catalog entry through ``campaigns.run``."""
    rows = []

    def run():
        out = []
        for name in SINGLE_ENTRIES:
            out.append((name, *_run_entry(name)))
        return out

    for name, spec, result, elapsed in benchmark.pedantic(
            run, rounds=1, iterations=1):
        headline = HEADLINE[spec.mode]
        value = result.estimates[headline]
        events = len(spec.scenario.events)
        rows.append([name, spec.mode, events, spec.shots, headline,
                     value, f"{elapsed:.2f}"])
        emit_json("batch", f"scenario_{name.replace('-', '_')}", {
            "mode": spec.mode,
            "events": events,
            "shots": spec.shots,
            headline: value,
            "wall_clock_s": elapsed,
        })

    print_table(
        "Scenario catalog (one campaign per entry)",
        ["entry", "mode", "events", "shots", "headline", "value", "s"],
        rows)


@pytest.mark.benchmark(group="scenarios")
def bench_scenario_legacy_equivalence(benchmark):
    """Single-event scenario campaigns vs their legacy counterparts.

    The contract (docs/CONTRACTS.md): a uniform-base scenario holding
    one fixed event draws the identical uniform stream as the legacy
    ``AnomalousRegion`` path, so the campaigns' counts and estimates
    are bit-equal per ``(seed, batch_size)``.
    """
    samples = mc_samples()
    flags = {}

    def _pair(mode: str) -> bool:
        if mode == "memory":
            legacy = campaigns.MemorySpec(
                distance=7, p=0.01, samples=samples,
                region=AnomalousRegion(1, 1, 3), informed=True,
                cycles=12, seed=11, batch_size=64)
            scen = campaigns.ScenarioSpec(
                distance=7, p=0.01, shots=samples, mode="memory",
                informed=True, cycles=12, seed=11, batch_size=64,
                scenario=Scenario(events=(
                    StrikeEvent(onset=0, size=3, row=1, col=1),)))
        elif mode == "endtoend":
            legacy = campaigns.EndToEndSpec(
                distance=7, p=0.005, shots=max(8, samples // 10),
                onset=150, cycles=300, n_th=8, seed=5, batch_size=16)
            scen = campaigns.ScenarioSpec(
                distance=7, p=0.005, shots=max(8, samples // 10),
                mode="endtoend", cycles=300, n_th=8, seed=5,
                batch_size=16,
                scenario=Scenario(events=(
                    StrikeEvent(onset=150, size=4),)))
        else:
            legacy = campaigns.DetectionSpec(
                distance=9, p=0.005, p_ano=0.5, anomaly_size=4,
                c_win=100, n_th=8, trials=max(8, samples // 10),
                normal_cycles=200, post_cycles=400, seed=3,
                batch_size=8)
            scen = campaigns.ScenarioSpec(
                distance=9, p=0.005, shots=max(8, samples // 10),
                mode="detection", c_win=100, n_th=8, post_cycles=400,
                seed=3, batch_size=8,
                scenario=Scenario(events=(
                    StrikeEvent(onset=200, duration=400, size=4),)))
        a, b = campaigns.run(legacy), campaigns.run(scen)
        return a.counts == b.counts and a.estimates == b.estimates

    def run():
        for mode in ("memory", "endtoend", "detection"):
            flags[f"{mode}_bits_bit_equal"] = _pair(mode)

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table("Scenario == legacy certification",
                ["pair", "bit-equal"],
                [[key, value] for key, value in flags.items()])
    emit_json("batch", "scenario_equivalence",
              {**flags, "samples": samples})
    assert all(flags.values()), f"legacy equivalence broken: {flags}"


@pytest.mark.benchmark(group="scenarios")
def bench_scenario_decoder_frontier(benchmark):
    """Greedy vs exact MWPM on the catalog's frontier sweep.

    Reports each decoder family's logical error rate and wall clock on
    the same anomalous-patch campaign (identical derived seeds), plus
    the greedy decoder's throughput advantage — the paper's
    hardware-decoder trade-off, measured.
    """
    shots = mc_samples()
    sweep = catalog_spec("decoder-frontier", shots=shots)

    def run():
        out = {}
        for overrides, spec in sweep.points():
            start = time.perf_counter()
            result = campaigns.run(spec)
            out[overrides["decoder"]] = (
                result, time.perf_counter() - start)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    (greedy, greedy_s) = results["greedy"]
    (mwpm, mwpm_s) = results["mwpm"]

    print_table(
        f"Decoder frontier (d=5 anomalous patch, {shots} shots)",
        ["decoder", "per_run", "failures", "wall clock (s)"],
        [["greedy", greedy.estimates["per_run"],
          greedy.counts["failures"], f"{greedy_s:.2f}"],
         ["mwpm", mwpm.estimates["per_run"],
          mwpm.counts["failures"], f"{mwpm_s:.2f}"]])

    emit_json("batch", "scenario_decoder_frontier", {
        "shots": shots,
        "per_run": {"greedy": greedy.estimates["per_run"],
                    "mwpm": mwpm.estimates["per_run"]},
        "wall_clock_s": {"greedy": greedy_s, "mwpm": mwpm_s},
        "greedy_throughput_ratio": mwpm_s / greedy_s,
    })


def smoke() -> None:
    """One cheap campaign per engine path (bench_smoke marker)."""
    names = list(scenario_catalog())
    assert len(names) >= 6, f"catalog shrank: {names}"
    for name in ("overlapping-strikes", "leakage-burst"):
        spec = catalog_spec(name, shots=8, batch_size=4)
        result = campaigns.run(spec)
        assert result.counts["requested"] == 8
    sweep = catalog_spec("decoder-frontier", shots=8, batch_size=4)
    res = campaigns.run(sweep)
    assert len(res) == 2
    # The tiny legacy-equivalence probe: memory engine, packed.
    legacy = campaigns.MemorySpec(
        distance=5, p=0.02, samples=32, region=AnomalousRegion(1, 1, 2),
        informed=True, seed=9, batch_size=16)
    scen = campaigns.ScenarioSpec(
        distance=5, p=0.02, shots=32, mode="memory", informed=True,
        seed=9, batch_size=16,
        scenario=Scenario(events=(StrikeEvent(onset=0, size=2,
                                              row=1, col=1),)))
    a, b = campaigns.run(legacy), campaigns.run(scen)
    assert a.counts == b.counts and a.estimates == b.estimates
    assert np.isfinite(b.estimates["per_cycle_std_error"])

"""Batched shot engine vs the sequential per-shot path.

Times the Fig. 8 workload (the repo's heaviest Monte-Carlo hot path) at
equal sample counts through a sequential per-shot loop (float sampling,
per-shot extraction, the unpruned greedy decode) and the bit-packed
batch engine, and prints the speedup table.  The acceptance bars: the
batch engine pays for itself >= 5x over the sequential path; the
bit-packed sampling + syndrome-extraction stage delivers >= 3x
throughput over float sampling with per-shot node extraction, with
per-shot sample storage cut ~50x (8 bytes per sampled bit materialized
by the float64 draw vs one bit per bit plus a fixed scratch: one float
piece and one word of bools); and the cross-shot bucketed decode engine
delivers >= 3x
decode-stage throughput over a per-shot decode loop on the same grid.

The batched results are also cross-checked for determinism and for the
certification contracts: a repeated campaign must give the same failure
counts, and the per-shot decode loops (``greedy_cut_parity`` and the
end-to-end kernel's ``_score``) must reproduce the batched campaigns bit
for bit at the same ``(seed, batch_size)`` — speed must not cost
reproducibility.

Stage throughputs and speedup ratios accumulate in ``BENCH_batch.json``
(see benchmarks/README.md for the schema) so the perf trajectory stays
machine-readable across PRs.
"""

import tempfile
import time
import tracemalloc

import numpy as np
import pytest

from repro import campaigns
from repro.campaigns.checkpoint import CheckpointStore
from repro.decoding.graph import SyndromeLattice
from repro.noise import AnomalousRegion
from repro.decoding.greedy import GreedyDecoder, greedy_cut_parity
from repro.decoding.weights import DistanceModel, relative_anomalous_weight
from repro.noise.models import PACKED_SAMPLE_UNIFORMS, PhenomenologicalNoise
from repro.scenarios import Scenario, StrikeEvent
from repro.sim import bitops
from repro.sim.batch import EndToEndShotKernel, MemoryShotKernel, chunk_plan

from _common import emit_json, mc_samples, mc_workers, print_table, scale

DISTANCES = [9, 13]
PHYSICAL_RATES = [8e-3, 1.5e-2, 2.5e-2]
ANOMALY_SIZE = 4


def _points():
    """The Fig. 8 rate grid: free / naive / informed per (d, p)."""
    points = []
    for d in DISTANCES:
        region = AnomalousRegion.centered(d, ANOMALY_SIZE)
        for p in PHYSICAL_RATES:
            points.append((f"d={d} p={p} free", d, p, None, False))
            points.append((f"d={d} p={p} naive", d, p, region, False))
            points.append((f"d={d} p={p} rollback", d, p, region, True))
    return points


def _sequential_failures(d: int, p: float, region, informed: bool,
                         samples: int, rng) -> int:
    """One grid point shot by shot: float sampling, per-shot node
    extraction and the unpruned greedy decode, streamed from ``rng``."""
    noise = PhenomenologicalNoise(d, p, Scenario.from_region(region))
    lattice = SyndromeLattice(d)
    if informed and region is not None:
        model = DistanceModel(d, region, relative_anomalous_weight(p, 0.5))
    else:
        model = DistanceModel(d)
    decoder = GreedyDecoder(model)
    failures = 0
    for _ in range(samples):
        v, h, m = noise.sample(d, rng)
        nodes = lattice.detection_events(v, h, m)
        failures += (lattice.error_cut_parity(v)
                     ^ decoder.decode(nodes).correction_cut_parity)
    return failures


def _sequential_campaign(samples: int) -> float:
    """Wall clock of the whole grid through the per-shot loop."""
    start = time.perf_counter()
    for idx, (_, d, p, region, informed) in enumerate(_points()):
        _sequential_failures(d, p, region, informed, samples,
                             np.random.default_rng(idx))
    return time.perf_counter() - start


def _campaign(samples: int, workers: int) -> tuple[float, list[int]]:
    """Wall clock and failure counts of the grid as ``MemorySpec``s."""
    executor = campaigns.default_executor(workers)
    start = time.perf_counter()
    failures = []
    for idx, (_, d, p, region, informed) in enumerate(_points()):
        spec = campaigns.MemorySpec(distance=d, p=p, samples=samples,
                                    region=region, informed=informed,
                                    seed=idx)
        failures.append(
            campaigns.run(spec, executor=executor).counts["failures"])
    return time.perf_counter() - start, failures


@pytest.mark.benchmark(group="batch")
def bench_batch_engine_speedup(benchmark):
    """Whole Fig. 8 grid: sequential vs the bit-packed batch engine."""
    samples = mc_samples()
    workers = max(1, mc_workers())

    def run():
        seq_time = _sequential_campaign(samples)
        bit_time, bit_failures = _campaign(samples, workers)
        _, rep_failures = _campaign(samples, workers)
        return seq_time, bit_time, bit_failures, rep_failures

    seq_time, bit_time, bit_failures, rep_failures = benchmark.pedantic(
        run, rounds=1, iterations=1)

    print_table(
        f"Batch engine speedup (Fig. 8 grid, {samples} samples/point, "
        f"workers={workers})",
        ["engine", "wall clock (s)", "speedup"],
        [["sequential (per-shot loop)", f"{seq_time:.2f}", "1.0x"],
         ["batched bit-packed", f"{bit_time:.2f}",
          f"{seq_time / bit_time:.1f}x"]])

    # Reproducibility: the same seeds must give the same counts.
    assert bit_failures == rep_failures, \
        "a repeated batched campaign changed its failure counts"
    # The acceptance bar: the batch engine pays for itself >= 5x.
    speedup = seq_time / bit_time
    emit_json("batch", "campaign", {
        "samples_per_point": samples,
        "workers": workers,
        "wall_clock_s": {"sequential": seq_time, "batched_bits": bit_time},
        "speedup_vs_sequential": {"batched_bits": speedup},
        "failures_bit_equal": True,
    })
    assert speedup >= 5.0, f"batch speedup {speedup:.2f}x < 5x"


def _float_stage(noise: PhenomenologicalNoise, lattice: SyndromeLattice,
                 shots: int, cycles: int, rng) -> None:
    """Float sampling, then every shot's active nodes and cut parity."""
    v, h, m = noise.sample_batch(shots, cycles, rng)
    diff = lattice.difference_lattice(lattice.measured_layers(v, h, m))
    coords = np.argwhere(diff.astype(bool))
    bounds = np.searchsorted(coords[:, 0], np.arange(shots + 1))
    [coords[bounds[s]:bounds[s + 1], 1:] for s in range(shots)]
    lattice.error_cut_parity(v)


def _packed_stage(noise: PhenomenologicalNoise, lattice: SyndromeLattice,
                  shots: int, cycles: int, rng) -> None:
    v, h, m = noise.sample_batch_packed(shots, cycles, rng)
    lattice.detection_events_packed(v, h, m)
    lattice.error_cut_parity_packed(v)


def _time_and_peak(fn, repeats: int = 3) -> tuple[float, int]:
    fn(0)  # warm-up (allocators, ufunc dispatch)
    start = time.perf_counter()
    for r in range(repeats):
        fn(r)
    elapsed = (time.perf_counter() - start) / repeats
    tracemalloc.start()
    fn(0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return elapsed, peak


@pytest.mark.benchmark(group="batch")
def bench_packed_sampling_stage(benchmark):
    """Sampling + syndrome extraction: float vs bit-packed backend.

    This is the stage the bit-packed backend rewrites (the matching
    itself is shared, shot by shot, between both backends), measured at
    a campaign-scale batch on the Fig. 8 grid.  Bars: >= 3x aggregate
    throughput, ~50x smaller per-shot sample storage (reported model:
    8 B float64 draw + 1 B bool stored per sampled bit, against 1 bit
    stored plus the fixed scratch of one float piece and one word of
    bools), and the measured whole-stage peak (which also carries the
    active-node coordinate arrays both backends hand to the decoder)
    >= 10x smaller.
    """
    # Batch size of a paper-scale packed campaign, not the MC depth knob.
    # The storage model amortizes the fixed scratch over the batch, so
    # REPRO_SCALE may grow the batch but never shrink it below the
    # regime the ~50x claim (and its assertion) is about.
    shots = max(8192, int(8192 * scale()))
    rows = []
    float_total = packed_total = 0.0
    mem_ratios = []
    storage_ratios = []

    def run():
        nonlocal float_total, packed_total
        for d in DISTANCES:
            p = PHYSICAL_RATES[-1]  # activity, not rate, drives the stage
            noise = PhenomenologicalNoise(d, p, Scenario.from_region(
                AnomalousRegion.centered(d, ANOMALY_SIZE)))
            lattice = SyndromeLattice(d)
            flt_t, flt_peak = _time_and_peak(
                lambda r, noise=noise, lattice=lattice, d=d:
                    _float_stage(noise, lattice, shots, d,
                                 np.random.default_rng(r)))
            bit_t, bit_peak = _time_and_peak(
                lambda r, noise=noise, lattice=lattice, d=d:
                    _packed_stage(noise, lattice, shots, d,
                                  np.random.default_rng(r)))
            float_total += flt_t
            packed_total += bit_t
            mem_ratios.append(flt_peak / bit_peak)

            # Per-shot sample storage model, from real array sizes.  The
            # packed scratch of the largest array (v) is one float piece
            # of whole shots (at most PACKED_SAMPLE_UNIFORMS uniforms and
            # one word of shots) plus one word of bools and its
            # lanes-last copy inside pack_shots.
            bits_per_shot = d * (d * d + (d - 1) ** 2 + (d - 1) * d)
            float_bytes = 9.0 * bits_per_shot  # 8 B draw + 1 B stored
            v_bits = d * d * d
            piece = min(bitops.WORD_BITS,
                        max(1, PACKED_SAMPLE_UNIFORMS // v_bits))
            packed_bytes = (bits_per_shot / 8.0
                            + (8.0 * piece + 2.0 * bitops.WORD_BITS)
                            * v_bits / shots)
            storage_ratios.append(float_bytes / packed_bytes)
            rows.append([f"d={d} p={p}",
                         f"{flt_t * 1e3:.0f} / {bit_t * 1e3:.0f}",
                         f"{flt_t / bit_t:.1f}x",
                         f"{flt_peak / 1e6:.0f} / {bit_peak / 1e6:.1f}",
                         f"{flt_peak / bit_peak:.0f}x",
                         f"{float_bytes / 1e3:.0f} / "
                         f"{packed_bytes / 1e3:.2f}",
                         f"{float_bytes / packed_bytes:.0f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Bit-packed sampling + extraction stage ({shots} shots/batch)",
        ["point", "float/bits (ms)", "speedup",
         "peak float/bits (MB)", "peak ratio",
         "sample KB/shot float/bits", "storage ratio"],
        rows)

    throughput = float_total / packed_total
    emit_json("batch", "packed_sampling_stage", {
        "shots_per_batch": shots,
        "throughput_ratio": throughput,
        "storage_ratio_min": min(storage_ratios),
        "measured_peak_ratio_min": min(mem_ratios),
    })
    assert throughput >= 3.0, \
        f"packed stage throughput {throughput:.2f}x < 3x"
    assert min(storage_ratios) >= 40.0, \
        f"sample storage reduction {min(storage_ratios):.0f}x < ~50x"
    assert min(mem_ratios) >= 10.0, \
        f"measured stage peak reduction {min(mem_ratios):.0f}x < 10x"


def _memory_kernel(d, p, region, informed) -> MemoryShotKernel:
    kernel = MemoryShotKernel(d, p, Scenario.from_region(region),
                              informed=informed)
    kernel.prepare()
    return kernel


def _decode_stage_data(d, p, region, informed, shots, seed):
    """Sample + extract one packed chunk for a prepared kernel."""
    kernel = _memory_kernel(d, p, region, informed)
    noise, lattice, _, _ = kernel._state
    v, h, m = noise.sample_batch_packed(shots, d,
                                        np.random.default_rng(seed))
    coords, vals, bounds = lattice.detection_events_packed(v, h, m)
    parity_words = lattice.error_cut_parity_packed(v)
    return kernel, lattice, coords, vals, bounds, parity_words


def _decode_stage_pershot(kernel, lattice, coords, vals, bounds,
                          parity_words, shots):
    """The per-shot decode loop: lane unpack + ``greedy_cut_parity``."""
    model = kernel._state[2]
    out = np.empty(shots, dtype=np.int8)
    for s in range(shots):
        nodes = lattice.shot_nodes(coords, vals, bounds, s)
        out[s] = (bitops.lane_bit(parity_words, s)
                  ^ greedy_cut_parity(model, nodes))
    return out


def _decode_stage_batched(kernel, lattice, coords, vals, parity_words,
                          shots):
    """The bucketed engine: bulk node gather + cross-shot decode."""
    nodes, offsets = lattice.shot_nodes_bulk(coords, vals, shots)
    nodes_list = [nodes[offsets[s]:offsets[s + 1]] for s in range(shots)]
    err = bitops.unpack_shots(parity_words, shots).astype(np.int8)
    return err ^ kernel._cut_parities(nodes_list)


@pytest.mark.benchmark(group="batch")
def bench_decode_stage_speedup(benchmark):
    """Decode stage: bucketed batched engine vs a per-shot loop.

    Same packed chunk, same model, outputs asserted bit-equal; the
    acceptance bar is >= 3x aggregate decode-stage throughput on the
    Fig. 8 grid (NumPy backend).  A batched campaign's failure count is
    also asserted equal to the per-shot loop's over the same chunk plan
    (same ``(seed, batch_size)``).
    """
    shots = max(1024, int(1024 * scale()))
    repeats = 5
    rows = []
    points = []
    pershot_total = batched_total = 0.0

    def run():
        nonlocal pershot_total, batched_total
        for idx, (label, d, p, region, informed) in enumerate(_points()):
            (kernel, lattice, coords, vals, bounds,
             parity_words) = _decode_stage_data(
                d, p, region, informed, shots, seed=idx)
            best = {}
            for mode in ("pershot", "batched"):
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    if mode == "pershot":
                        out = _decode_stage_pershot(
                            kernel, lattice, coords, vals, bounds,
                            parity_words, shots)
                    else:
                        out = _decode_stage_batched(
                            kernel, lattice, coords, vals, parity_words,
                            shots)
                    times.append(time.perf_counter() - start)
                # min over repeats: the least-interference estimate on
                # a noisy shared machine, applied to both engines alike
                best[mode] = (min(times), out)
            t_ps, out_ps = best["pershot"]
            t_bt, out_bt = best["batched"]
            assert np.array_equal(out_ps, out_bt), \
                f"batched decode diverged from per-shot on {label}"
            pershot_total += t_ps
            batched_total += t_bt
            points.append({"point": label, "pershot_s": t_ps,
                           "batched_s": t_bt})
            rows.append([label, f"{t_ps * 1e3:.0f}", f"{t_bt * 1e3:.0f}",
                         f"{t_ps / t_bt:.1f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = pershot_total / batched_total
    print_table(
        f"Decode stage: per-shot loop vs bucketed engine "
        f"({shots} shots/chunk, best of {repeats})",
        ["point", "per-shot (ms)", "batched (ms)", "speedup"],
        rows + [["TOTAL", f"{pershot_total * 1e3:.0f}",
                 f"{batched_total * 1e3:.0f}", f"{ratio:.1f}x"]])

    # Campaign-level certification: same (seed, batch_size), same counts.
    spec = campaigns.MemorySpec(
        distance=13, p=PHYSICAL_RATES[-1], samples=1024,
        region="centered", anomaly_size=ANOMALY_SIZE, informed=True,
        seed=71, batch_size=256)
    res = campaigns.run(spec, executor=campaigns.InlineExecutor())
    kernel = _memory_kernel(13, PHYSICAL_RATES[-1], spec.resolve_region(),
                            True)
    pershot = 0
    for size, child in chunk_plan(1024, 256, 71):
        state = kernel.pipeline().run_until(
            "extract", kernel._context(size, np.random.default_rng(child)))
        pershot += sum(
            int(err) ^ greedy_cut_parity(kernel._state[2], nodes)
            for err, nodes in zip(state.parities, state.nodes_list,
                                  strict=True))
    assert pershot == res.counts["failures"], \
        "batched campaign diverged from the per-shot decode loop"

    emit_json("batch", "decode_stage", {
        "shots_per_chunk": shots,
        "repeats_min_of": repeats,
        "pershot_total_s": pershot_total,
        "batched_total_s": batched_total,
        "throughput_ratio": ratio,
        "campaign_failures_bit_equal": True,
        "points": points,
    })
    assert ratio >= 3.0, f"decode-stage throughput {ratio:.2f}x < 3x"


def _strike(onset):
    """One Fig. 8 strike at ``onset``, re-drawn per shot (p_ano = 0.5)."""
    return Scenario(events=(StrikeEvent(onset=onset, size=ANOMALY_SIZE),))


def _e2e_kernel(d, p, onset, cycles, c_win) -> EndToEndShotKernel:
    """The end-to-end kernel for one Fig. 8 point."""
    kernel = EndToEndShotKernel(d, p, _strike(onset), cycles=cycles,
                                c_win=c_win, n_th=8, alpha=0.01)
    kernel.prepare()
    return kernel


def _e2e_pershot(kernel, chunk) -> np.ndarray:
    """The per-shot decode loop over a detected chunk: the naive
    matching by ``greedy_cut_parity``, then ``kernel._score`` for the
    oracle and detected ones, shot by shot."""
    nodes_list, parities, regions, detections = chunk
    out = np.empty((len(nodes_list), 4), dtype=np.int64)
    for s, (estimated, latency) in enumerate(detections):
        naive = greedy_cut_parity(kernel._state[3], nodes_list[s])
        out[s, :3] = kernel._score(nodes_list[s], int(parities[s]), naive,
                                   regions[s], estimated)
        out[s, 3] = latency
    return out


@pytest.mark.benchmark(group="batch")
def bench_e2e_decode_stage_speedup(benchmark):
    """End-to-end decode stage: region-bucketed engine vs per-shot loop.

    The campaign's naive/oracle/detected triple used to decode shot by
    shot because every shot carries its own strike region (true and
    estimated, with per-shot onsets).  The region-aware engine folds
    those boxes into its bucket tensors, so the whole chunk decodes in
    a handful of vectorized passes.  Same chunk, same models, outputs
    asserted bit-equal; the acceptance bar is >= 3x aggregate
    decode-stage throughput on the Fig. 8 end-to-end grid.
    """
    shots = max(128, int(128 * scale()))
    repeats = 3
    onset, c_win = 60, 40
    rows = []
    points = []
    pershot_total = batched_total = 0.0

    def run():
        nonlocal pershot_total, batched_total
        for idx, d in enumerate(DISTANCES):
            for p in PHYSICAL_RATES:
                label = f"d={d} p={p}"
                kernel = _e2e_kernel(d, p, onset, onset + 2 * d, c_win)
                chunk = kernel._chunk_packed(
                    shots, np.random.default_rng(idx))
                best = {}
                for mode in ("pershot", "batched"):
                    times = []
                    for _ in range(repeats):
                        start = time.perf_counter()
                        out = (_e2e_pershot(kernel, chunk)
                               if mode == "pershot"
                               else kernel._assemble(*chunk))
                        times.append(time.perf_counter() - start)
                    # min over repeats: least-interference estimate,
                    # applied to both engines alike
                    best[mode] = (min(times), out)
                t_ps, out_ps = best["pershot"]
                t_bt, out_bt = best["batched"]
                assert np.array_equal(out_ps, out_bt), \
                    f"region-bucketed decode diverged on {label}"
                pershot_total += t_ps
                batched_total += t_bt
                points.append({"point": label, "pershot_s": t_ps,
                               "batched_s": t_bt})
                rows.append([label, f"{t_ps * 1e3:.0f}",
                             f"{t_bt * 1e3:.0f}",
                             f"{t_ps / t_bt:.1f}x"])

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = pershot_total / batched_total
    print_table(
        f"End-to-end decode stage: per-shot loop vs region-bucketed "
        f"engine ({shots} shots/chunk, best of {repeats})",
        ["point", "per-shot (ms)", "batched (ms)", "speedup"],
        rows + [["TOTAL", f"{pershot_total * 1e3:.0f}",
                 f"{batched_total * 1e3:.0f}", f"{ratio:.1f}x"]])

    # Campaign-level certification: same (seed, batch_size), same rows —
    # the campaign's read back chunk by chunk from its checkpoint shard,
    # the per-shot loop's decoded over the same chunk plan.
    spec = campaigns.ScenarioSpec(
        9, PHYSICAL_RATES[0], 192, _strike(onset), mode="endtoend",
        cycles=onset + 18, c_win=c_win, n_th=8, alpha=0.01, seed=71,
        batch_size=64)
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp)
        campaigns.run(spec, executor=campaigns.InlineExecutor(),
                      checkpoint=store)
        chunks = store.shard(spec).load()
    batched = np.concatenate([chunks[i] for i in sorted(chunks)])
    kernel = _e2e_kernel(9, PHYSICAL_RATES[0], onset, onset + 18, c_win)
    pershot = np.concatenate([
        _e2e_pershot(kernel, kernel._chunk_packed(
            size, np.random.default_rng(child)))
        for size, child in chunk_plan(192, 64, 71)])
    assert np.array_equal(pershot, batched), \
        "region-bucketed campaign diverged from the per-shot path"

    emit_json("batch", "e2e_decode_stage", {
        "shots_per_chunk": shots,
        "repeats_min_of": repeats,
        "pershot_total_s": pershot_total,
        "batched_total_s": batched_total,
        "throughput_ratio": ratio,
        "campaign_rows_bit_equal": True,
        "points": points,
    })
    assert ratio >= 3.0, \
        f"e2e decode-stage throughput {ratio:.2f}x < 3x"


@pytest.mark.benchmark(group="batch")
def bench_batch_single_point_timing(benchmark):
    """Time the heaviest single point (d=13, p=2.5e-2, informed)."""
    samples = mc_samples()
    spec = campaigns.MemorySpec(
        distance=13, p=2.5e-2, samples=samples,
        region=AnomalousRegion.centered(13, ANOMALY_SIZE), informed=True,
        seed=5)
    result = benchmark.pedantic(
        campaigns.run, args=(spec,),
        kwargs=dict(executor=campaigns.default_executor(
            max(1, mc_workers()))),
        rounds=1, iterations=1)
    assert result.counts["samples"] == samples


def smoke() -> None:
    """One tiny grid point per engine path (bench_smoke marker)."""
    region = AnomalousRegion.centered(5, 2)
    spec = campaigns.MemorySpec(distance=5, p=2.5e-2, samples=32,
                                region=region, informed=True, seed=3)
    executor = campaigns.default_executor(1)
    assert (campaigns.run(spec, executor=executor).counts
            == campaigns.run(spec, executor=executor).counts)
    assert 0 <= _sequential_failures(5, 2.5e-2, region, True, 8,
                                     np.random.default_rng(0)) <= 8
    noise = PhenomenologicalNoise(5, 2.5e-2)
    _float_stage(noise, SyndromeLattice(5), 70, 5,
                 np.random.default_rng(0))
    kernel, lattice, coords, vals, bounds, parity_words = \
        _decode_stage_data(5, 2.5e-2, AnomalousRegion.centered(5, 2),
                           True, 40, seed=1)
    ps = _decode_stage_pershot(kernel, lattice, coords, vals, bounds,
                               parity_words, 40)
    bt = _decode_stage_batched(kernel, lattice, coords, vals,
                               parity_words, 40)
    assert np.array_equal(ps, bt)
    e2e = _e2e_kernel(5, 2.5e-2, 20, 36, 12)
    chunk = e2e._chunk_packed(24, np.random.default_rng(2))
    assert np.array_equal(_e2e_pershot(e2e, chunk), e2e._assemble(*chunk))

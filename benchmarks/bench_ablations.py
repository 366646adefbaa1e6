"""Ablations of Q3DE's design choices (called out in DESIGN.md).

1. **Matching-queue batch size** -- Sec. VI-C claims total rollback
   buffer memory is minimized at ``c_bat = sqrt(2 c_win)``.
2. **Decoder family** -- the architecture targets the greedy decoder for
   its constant-time distance queries; how much accuracy does it give up
   against exact MWPM (Blossom)?
3. **Detection-driven vs oracle re-execution** -- Fig. 8 idealizes
   "with rollback" as knowing the true region; the end-to-end run uses
   the *detected* region and measures what the estimation error costs.
"""

import math
import time

import pytest

from repro import campaigns
from repro.arch.buffers import optimal_batch_cycles

from _common import emit_json, mc_samples, mc_workers, print_table

# Campaign seeds, int(np.random.default_rng(s).integers(2**63)) for
# s = 31, 32 (decoder family), 7 (detected vs oracle) and 2 (smoke):
# the values this bench's sections have always run at.
GREEDY_SEED = 8330289625267613135
MWPM_SEED = 1477979240785099646
ENDTOEND_SEED = 5765488047046174021
SMOKE_SEED = 2412946043537042528


def _per_cycle(d, p, samples, decoder, seed, workers):
    """One ``MemorySpec`` point's per-cycle logical error rate."""
    spec = campaigns.MemorySpec(distance=d, p=p, samples=samples,
                                decoder=decoder, seed=seed)
    executor = campaigns.default_executor(workers)
    return campaigns.run(spec, executor=executor).detail.per_cycle


def total_buffer_bits(node_count: int, c_win: int, c_bat: int) -> float:
    """Syndrome queue (c_win + c_bat layers) + matching queue batches."""
    return (node_count * (c_win + c_bat)
            + node_count * math.ceil(c_win / c_bat))


@pytest.mark.benchmark(group="ablation")
def bench_ablation_batch_size(benchmark):
    """Memory vs c_bat: the sqrt(2 c_win) rule must sit at the minimum."""
    c_win, nodes = 300, 2 * 31 * 31

    def sweep():
        candidates = sorted({1, 2, 5, 10, optimal_batch_cycles(c_win),
                             40, 80, 150, 300})
        return [(c, total_buffer_bits(nodes, c_win, c)) for c in candidates]

    curve = benchmark(sweep)
    print_table("Ablation: rollback buffer memory vs matching-queue batch",
                ["c_bat", "total bits"],
                [[c, f"{bits:,.0f}"] for c, bits in curve])
    best_cbat = min(curve, key=lambda cb: cb[1])[0]

    emit_json("batch", "ablation_batch_size", {
        "buffer_bits": {f"c_bat_{c:03d}": bits for c, bits in curve},
        "optimal_c_bat": optimal_batch_cycles(c_win),
        "c_win": c_win,
    })
    assert best_cbat == optimal_batch_cycles(c_win)


@pytest.mark.benchmark(group="ablation")
def bench_ablation_decoder_family(benchmark):
    """Greedy vs exact MWPM accuracy at equal noise."""
    samples = mc_samples()
    d, ps = 7, [8e-3, 1.5e-2, 2.5e-2]

    def run():
        start = time.perf_counter()
        rows = []
        for p in ps:
            greedy = _per_cycle(d, p, samples, "greedy", GREEDY_SEED,
                                mc_workers())
            exact = _per_cycle(d, p, samples, "mwpm", MWPM_SEED,
                               mc_workers())
            rows.append([p, greedy, exact])
        return rows, time.perf_counter() - start

    rows, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(f"Ablation: decoder accuracy (d={d})",
                ["p", "greedy p_L/cycle", "MWPM p_L/cycle"], rows)

    emit_json("batch", "ablation_decoder_family", {
        "per_cycle_rates": {
            f"d{d}_p{p}_{name}": rate
            for p, greedy, exact in rows
            for name, rate in (("greedy", greedy), ("mwpm", exact))
        },
        "samples_per_point": samples,
        "wall_clock_s": wall,
    })
    # Exact matching never loses to greedy beyond sampling noise.
    for _, greedy, exact in rows:
        assert exact <= greedy + 3.0 / (samples * d)


@pytest.mark.benchmark(group="ablation")
def bench_ablation_detected_vs_oracle(benchmark):
    """End-to-end: what does imperfect region estimation cost?"""
    shots = max(20, mc_samples() // 8)
    spec = campaigns.EndToEndSpec(distance=13, p=0.005, shots=shots,
                                  anomaly_size=4, onset=120, cycles=300,
                                  c_win=80, n_th=8, seed=ENDTOEND_SEED)
    executor = campaigns.default_executor(mc_workers())

    def run():
        start = time.perf_counter()
        out = campaigns.run(spec, executor=executor).detail
        return out, time.perf_counter() - start

    res, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    rates = res.rates()
    print_table(
        "Ablation: exposure-window failure rate by decoding knowledge",
        ["strategy", "failure rate"],
        [["naive (no rollback)", rates["naive"]],
         ["detected region (Q3DE)", rates["detected"]],
         ["oracle region", rates["oracle"]],
         ["detection rate", res.detection_rate],
         ["mean latency (cycles)", res.mean_latency]])

    emit_json("batch", "ablation_detected_vs_oracle", {
        "failure_rates": dict(rates),
        "detection_rate": res.detection_rate,
        "mean_latency_cycles": res.mean_latency,
        "shots": shots,
        "wall_clock_s": wall,
    })
    assert res.detection_rate > 0.7
    assert rates["detected"] <= rates["naive"] + 0.05


def smoke() -> None:
    """One tiny grid point (bench_smoke marker: import-rot guard)."""
    c_bat = optimal_batch_cycles(300)
    assert total_buffer_bits(100, 300, c_bat) > 0
    spec = campaigns.MemorySpec(distance=5, p=2e-2, samples=8,
                                seed=SMOKE_SEED)
    est = campaigns.run(spec, executor=campaigns.default_executor(1)).detail
    assert est.samples == 8

"""Fig. 7: anomaly detection window size, latency, and position error.

Paper setup: p = 1e-3, d = 21, d_ano = 4, confidence 0.99, n_th = 20.
Left panel: required window c_win for 1 % detection errors and the
detection latency, against the error-rate ratio p_ano / p.  Right panel:
the error of the estimated anomaly position.

Expected shape: required window and latency fall steeply as the ratio
grows; the position estimate stays within a couple of nodes.
"""

import time

import pytest

from repro import campaigns
from repro.sim.detection import (
    analytic_required_window,
    empirical_required_window,
)

from _common import emit_json, mc_workers, print_table, scale

DISTANCE = 21
P = 1e-3
ANOMALY_SIZE = 4
N_TH = 20
RATIOS = [10, 20, 50, 100]


@pytest.mark.benchmark(group="fig7")
def bench_fig7_detection_unit(benchmark):
    """Regenerate Fig. 7's three series over the rate-ratio sweep."""
    trials = max(4, int(8 * scale()))
    executor = campaigns.default_executor(mc_workers())

    def run():
        start = time.perf_counter()
        rows = []
        for ratio in RATIOS:
            p_ano = P * ratio
            # The search replaces c_win, starting from the analytic bound.
            base = campaigns.DetectionSpec(
                distance=DISTANCE, p=P, p_ano=p_ano,
                anomaly_size=ANOMALY_SIZE,
                c_win=analytic_required_window(P, p_ano), n_th=N_TH,
                trials=trials, seed=ratio)
            c_win, perf = empirical_required_window(base, executor=executor)
            rows.append((ratio, c_win, perf.mean_latency,
                         perf.mean_position_error))
        return rows, time.perf_counter() - start

    rows, wall = benchmark.pedantic(run, rounds=1, iterations=1)

    emit_json("batch", "fig07_detection", {
        "trials_per_point": trials,
        "wall_clock_s": wall,
        # Domain series keyed by the p_ano/p sweep label; deliberately
        # not "*ratio*"-named so the comparator reads them as drift-only
        # domain data, not engine bars.
        "required_window": {f"pano_over_p_{r}": w for r, w, _, _ in rows},
        "mean_latency_cycles": {f"pano_over_p_{r}": lat
                                for r, _, lat, _ in rows},
        "mean_position_error_nodes": {f"pano_over_p_{r}": err
                                      for r, _, _, err in rows},
    })
    print_table(
        "Fig. 7: anomaly detection (p=1e-3, d=21, d_ano=4, n_th=20)",
        ["p_ano/p", "required c_win", "latency (cycles)",
         "position error (nodes)"],
        rows)

    windows = [r[1] for r in rows]
    latencies = [r[2] for r in rows]
    # Shape: both fall (weakly) as the ratio grows; position stays tight.
    assert windows[-1] <= windows[0]
    assert latencies[-1] <= latencies[0] * 1.5
    assert all(r[3] < 5.0 for r in rows)
    # Analytic model agrees on the trend.
    assert (analytic_required_window(P, P * RATIOS[-1])
            < analytic_required_window(P, P * RATIOS[0]))


@pytest.mark.benchmark(group="fig7")
def bench_fig7_single_operating_point(benchmark):
    """Time one full detection campaign at the paper's operating point.

    Expressed as a declarative ``DetectionSpec`` through
    ``repro.campaigns.run`` — the bench doubles as an API smoke test.
    """
    spec = campaigns.DetectionSpec(
        distance=DISTANCE, p=P, p_ano=0.05, anomaly_size=ANOMALY_SIZE,
        c_win=300, n_th=N_TH, alpha=0.01, trials=3, seed=1)
    executor = campaigns.default_executor(mc_workers())
    result = benchmark(campaigns.run, spec, executor)
    assert result.estimates["miss_rate"] == 0.0


def smoke() -> None:
    """One tiny grid point (bench_smoke marker: import-rot guard)."""
    spec = campaigns.DetectionSpec(distance=7, p=2e-3, p_ano=0.05,
                                   anomaly_size=2, c_win=40, n_th=3,
                                   trials=2, seed=1)
    perf = campaigns.run(
        spec, executor=campaigns.InlineExecutor(whole_request=False)).detail
    assert 0.0 <= perf.miss_rate <= 1.0
    assert analytic_required_window(1e-3, 1e-2) > 0
    assert campaigns.spec_from_json(campaigns.spec_to_json(spec)) == spec

"""Detection tuning: choosing c_win and n_th for a device.

A device bring-up engineer has measured a physical error rate p and wants
the anomaly detection unit configured: how long a counting window is
needed, what V_th falls out of the CLT model (Eq. 3), and what n_th keeps
both error modes below the logical error rate (Sec. IV-A's criterion)?

Sweeps the anomaly strength ratio p_ano/p the way Fig. 7 does and prints
an operating table.

Run:  python examples/detection_tuning.py
"""

from repro import campaigns
from repro.core.statistics import (
    detection_threshold,
    recommended_count_threshold,
)
from repro.sim.detection import (
    analytic_required_window,
    calibrated_statistics,
    empirical_required_window,
)

DISTANCE = 21
P = 1e-3
ANOMALY_SIZE = 4
N_TH = 20  # the paper's heuristic choice
TARGET_LOGICAL_RATE = 1e-10
ALPHA = 0.01


def main():
    stats = calibrated_statistics(P)
    print(f"Device: d={DISTANCE}, p={P}; calibrated activity "
          f"mu={stats.mu:.4f}, sigma={stats.sigma:.4f}\n")

    lo, hi = recommended_count_threshold(TARGET_LOGICAL_RATE, ALPHA,
                                         ANOMALY_SIZE)
    print(f"n_th criterion (Sec. IV-A): {lo:.1f} < n_th < {hi:.1f} "
          f"for p_L = {TARGET_LOGICAL_RATE}, alpha = {ALPHA}; "
          f"the paper heuristically uses n_th = {N_TH}.")
    print("(A very small window makes the integer threshold coarse, so "
          "the per-counter\nfalse-positive rate exceeds alpha; the "
          "empirical search below accounts for that\nwhere the pure CLT "
          "bound cannot.)\n")

    print(f"{'p_ano/p':>8}  {'c_win (CLT)':>12}  {'c_win (found)':>14}  "
          f"{'V_th':>7}  {'latency':>8}  {'pos err':>8}")
    for ratio in (10, 20, 50, 100):
        p_ano = P * ratio
        analytic = analytic_required_window(P, p_ano, alpha=ALPHA)
        # The search starts at the CLT bound and grows the window.
        base = campaigns.DetectionSpec(
            distance=DISTANCE, p=P, p_ano=p_ano, anomaly_size=ANOMALY_SIZE,
            c_win=analytic, n_th=N_TH, alpha=ALPHA, trials=5, seed=ratio)
        c_win, perf = empirical_required_window(
            base, executor=campaigns.default_executor(0))
        v_th = detection_threshold(stats, c_win, ALPHA)
        latency = (f"{perf.mean_latency:.0f}"
                   if perf.detections else "-")
        pos = (f"{perf.mean_position_error:.2f}"
               if perf.detections else "-")
        print(f"{ratio:>8}  {analytic:>12}  {c_win:>14}  {v_th:>7.2f}  "
              f"{latency:>8}  {pos:>8}")

    print("\nReading the table: stronger anomalies (larger p_ano/p) need "
          "much shorter windows,\nso they are caught sooner; position "
          "estimates stay within ~2 lattice nodes, which\nis what the "
          "weighted re-decoding needs to place the anomalous region.")


if __name__ == "__main__":
    main()

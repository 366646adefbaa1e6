"""Quickstart: encode, strike, detect, expand, re-decode.

Walks the whole Q3DE story on one logical qubit in under a minute,
using the unified campaign API (`repro.campaigns`) — declarative specs,
one `run()` entry point, uniform results with provenance:

1. build a distance-9 surface-code memory and measure its logical error
   rate with a `MemorySpec` campaign;
2. strike it with a cosmic ray (a 4-qubit anomalous region at p_ano=0.5)
   and watch the logical error rate collapse;
3. decode again with the anomaly position known (Q3DE's re-executed,
   weighted decoding) and recover much of the loss — the three
   measurements are three `dataclasses.replace` variants of one base
   spec (parameter *grids* get `campaigns.Sweep`; see docs/API.md);
4. run the live control unit on the syndrome stream: detection fires,
   `op_expand` doubles the code distance, and the decoder rolls back.

Every campaign here can equally be saved as JSON and run as
`python -m repro run spec.json` — try:

    python - <<'EOF'
    from repro import campaigns
    spec = campaigns.MemorySpec(distance=9, p=0.01, samples=400, seed=42)
    print(campaigns.spec_to_json(spec, indent=2))
    EOF

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    AnomalousRegion,
    PhenomenologicalNoise,
    Q3DEConfig,
    Q3DEControlUnit,
    SyndromeLattice,
    campaigns,
)
from repro.scenarios import Scenario
from repro.sim.detection import calibrated_statistics

DISTANCE = 9
P = 0.01
ANOMALY_SIZE = 4
SAMPLES = 400


def main():
    print(f"Surface code memory: d={DISTANCE}, p={P}, "
          f"{SAMPLES} Monte-Carlo shots each\n")

    print("Step 1-3: the effect of an MBBE, and what informed decoding buys")
    from dataclasses import replace
    base = campaigns.MemorySpec(distance=DISTANCE, p=P, samples=SAMPLES,
                                anomaly_size=ANOMALY_SIZE, seed=42)
    # "centered" resolves against the spec's own distance, so the same
    # declarative region works at any d.
    measurements = [
        ("MBBE free", base),
        ("cosmic-ray region, naive decoding",
         replace(base, region="centered")),
        ("cosmic-ray region, Q3DE weighted decoding",
         replace(base, region="centered", informed=True)),
    ]
    for label, spec in measurements:
        result = campaigns.run(spec)
        print(f"  {label:<42} p_L/run = "
              f"{result.estimates['per_run']:.4f}   "
              f"p_L/cycle = {result.estimates['per_cycle']:.5f}")
    print(f"  (spec hash of the last campaign: "
          f"{result.provenance.spec_hash}; engine chunks "
          f"{result.provenance.chunks})")

    print("\nStep 4: the live control unit (detection -> expand + rollback)")
    config = Q3DEConfig(distance=DISTANCE, c_win=100, n_th=8,
                        anomaly_size=ANOMALY_SIZE,
                        anomaly_lifetime_cycles=5000)
    unit = Q3DEControlUnit(config, calibrated_statistics(P))

    onset = 250
    live_region = AnomalousRegion.centered(DISTANCE, ANOMALY_SIZE,
                                           t_lo=onset)
    noise = PhenomenologicalNoise(DISTANCE, P,
                                  Scenario.from_region(live_region))
    rng = np.random.default_rng(7)
    v, h, m = noise.sample(600, rng)
    stream = SyndromeLattice(DISTANCE).per_cycle_activity(v, h, m)

    for layer in stream:
        report = unit.step(layer)
        if report.detection is not None:
            det = report.detection
            print(f"  cycle {det.cycle}: MBBE detected at node "
                  f"({det.row}, {det.col}), {det.num_flagged} counters "
                  f"over threshold (true onset: cycle {onset})")
            if report.rollback is not None:
                rb = report.rollback
                print(f"    decoder rolled back to cycle "
                      f"{rb.rollback_cycle}; {len(rb.replay_layers)} "
                      f"layers queued for weighted re-execution")
        for qubit in report.distance_changes:
            print(f"  cycle {report.cycle}: logical qubit {qubit} code "
                  f"distance -> {unit.current_distance}")

    print(f"\n  final code distance: {unit.current_distance} "
          f"(expanded = {unit.current_distance != DISTANCE})")
    bits = unit.memory_bits()
    print("  control-unit buffer footprint: "
          + ", ".join(f"{k}={v / 1000:.1f} kbit" for k, v in bits.items()))


if __name__ == "__main__":
    main()

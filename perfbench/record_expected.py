"""Record the exact outcomes of the default seed in ``expected.json``.

    python3 perfbench/record_expected.py

Runs the first rounds of every workload with the default seed through
plain ``campaigns.run`` and stores each outcome (counts and latency
sums; slots, strikes and instructions for Fig. 10) under
``"<round>/<label>"``.  A benchmark run with the default seed fails any
operation whose outcome differs.  Re-record only when a change is meant
to alter outcomes.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - needs the path above
from run import DEFAULT_SEED  # noqa: E402

#: Rounds recorded per workload: about three times what a 15-second run
#: completes on a two-core VM (memory 15, endtoend 33, detection 13,
#: fig10 1, service 13).  A run prints how many of its results these
#: rounds cover.
ROUNDS = {"memory-fig8-d13": 48, "endtoend-fig8-d9": 96,
          "detection-fig7-d21": 48, "throughput-fig10": 4,
          "service-keepalive": 48}


def main() -> None:
    # As in run.py: REPRO_* knobs must not decide the recorded outcomes.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    runner = workloads.Campaigns()
    recorded = {}
    for name, rounds in ROUNDS.items():
        workload = workloads.WORKLOADS[name]
        entries = recorded[name] = {}
        for r in range(rounds):
            for label, spec in workload.round_specs(DEFAULT_SEED, r):
                result = runner.run(spec)
                problem = workloads.check_result(spec, result)
                if problem:
                    raise SystemExit(f"{name} {r}/{label}: {problem}")
                entries[f"{r}/{label}"] = workloads.outcome(result)
        print(f"{name}: {len(entries)} outcomes", flush=True)
    workloads.EXPECTED.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": recorded}, indent=1,
        sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

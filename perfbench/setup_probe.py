"""One fresh-process set-up of a workload, timed by ``run.py``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the program, builds the first round's specs and prepares each
shot kernel (noise model, lattice, decoder), then prints ``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402 - needs the path above
from repro import campaigns  # noqa: E402
from repro.campaigns.runner import shot_engine  # noqa: E402


def main(name: str, seed: int) -> None:
    for _, spec in workloads.WORKLOADS[name].round_specs(seed, 0):
        if not isinstance(spec, campaigns.ThroughputSpec):
            kernel, _, _ = shot_engine(spec)
            kernel.prepare()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))

"""RL003 corpus twin: this file IS the registered knob owner.

The corpus manifest lists it under ``[rl003] owners``, mirroring
``src/repro/config.py`` — reads here are the contract, not a breach.
"""

import os

ENV_WORKERS = "REPRO_WORKERS"


def workers(default: int = 0) -> int:
    return max(0, int(os.environ.get(ENV_WORKERS, default)))


def samples(default: str = "200") -> str:
    return os.getenv("REPRO_SAMPLES", default).strip()

"""Shared fixtures for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# The reprolint package lives under tools/ (it is a dev tool, not part
# of the shipped repro package); make it importable for its test suite.
_TOOLS_DIR = str(Path(__file__).resolve().parents[1] / "tools")
if _TOOLS_DIR not in sys.path:
    sys.path.insert(0, _TOOLS_DIR)


@pytest.fixture
def rng():
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def run_with_outcomes(tmp_path_factory):
    """``campaigns.run`` that also returns the per-shot outcome array.

    Each call checkpoints into a fresh directory and reads the chunks
    the campaign ingested back from its shard, in plan order.
    """
    from repro import campaigns
    from repro.campaigns.checkpoint import CheckpointStore

    def run(spec, executor=None):
        store = CheckpointStore(tmp_path_factory.mktemp("shard"))
        result = campaigns.run(spec, executor=executor, checkpoint=store)
        chunks = store.shard(spec).load()
        return result, np.concatenate([chunks[i] for i in sorted(chunks)])
    return run


@pytest.fixture
def retired_spec():
    """The wire document of a campaign kind that no longer exists: an
    online ``"streaming"`` campaign, as an older release serialized it."""
    return {"kind": "streaming", "distance": 3, "p": 0.01, "p_ano": 0.5,
            "anomaly_size": 4, "c_win": 5, "n_th": 8, "alpha": 0.01,
            "trials": 2, "normal_cycles": 10, "post_cycles": 10,
            "code_cycle_us": 1.0, "seed": 0}


@pytest.fixture
def store_retired_record(retired_spec):
    """Write a CRC-valid result record of the retired ``streaming`` kind.

    ``store_retired_record(results_dir, version)`` lays the record down
    the way :class:`repro.campaigns.store.ResultStore` did for that kind
    (the spec hash is the one its document had; the payload keeps a few
    of its estimates and counts) and returns the spec hash.
    """
    import json

    from repro.campaigns.store import FORMAT, _result_crc

    def write(results_dir, version):
        h = "20ca3b9a68844295"
        result = {
            "kind": "streaming",
            "estimates": {"false_positive_rate": 0.0, "miss_rate": 1.0,
                          "p99_round_latency_us": 94.4},
            "counts": {"trials": 2, "false_positives": 0, "detections": 0,
                       "rounds": 40, "peak_live_rounds": 5},
            "provenance": {"spec_hash": h, "kind": "streaming", "seed": 0,
                           "version": version, "executor": "inline",
                           "wall_clock_s": 0.0033, "batch_size": None,
                           "chunks": 0, "resumed_chunks": 0,
                           "supervisor": None},
        }
        record = {"type": "result", "format": FORMAT, "spec_hash": h,
                  "version": version, "spec": retired_spec,
                  "result": result,
                  "crc": _result_crc(h, version, result)}
        results_dir.mkdir(parents=True, exist_ok=True)
        (results_dir / f"{h}-{version}.json").write_text(
            json.dumps(record, sort_keys=True) + "\n")
        return h
    return write

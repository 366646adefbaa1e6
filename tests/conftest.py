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

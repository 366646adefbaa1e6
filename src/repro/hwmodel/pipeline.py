"""Cycle-approximate model of the ANQ matching pipeline.

Mirrors the dataflow described in Sec. VIII-D: per code cycle the
positions and boundary/anomaly distances of active nodes are pushed into
the ANQ; the unit then repeatedly (a) evaluates all-to-all candidate
paths in a pipelined fashion, (b) reduces them through a comparator tree
to the global shortest pair, and (c) pops that pair to the Pauli frame
and matching queue.

The model counts hardware cycles per drain using the same structural
latency terms as :mod:`repro.hwmodel.resources`, and can also *execute*
the matching in software to measure algorithmic throughput on the host
(useful for regression-tracking our own greedy decoder).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.decoding.greedy import GreedyDecoder
from repro.decoding.weights import DistanceModel
from repro.hwmodel.resources import CLOCK_MHZ, DecoderHardwareModel


@dataclass(frozen=True)
class DrainEstimate:
    """Cost of draining one burst of active nodes."""

    nodes: int
    matches: int
    hardware_cycles: float

    @property
    def hardware_us(self) -> float:
        return self.hardware_cycles / CLOCK_MHZ

    @property
    def matches_per_us(self) -> float:
        if self.hardware_us == 0:
            return float("inf")
        return self.matches / self.hardware_us


class ANQPipelineModel:
    """Drain-cost estimates for a hardware configuration."""

    def __init__(self, hardware: DecoderHardwareModel):
        self.hardware = hardware

    def drain(self, num_nodes: int) -> DrainEstimate:
        """Estimate cycles to match ``num_nodes`` queued active nodes.

        Steady-state model: new syndromes stream in every code cycle, so
        the ANQ stays near its design occupancy and every pop pays the
        full-occupancy evaluation cost (the paper's throughput numbers
        are quoted at design capacity).  A pair pop retires two entries,
        a boundary pop one; we model alternating pops.
        """
        remaining = num_nodes
        cycles = 0.0
        matches = 0
        per_match = self.hardware.cycles_per_match()
        while remaining > 0:
            retired = 2 if remaining >= 2 else 1
            remaining -= retired
            matches += 1
            cycles += per_match
        return DrainEstimate(num_nodes, matches, cycles)

    def sustains_code_cycle(self, active_nodes_per_cycle: float,
                            code_cycle_us: float = 1.0) -> bool:
        """Sec. VIII-D criterion: average matching speed must beat the
        average active-node arrival rate."""
        per_us = self.hardware.throughput_matches_per_us()
        return per_us >= active_nodes_per_cycle / 2.0 / code_cycle_us


def measure_software_throughput(
    num_nodes: int = 60,
    distance: int = 21,
    window: int = 21,
    repeats: int = 50,
    seed: int = 0,
) -> float:
    """Matches per second of our software greedy decoder (host-side).

    Generates random active-node bursts and times
    :class:`repro.decoding.GreedyDecoder` over them.
    """
    rng = np.random.default_rng(seed)
    decoder = GreedyDecoder(DistanceModel(distance))
    bursts = []
    for _ in range(repeats):
        nodes = np.column_stack([
            rng.integers(0, window, num_nodes),
            rng.integers(0, distance - 1, num_nodes),
            rng.integers(0, distance, num_nodes),
        ])
        bursts.append(nodes)
    start = time.perf_counter()
    matches = 0
    for nodes in bursts:
        matches += len(decoder.decode(nodes).matches)
    elapsed = time.perf_counter() - start
    return matches / elapsed

"""The retired per-shot and per-cycle reference engines, kept for
equivalence tests.

The staged batch kernels behind :func:`repro.campaigns.run` are the only
application path.  The loops they replaced survive here, verbatim apart
from taking a campaign spec, as the certified references the
equivalence suites score the batched engines against:

* :func:`reference_memory_run` — the per-shot memory loop (float
  sampling, per-shot extraction, the unpruned ``GreedyDecoder`` or
  MWPM) for a :class:`~repro.campaigns.MemorySpec`;
* :func:`reference_endtoend_run` / :func:`reference_run_shot` and
  :func:`reference_detection_trials` — the per-cycle loops through
  :class:`repro.core.anomaly.AnomalyDetectionUnit` with the per-shot
  greedy decode.

They are test fixtures: slow, rng-streamed shot by shot, and
deliberately untouched by campaign features.

:func:`reference_chunk` is the same kind of reference one level down:
the float, per-shot path that recomputes any one chunk of a shot kernel
from the same draws.

The Fig. 10 scheduler's object-per-block plane, tuple-grid BFS router
and slot loop live at the end of the module in the same role, for
``tests/test_scheduler_equivalence.py``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.arch.isa import Instruction, InstructionKind
from repro.arch.qubit_plane import BlockState
from repro.arch.scheduler import CommittedOp
from repro.arch.throughput import ThroughputResult
from repro.campaigns import EndToEndSpec, MemorySpec
from repro.core.anomaly import AnomalyDetectionUnit
from repro.decoding.graph import SyndromeLattice
from repro.decoding.greedy import GreedyDecoder, greedy_cut_parity
from repro.decoding.mwpm import MWPMDecoder
from repro.decoding.weights import DistanceModel, relative_anomalous_weight
from repro.noise.models import (AnomalousRegion, PhenomenologicalNoise,
                                build_anomalous_masks)
from repro.scenarios.model import Scenario
from repro.sim.batch import (DetectionShotKernel, MemoryShotKernel,
                             _windowed_over)
from repro.sim.detection import DetectionPerformance, calibrated_statistics
from repro.sim.endtoend import EndToEndResult, estimate_strike_region
from repro.sim.memory import LogicalErrorEstimate


# ----------------------------------------------------------------------
# The float, per-shot reference for one chunk of any shot kernel
# ----------------------------------------------------------------------
def overwrite_anomalous_packed(v: np.ndarray, h: np.ndarray, m: np.ndarray,
                               shot: int, region: AnomalousRegion,
                               distance: int, p_ano: float,
                               rng: np.random.Generator) -> None:
    """Resample one shot's packed error words at ``p_ano`` in ``region``.

    The per-shot overwrite the strike sample stage replaced with its
    chunk-wide ``_overwrite_strikes_packed``.  The uniforms are drawn
    per array in ``v, h, m`` order over the clipped time span, then
    deposited into ``shot``'s lane of the affected words with a
    set/clear mask — the rest of the word's 64 shots are untouched.
    """
    masks = build_anomalous_masks(distance, region)
    cycles = v.shape[1]
    t_hi = region.t_hi if region.t_hi is not None else cycles
    t_lo, t_hi = max(0, region.t_lo), min(cycles, t_hi)
    if t_hi <= t_lo:
        return
    span = t_hi - t_lo
    w, b = divmod(shot, 64)
    bit = np.uint64(1) << np.uint64(b)
    for arr, mask in zip((v, h, m), masks, strict=True):
        bits = rng.random((span, int(mask.sum()))) < p_ano
        view = arr[w, t_lo:t_hi]
        current = view[:, mask]
        view[:, mask] = np.where(bits, current | bit, current & ~bit)


def _overwrite_anomalous(v: np.ndarray, h: np.ndarray, m: np.ndarray,
                         shot: int, region: AnomalousRegion,
                         distance: int, p_ano: float,
                         rng: np.random.Generator) -> None:
    """Resample one shot's float error arrays at ``p_ano`` in ``region``.

    The float twin of :func:`overwrite_anomalous_packed`: the same
    uniforms (same shapes, same order), stored as bools.
    """
    masks = build_anomalous_masks(distance, region)
    cycles = v.shape[1]
    t_hi = region.t_hi if region.t_hi is not None else cycles
    t_lo, t_hi = max(0, region.t_lo), min(cycles, t_hi)
    if t_hi <= t_lo:
        return
    span = t_hi - t_lo
    for arr, mask in zip((v, h, m), masks, strict=True):
        arr[shot, t_lo:t_hi][:, mask] = (
            rng.random((span, int(mask.sum()))) < p_ano)


def reference_detect_scan(kernel, over: np.ndarray, n_over: np.ndarray):
    """One shot's end-to-end scan tail over its windowed counter state.

    The per-shot tail the end-to-end kernel's chunk-wide ``_scan_tail``
    replaced.  Returns ``(stop, estimated, latency)``: where the
    exposure window closes (``onset + d`` cycles after the flag, or the
    full run on a miss), the control unit's region estimate, and the
    detection latency (-1 on a miss).  The control unit reasons about
    the scenario's lead strike: the scan scores latency from its onset
    and estimates a box of its size.
    """
    d, cycles, c_win = kernel.distance, kernel.cycles, kernel.c_win
    lead = kernel.scenario.events[kernel.lead]
    start = max(lead.onset - (c_win - 1), 0)
    fired = np.flatnonzero(n_over[start:] > kernel.n_th)
    if not len(fired):
        return cycles, None, -1
    event_cycle = int(fired[0]) + start + c_win - 1
    flag_rows, flag_cols = np.nonzero(over[event_cycle - (c_win - 1)])
    estimated = estimate_strike_region(
        d, lead.size, int(np.median(flag_rows)),
        int(np.median(flag_cols)), max(0, event_cycle - c_win))
    return (min(cycles, event_cycle + d), estimated,
            event_cycle - lead.onset)


def reference_chunk(kernel, shots: int,
                    rng: np.random.Generator) -> np.ndarray:
    """``kernel.run_batch_packed(shots, rng)`` through the reference path.

    The same draws in the same order as the kernel's stages, then float
    arrays (``sample_batch`` plus :func:`_overwrite_anomalous`),
    per-shot extraction (``detection_events``), per-shot matching
    (``greedy_cut_parity`` or MWPM) and per-shot windowed scans
    (``_windowed_over``) feeding :func:`reference_detect_scan` (end to
    end) or the kernel's own ``_score_scan`` (detection), and the
    kernel's scorer.  The kernels are certified bit-identical to it per
    chunk.
    """
    kernel.prepare()
    if isinstance(kernel, MemoryShotKernel):
        noise, lattice, model, mwpm = kernel._state
        v, h, m = noise.sample_batch(shots, kernel.cycles, rng)
        out = lattice.error_cut_parity(v).astype(np.int8)
        for s in range(shots):
            nodes = lattice.detection_events(v[s], h[s], m[s])
            if mwpm is None:
                out[s] ^= greedy_cut_parity(model, nodes)
            elif len(nodes):
                out[s] ^= mwpm.decode(nodes).correction_cut_parity
        return out
    lattice, v_th, base_noise = kernel._state[:3]
    d, scenario = kernel.distance, kernel.scenario
    regions = [scenario.resolve_regions(d, rng) for _ in range(shots)]
    v, h, m = base_noise.sample_batch(shots, kernel.cycles, rng)
    for s, regs in enumerate(regions):
        for region, event in zip(regs, scenario.events, strict=True):
            _overwrite_anomalous(v, h, m, s, region, d, event.p_ano, rng)
    activity = lattice.per_cycle_activity(v, h, m)
    detection = isinstance(kernel, DetectionShotKernel)
    out = np.empty((shots, 4), dtype=np.float64 if detection else np.int64)
    for s in range(shots):
        over, n_over = _windowed_over(activity[s], kernel.c_win, v_th)
        if detection:
            out[s] = kernel._score_scan(over, n_over, regions[s])
            continue
        stop, estimated, latency = reference_detect_scan(kernel, over,
                                                         n_over)
        nodes = lattice.detection_events(v[s, :stop], h[s, :stop],
                                         m[s, :stop])
        naive = kernel._matching_parity(kernel._state[3], nodes)
        out[s, :3] = kernel._score(
            nodes, lattice.error_cut_parity(v[s, :stop]), naive,
            regions[s], estimated)
        out[s, 3] = latency
    return out


# ----------------------------------------------------------------------
# The retired per-shot memory loop
# ----------------------------------------------------------------------
def reference_memory_run(spec: MemorySpec,
                         rng: np.random.Generator) -> LogicalErrorEstimate:
    """``spec.samples`` memory shots, one at a time, from ``rng``.

    Each shot samples float error arrays, extracts its detection
    events, decodes them with the unpruned :class:`GreedyDecoder` (or
    MWPM), and fails iff a logical X error survived decoding.  The
    spec's ``seed`` and ``batch_size`` play no part: the shots stream
    from ``rng``.
    """
    region = spec.resolve_region()
    cycles = spec.cycles if spec.cycles is not None else spec.distance
    noise = PhenomenologicalNoise(spec.distance, spec.p,
                                  Scenario.from_region(region, spec.p_ano))
    lattice = SyndromeLattice(spec.distance)
    if spec.informed and region is not None:
        w_ano = relative_anomalous_weight(spec.p, spec.p_ano)
        model = DistanceModel(spec.distance, region, w_ano)
    else:
        model = DistanceModel(spec.distance)
    decoder = (MWPMDecoder(model) if spec.decoder == "mwpm"
               else GreedyDecoder(model))
    failures = 0
    for _ in range(spec.samples):
        v, h, m = noise.sample(cycles, rng)
        nodes = lattice.detection_events(v, h, m)
        result = decoder.decode(nodes)
        error_parity = lattice.error_cut_parity(v)
        failures += bool(error_parity ^ result.correction_cut_parity)
    return LogicalErrorEstimate(failures, spec.samples, cycles)


# ----------------------------------------------------------------------
# The retired per-cycle loops
# ----------------------------------------------------------------------
def stream_activity(
    distance: int,
    p: float,
    p_ano: float,
    region: Optional[AnomalousRegion],
    cycles: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-cycle node-activity stream, shape ``(cycles, d-1, d)``."""
    noise = PhenomenologicalNoise(distance, p,
                                  Scenario.from_region(region, p_ano))
    lattice = SyndromeLattice(distance)
    v, h, m = noise.sample(cycles, rng)
    return lattice.per_cycle_activity(v, h, m)


def reference_decode_failure(spec: EndToEndSpec, nodes, v, region) -> int:
    """Per-shot greedy decode + north-cut parity (the original scorer)."""
    if region is None:
        model = DistanceModel(spec.distance)
    else:
        w_ano = relative_anomalous_weight(spec.p, spec.p_ano)
        model = DistanceModel(spec.distance, region, w_ano)
    result = GreedyDecoder(model).decode(nodes)
    return (SyndromeLattice.error_cut_parity(v)
            ^ result.correction_cut_parity)


def reference_run_shot(spec: EndToEndSpec, rng: np.random.Generator):
    """One strike shot; returns (naive, detected, oracle, latency).

    The shot is scored over Q3DE's *exposure window*: the run stops
    ``d`` cycles after the detection fires (or after a fallback timeout
    on a miss), because from that point the expanded code protects the
    qubit and the re-executed decoder has caught up.
    """
    lattice = SyndromeLattice(spec.distance)
    true_region = AnomalousRegion.random(spec.distance, spec.anomaly_size,
                                         rng, t_lo=spec.onset)
    noise = PhenomenologicalNoise(spec.distance, spec.p,
                                  Scenario.from_region(true_region,
                                                       spec.p_ano))
    v, h, m = noise.sample(spec.cycles, rng)
    activity = lattice.per_cycle_activity(v, h, m)

    unit = AnomalyDetectionUnit(
        (spec.distance - 1, spec.distance), calibrated_statistics(spec.p),
        spec.c_win, spec.n_th, spec.alpha)
    event = None
    stop = spec.cycles
    for t in range(spec.cycles):
        evt = unit.observe(activity[t])
        if evt is None:
            continue
        if evt.cycle < spec.onset:
            # A pre-onset false positive is discarded, so the mask it
            # laid down must go with it: otherwise the unit is blind
            # around the flagged position for mask_cycles and the real
            # strike can go undetected.
            unit.clear_masks()
            continue
        event = evt
        stop = min(spec.cycles, evt.cycle + spec.distance)
        break

    estimated: Optional[AnomalousRegion] = None
    latency = None
    if event is not None:
        estimated = estimate_strike_region(
            spec.distance, spec.anomaly_size, event.row, event.col,
            event.onset_estimate)
        latency = event.cycle - spec.onset

    v, h, m = v[:stop], h[:stop], m[:stop]
    nodes = lattice.detection_events(v, h, m)
    naive = reference_decode_failure(spec, nodes, v, None)
    oracle = reference_decode_failure(spec, nodes, v, true_region)
    detected = (reference_decode_failure(spec, nodes, v, estimated)
                if estimated is not None else naive)
    return naive, detected, oracle, latency


def reference_endtoend_run(spec: EndToEndSpec,
                           rng: np.random.Generator) -> EndToEndResult:
    """The original per-cycle end-to-end campaign loop over
    ``spec.shots`` shots streamed from ``rng``."""
    naive = detected = oracle = found = 0
    latencies: list[int] = []
    for _ in range(spec.shots):
        n, d, o, lat = reference_run_shot(spec, rng)
        naive += n
        detected += d
        oracle += o
        if lat is not None:
            found += 1
            latencies.append(lat)
    return EndToEndResult(
        shots=spec.shots,
        naive_failures=naive,
        detected_failures=detected,
        oracle_failures=oracle,
        detections=found,
        mean_latency=(float(np.mean(latencies)) if latencies
                      else float("nan")),
    )


def reference_detection_trials(
    distance: int,
    p: float,
    p_ano: float,
    anomaly_size: int,
    c_win: int,
    n_th: int = 20,
    alpha: float = 0.01,
    trials: int = 20,
    normal_cycles: Optional[int] = None,
    post_cycles: Optional[int] = None,
    seed: Optional[int] = None,
) -> DetectionPerformance:
    """The original per-cycle detection-trial loop through the unit."""
    rng = np.random.default_rng(seed)
    stats = calibrated_statistics(p)
    normal_cycles = normal_cycles if normal_cycles is not None else 2 * c_win
    post_cycles = post_cycles if post_cycles is not None else 4 * c_win

    false_positives = 0
    detections = 0
    latencies: list[int] = []
    position_errors: list[float] = []
    rows, cols = distance - 1, distance
    for _ in range(trials):
        onset = normal_cycles
        region = AnomalousRegion.random(distance, anomaly_size, rng,
                                        t_lo=onset)
        row_lo, col_lo = region.row_lo, region.col_lo
        total = normal_cycles + post_cycles
        activity = stream_activity(distance, p, p_ano, region, total, rng)
        unit = AnomalyDetectionUnit(
            (rows, cols), stats, c_win, n_th, alpha)
        tripped_early = False
        event = None
        for t in range(total):
            evt = unit.observe(activity[t])
            if evt is None:
                continue
            if t < onset:
                tripped_early = True
                # The false positive is not acted on, so its mask must not
                # stand either -- it could blind the unit to the real MBBE.
                unit.clear_masks()
                continue  # keep streaming; a later flag still counts
            event = evt
            break
        if tripped_early:
            false_positives += 1
        if event is not None:
            detections += 1
            latencies.append(event.cycle - onset)
            centre_r = row_lo + (anomaly_size - 1) / 2.0
            centre_c = col_lo + (anomaly_size - 1) / 2.0
            position_errors.append(math.hypot(
                event.row - centre_r, event.col - centre_c))
    return DetectionPerformance(
        trials=trials,
        false_positives=false_positives,
        detections=detections,
        mean_latency=float(np.mean(latencies)) if latencies else float("nan"),
        mean_position_error=(float(np.mean(position_errors))
                             if position_errors else float("nan")),
    )


# ----------------------------------------------------------------------
# Fig. 10 scheduler: the tuple-grid plane, per-route BFS and slot loop
# ----------------------------------------------------------------------
# The shipping repro.arch plane keeps block state in flat arrays and the
# scheduler gates routes on connectivity labels.  The object-per-block
# plane, the tuple BFS and the slot loop they replaced are kept here,
# verbatim apart from their names, as the reference the property suite
# certifies the shipping engine against (same ThroughputResult, same
# commits in the same order with the same cells and finish slots).


@dataclass
class ReferenceBlock:
    """One surface-code block on the plane."""

    row: int
    col: int
    state: BlockState = BlockState.VACANT
    logical_id: Optional[int] = None
    busy_until: int = -1          # slot index; RESERVED while slot < this
    anomalous_until: int = -1


class ReferenceQubitPlane:
    """A rows x cols block grid with the paper's checkerboard allocation."""

    def __init__(self, rows: int = 11, cols: int = 11):
        if rows < 1 or cols < 1:
            raise ValueError("plane must be non-empty")
        self.rows = rows
        self.cols = cols
        self.blocks = [[ReferenceBlock(r, c) for c in range(cols)]
                       for r in range(rows)]
        self.logical_positions: dict[int, tuple[int, int]] = {}
        self.expansions: dict[int, list[tuple[int, int]]] = {}
        qubit = 0
        for r in range(1, rows, 2):
            for c in range(1, cols, 2):
                self.blocks[r][c].state = BlockState.LOGICAL
                self.blocks[r][c].logical_id = qubit
                self.logical_positions[qubit] = (r, c)
                qubit += 1
        self.num_logical = qubit

    # ------------------------------------------------------------------
    def block(self, row: int, col: int) -> ReferenceBlock:
        return self.blocks[row][col]

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.cols

    def neighbors(self, row: int, col: int) -> Iterator[tuple[int, int]]:
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            if self.in_bounds(row + dr, col + dc):
                yield row + dr, col + dc

    # ------------------------------------------------------------------
    # Anomaly and expansion management
    # ------------------------------------------------------------------
    def strike(self, row: int, col: int, until_slot: int) -> ReferenceBlock:
        """A cosmic ray hits a block; vacant blocks become ANOMALOUS
        (detected via direct data-qubit measurement and avoided)."""
        blk = self.blocks[row][col]
        blk.anomalous_until = max(blk.anomalous_until, until_slot)
        if blk.state is BlockState.VACANT:
            blk.state = BlockState.ANOMALOUS
        return blk

    def expire_anomalies(self, slot: int) -> list[tuple[int, int]]:
        """Return struck blocks to service once their anomaly has decayed."""
        recovered = []
        for row in self.blocks:
            for blk in row:
                if (blk.state is BlockState.ANOMALOUS
                        and blk.anomalous_until <= slot):
                    blk.state = BlockState.VACANT
                    recovered.append((blk.row, blk.col))
        return recovered

    def is_anomalous(self, row: int, col: int, slot: int) -> bool:
        return self.blocks[row][col].anomalous_until > slot

    def expand_logical(self, qubit: int, slot: int) -> bool:
        """Grow a struck logical qubit into a 2x2 block group (Sec. V-B)."""
        if qubit in self.expansions:
            return True
        r, c = self.logical_positions[qubit]
        absorbed: list[tuple[int, int]] = []
        for dr, dc in ((0, 1), (1, 0), (1, 1), (0, -1), (-1, 0), (-1, -1),
                       (1, -1), (-1, 1)):
            if len(absorbed) == 3:
                break
            rr, cc = r + dr, c + dc
            if not self.in_bounds(rr, cc):
                continue
            blk = self.blocks[rr][cc]
            if blk.state is BlockState.VACANT and blk.busy_until < 0:
                blk.state = BlockState.EXPANSION
                blk.logical_id = qubit
                absorbed.append((rr, cc))
        if not absorbed:
            return False
        self.expansions[qubit] = absorbed
        return True

    def shrink_logical(self, qubit: int) -> None:
        """Release an expansion's absorbed blocks."""
        for rr, cc in self.expansions.pop(qubit, []):
            blk = self.blocks[rr][cc]
            blk.state = BlockState.VACANT
            blk.logical_id = None

    def is_expanded(self, qubit: int) -> bool:
        return qubit in self.expansions

    # ------------------------------------------------------------------
    # Routing availability
    # ------------------------------------------------------------------
    def routable(self, row: int, col: int, slot: int) -> bool:
        """True iff a block can carry a lattice-surgery path this slot."""
        blk = self.blocks[row][col]
        return (blk.state is BlockState.VACANT
                and blk.busy_until <= slot
                and blk.anomalous_until <= slot)

    def qubit_free(self, qubit: int, slot: int) -> bool:
        """True iff a logical qubit is not reserved by an executing op."""
        r, c = self.logical_positions[qubit]
        if self.blocks[r][c].busy_until > slot:
            return False
        return all(self.blocks[rr][cc].busy_until <= slot
                   for rr, cc in self.expansions.get(qubit, []))

    def reserve(self, cells: list[tuple[int, int]], until_slot: int) -> None:
        for r, c in cells:
            self.blocks[r][c].busy_until = max(
                self.blocks[r][c].busy_until, until_slot)


@dataclass
class ReferenceScheduler:
    """Routes and commits instructions on a :class:`ReferenceQubitPlane`."""

    plane: ReferenceQubitPlane
    base_latency_slots: int = 1
    lookahead: int = 64
    executing: list[CommittedOp] = field(default_factory=list)
    completed: int = 0

    # ------------------------------------------------------------------
    def _route(self, a: tuple[int, int], b: tuple[int, int],
               slot: int) -> Optional[list[tuple[int, int]]]:
        """BFS over routable vacant blocks from qubit block a to b."""
        start_adj = [n for n in self.plane.neighbors(*a)
                     if self.plane.routable(*n, slot)]
        goal_adj = {n for n in self.plane.neighbors(*b)
                    if self.plane.routable(*n, slot)}
        if not start_adj or not goal_adj:
            return None
        queue = deque(start_adj)
        parents: dict[tuple[int, int], Optional[tuple[int, int]]] = {
            n: None for n in start_adj}
        while queue:
            cell = queue.popleft()
            if cell in goal_adj:
                path = [cell]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return path
            for nxt in self.plane.neighbors(*cell):
                if nxt in parents or not self.plane.routable(*nxt, slot):
                    continue
                parents[nxt] = cell
                queue.append(nxt)
        return None

    def _latency_slots(self, inst: Instruction) -> int:
        """Expanded operands double the instruction latency."""
        factor = 1
        for q in inst.targets:
            if self.plane.is_expanded(q):
                factor = 2
        return self.base_latency_slots * factor

    # ------------------------------------------------------------------
    def try_commit(self, inst: Instruction, slot: int) -> bool:
        """Attempt to commit one instruction this slot."""
        targets = inst.targets
        if any(not self.plane.qubit_free(q, slot) for q in targets):
            return False
        cells: list[tuple[int, int]] = [
            self.plane.logical_positions[q] for q in targets]
        for q in targets:
            cells.extend(self.plane.expansions.get(q, []))
        if inst.kind is InstructionKind.MEAS_ZZ:
            a = self.plane.logical_positions[targets[0]]
            b = self.plane.logical_positions[targets[1]]
            path = self._route(a, b, slot)
            if path is None:
                return False
            cells.extend(path)
        finish = slot + self._latency_slots(inst)
        self.plane.reserve(cells, finish)
        self.executing.append(CommittedOp(inst, cells, finish))
        return True

    def step(self, queue: deque, slot: int) -> int:
        """One scheduling slot: retire finished ops, commit ready ones."""
        finished = [op for op in self.executing if op.finish_slot <= slot]
        self.executing = [op for op in self.executing
                          if op.finish_slot > slot]
        self.completed += len(finished)

        committed: list[Instruction] = []
        busy_targets: set[int] = set()
        for op in self.executing:
            busy_targets.update(op.instruction.targets)
        for idx, inst in enumerate(queue):
            if idx >= self.lookahead:
                break
            if set(inst.targets) & busy_targets:
                continue
            if self.try_commit(inst, slot):
                committed.append(inst)
                busy_targets.update(inst.targets)
            else:
                # Keep program order among conflicting instructions: a
                # later instruction may only jump ahead if it commutes
                # (disjoint targets) with everything still waiting.
                busy_targets.update(inst.targets)
        for inst in committed:
            queue.remove(inst)
        return len(finished)


def reference_meas_zz_stream(num_instructions: int, num_qubits: int,
                             rng: np.random.Generator) -> deque:
    """The paper's workload: meas_ZZ on random distinct qubit pairs."""
    queue: deque = deque()
    for i in range(num_instructions):
        a, b = rng.choice(num_qubits, size=2, replace=False)
        queue.append(Instruction(
            InstructionKind.MEAS_ZZ, (int(a), int(b)), register=i))
    return queue


def reference_simulate_throughput(
    architecture: str,
    num_instructions: int = 1000,
    strike_prob_per_slot: float = 0.0,
    strike_duration_slots: int = 100,
    rows: int = 11,
    cols: int = 11,
    rng: Optional[np.random.Generator] = None,
    max_slots: int = 100_000,
) -> ThroughputResult:
    """The original Fig. 10 slot loop over the reference plane."""
    if architecture not in ("mbbe_free", "baseline", "q3de"):
        raise ValueError(f"unknown architecture {architecture!r}")
    rng = rng if rng is not None else np.random.default_rng()
    plane = ReferenceQubitPlane(rows, cols)
    latency = 2 if architecture == "baseline" else 1
    scheduler = ReferenceScheduler(plane, base_latency_slots=latency)
    queue = reference_meas_zz_stream(num_instructions, plane.num_logical,
                                     rng)

    strikes = 0
    with_mbbes = architecture == "q3de" and strike_prob_per_slot > 0.0
    expansion_deadline: dict[int, int] = {}
    slot = 0
    while (queue or scheduler.executing) and slot < max_slots:
        if with_mbbes:
            strikes += _reference_inject_strikes(
                plane, expansion_deadline, slot, strike_prob_per_slot,
                strike_duration_slots, rng)
            _reference_expire_expansions(plane, expansion_deadline, slot)
            plane.expire_anomalies(slot)
        scheduler.step(queue, slot)
        slot += 1
    # Drain bookkeeping: count everything that finished.
    return ThroughputResult(
        architecture=architecture,
        instructions=scheduler.completed,
        slots=slot,
        strikes=strikes,
    )


def _reference_inject_strikes(plane: ReferenceQubitPlane,
                              expansion_deadline: dict[int, int],
                              slot: int, prob: float, duration: int,
                              rng: np.random.Generator) -> int:
    """Sample per-block strikes for one slot; expand struck logical qubits."""
    hits = rng.random((plane.rows, plane.cols)) < prob
    count = 0
    for r, c in np.argwhere(hits):
        count += 1
        blk = plane.strike(int(r), int(c), slot + duration)
        if blk.state is BlockState.LOGICAL and blk.logical_id is not None:
            qubit = blk.logical_id
            if plane.expand_logical(qubit, slot):
                expansion_deadline[qubit] = max(
                    expansion_deadline.get(qubit, 0), slot + duration)
        elif blk.state is BlockState.EXPANSION and blk.logical_id is not None:
            expansion_deadline[blk.logical_id] = max(
                expansion_deadline.get(blk.logical_id, 0), slot + duration)
    return count


def _reference_expire_expansions(plane: ReferenceQubitPlane,
                                 expansion_deadline: dict[int, int],
                                 slot: int) -> None:
    for qubit in [q for q, until in expansion_deadline.items()
                  if until <= slot]:
        plane.shrink_logical(qubit)
        del expansion_deadline[qubit]

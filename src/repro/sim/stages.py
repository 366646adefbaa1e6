"""The composable stage seam of the batched shot engine.

Every shot kernel in :mod:`repro.sim.batch` tells the same five-beat
story — ``sample → extract → detect → decode → accumulate`` — but until
this module existed each beat lived as a branch inside a kernel method,
so none of them could be exercised (or replaced) on its own.  Here each
beat is a :class:`Stage` object: a :class:`ShotPipeline` threads one
immutable :class:`StageContext` (RNG stream, scratch arena) and one
mutable :class:`StageState` through the stages in order, and the
kernels' ``run_batch_packed`` entry point is nothing but a pipeline
run.  The staged kernels are certified
bit-identical per ``(seed, batch_size)`` to the pre-seam paths
(``tests/test_stages.py`` pins pre-refactor golden outcomes), because
every stage body is the kernel code moved verbatim — the seam changes
*structure*, never math.

Stage coverage per kernel:

===========  ======  =======  ======  ======  ==========
kernel       sample  extract  detect  decode  accumulate
===========  ======  =======  ======  ======  ==========
memory        yes     yes      —       yes     yes
end-to-end    yes     yes      yes     yes     yes
detection     yes     yes      yes (accumulates: the scan rows *are*
                               the outcome rows, so the final beats
                               fuse into one stage)
===========  ======  =======  ======  ======  ==========

Strikes reach the stages only through the kernel's
:class:`~repro.scenarios.model.Scenario`: the memory kernel's noise
model applies its fixed events chunk-wide, and the end-to-end and
detection kernels share one sample stage (:class:`StrikeSampleStage`)
that resolves every event shot by shot.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.decoding.batched import ScratchArena, batched_region_cut_parities
from repro.noise.models import AnomalousRegion, build_anomalous_masks
from repro.sim import bitops

#: Uniforms per strike-overwrite draw (whole shots, one at least): a
#: 64-shot end-to-end chunk draws at once, a paper-scale trial alone.
STRIKE_DRAW_UNIFORMS = 1 << 16


# ----------------------------------------------------------------------
# Context and state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StageContext:
    """Per-run invariants shared by every stage of one pipeline run.

    Args:
        shots: shots (or trials) in this chunk.
        rng: the chunk's seeded generator.  ``None`` is allowed for
            partial runs that start after the sample stage (e.g. the
            decode-stage bench feeding a pre-sampled chunk in).
        arena: the kernel's grow-only scratch arena for batched decode.
    """

    shots: int
    rng: Optional[np.random.Generator] = None
    arena: Optional[ScratchArena] = None


class StageState:
    """The mutable bag a pipeline run threads through its stages.

    Each field is written by exactly one stage and read by later ones
    (``None`` until produced):

    * ``regions`` — per-shot tuples of true strike regions, one per
      scenario event in declaration order (*sample*).
    * ``v`` / ``h`` / ``m`` — packed error words (*sample*).
    * ``activity`` — packed per-cycle node-activity stream (*extract*).
    * ``coords`` / ``vals`` / ``bounds`` — packed active-node index
      arrays (*extract*).
    * ``north_prefix`` — packed running north-cut parities (*extract*,
      end-to-end runs).
    * ``nodes_list`` — per-shot active-node coordinate arrays
      (*extract* for memory, *detect* for end-to-end, whose truncation
      point depends on the scan).
    * ``parities`` — per-shot error cut parities (same producers).
    * ``detections`` — per-shot ``(estimated_region, latency)`` scan
      results (*detect*).
    * ``matchings`` — per-shot matching cut parities (*decode*).
    * ``outcomes`` — the kernel's output array (*accumulate*).
    """

    __slots__ = ("regions", "v", "h", "m", "activity", "coords", "vals",
                 "bounds", "north_prefix", "nodes_list", "parities",
                 "detections", "matchings", "outcomes")

    regions: Any
    v: Any
    h: Any
    m: Any
    activity: Any
    coords: Any
    vals: Any
    bounds: Any
    north_prefix: Any
    nodes_list: Any
    parities: Any
    detections: Any
    matchings: Any
    outcomes: Any

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, None)


class Stage:
    """One beat of a shot pipeline: reads/writes :class:`StageState`."""

    name = "stage"

    def run(self, ctx: StageContext, state: StageState) -> None:
        raise NotImplementedError


class ShotPipeline:
    """An ordered sequence of stages run under one context."""

    def __init__(self, stages: Sequence[Stage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = tuple(stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def run(self, ctx: StageContext,
            state: Optional[StageState] = None) -> np.ndarray:
        """Run every stage in order; returns the outcome array."""
        if state is None:
            state = StageState()
        for stage in self.stages:
            stage.run(ctx, state)
        return state.outcomes

    def run_until(self, name: str, ctx: StageContext,
                  state: Optional[StageState] = None) -> StageState:
        """Run stages up to and including ``name``; returns the state.

        The seam for partial runs: the decode-stage bench samples and
        detects a chunk once (``run_until("detect")``) and then times
        the decode tail over the captured state.
        """
        if name not in self.names():
            raise ValueError(f"no stage named {name!r} in {self.names()}")
        if state is None:
            state = StageState()
        for stage in self.stages:
            stage.run(ctx, state)
            if stage.name == name:
                break
        return state


class _KernelStage(Stage):
    """A stage bound to its kernel's configuration and prepared state.

    The concrete stages close over the kernel object rather than copy
    its parameters: the kernel remains the single owner of its
    configuration and of the prepared noise/lattice/decoder tuple, so
    staged runs can never drift from it.
    """

    def __init__(self, kernel: Any):
        self.kernel = kernel


# ----------------------------------------------------------------------
# Chunk-wide anomalous-region overwrite (shared by the strike sample stage)
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _box_masks(distance: int, size: int) -> list:
    """Flat ``v``, ``h``, ``m`` masks of a ``size`` box: entry ``[r, c]``
    of each table is :func:`build_anomalous_masks` at origin ``(r, c)``
    (origins past the lattice clip to ``(d - 1, d)``: empty masks)."""
    d = distance
    masks = [build_anomalous_masks(d, AnomalousRegion(r, c, size))
             for r in range(d) for c in range(d + 1)]
    return [np.array([m[k].ravel() for m in masks]).reshape(d, d + 1, -1)
            for k in range(3)]


def _overwrite_strikes_packed(arrays: tuple, regions: list, events: tuple,
                              distance: int,
                              rng: np.random.Generator) -> None:
    """Resample every shot's strike boxes in the packed ``(v, h, m)`` words.

    ``regions`` holds each shot's resolved regions (only the box origins
    vary by shot); ``events`` gives sizes, windows and ``p_ano``.  Bit
    for bit the shot-by-shot, event-by-event overwrite: the uniforms
    run shot-major, then event, then ``v``, ``h``, ``m``, each block over
    the event's clipped window and box cells, and a lane takes
    ``u < p_ano`` there.  Consecutive whole shots draw in one call of at
    most :data:`STRIKE_DRAW_UNIFORMS` (one shot at least).  Each (event,
    array) then lands for all of a draw's shots in a word at once: cell
    columns sort by cell, and the lanes of one cell's columns add up
    (distinct bits, so the sum is their OR).
    """
    shots, cycles = len(regions), arrays[0].shape[1]
    word = bitops.WORD_BITS
    origin = np.minimum(np.array(
        [[(reg.row_lo, reg.col_lo) for reg in regs] for regs in regions],
        dtype=np.intp).reshape(shots, len(events), 2), (distance - 1, distance))
    blocks = []  # per (event, array): (array, t_lo, span, masks, p_ano)
    for e, event in enumerate(events):
        t_hi = cycles if event.t_hi is None else min(cycles, event.t_hi)
        span = max(0, t_hi - event.onset)
        for arr, table in zip(arrays, _box_masks(distance, event.size),
                              strict=True):
            blocks.append((arr.reshape(len(arr), cycles, -1), event.onset,
                           span, table[origin[:, e, 0], origin[:, e, 1]],
                           event.p_ano))
    sizes = np.stack([span * masks.sum(axis=1)
                      for _, _, span, masks, _ in blocks], axis=1)
    totals = sizes.sum(axis=1)
    step = max(1, STRIKE_DRAW_UNIFORMS // max(1, int(totals.max())))
    for s0 in range(0, shots, step):
        s1 = min(shots, s0 + step)
        u = rng.random(int(totals[s0:s1].sum()))
        # at[q, k]: offset in ``u`` of block q of the draw's k-th shot.
        at = (np.cumsum(sizes[s0:s1]).reshape(s1 - s0, -1)
              - sizes[s0:s1]).T
        for q, (grid, t_lo, span, masks, p_ano) in enumerate(blocks):
            for w in range(s0 // word, (s1 - 1) // word + 1) if span else ():
                a, b = max(s0, w * word), min(s1, (w + 1) * word)
                shot, cell = np.nonzero(masks[a:b])
                if b - a == 1:  # a lone shot's block is already (span, n)
                    bits = u[at[q, a - s0]:][:span * len(cell)].reshape(
                        span, len(cell))
                else:
                    width = np.bincount(shot, minlength=b - a)
                    first = (at[q, a - s0 + shot] + np.arange(len(cell))
                             - (np.cumsum(width) - width)[shot])
                    order = np.argsort(cell, kind="stable")
                    cell, first, shot = cell[order], first[order], shot[order]
                    bits = u[first + np.arange(span)[:, None] * width[shot]]
                heads = np.flatnonzero(np.diff(cell, prepend=-1))
                lane = np.uint64(1) << (a - w * word + shot).astype(np.uint64)
                new = np.where(bits < p_ano, lane, np.uint64(0))
                clear = lane
                if len(heads) < len(cell):
                    # Columns of one cell: difference of running sums.
                    run = np.cumsum(new, axis=1)
                    new = run[:, np.append(heads[1:], len(cell)) - 1]
                    new[:, 1:] -= run[:, heads[1:] - 1]
                    clear = np.bitwise_or.reduceat(lane, heads)
                cols = cell[heads]
                window = grid[w, t_lo:t_lo + span]
                window[:, cols] = window[:, cols] & ~clear | new


# ----------------------------------------------------------------------
# Memory kernel stages
# ----------------------------------------------------------------------
class MemorySampleStage(_KernelStage):
    """Draw the chunk's error arrays from the kernel's noise model."""

    name = "sample"

    def run(self, ctx: StageContext, state: StageState) -> None:
        noise = self.kernel._state[0]
        state.v, state.h, state.m = noise.sample_batch_packed(
            ctx.shots, self.kernel.cycles, ctx.rng)


class MemoryExtractStage(_KernelStage):
    """Error arrays → per-shot active nodes + error cut parities."""

    name = "extract"

    def run(self, ctx: StageContext, state: StageState) -> None:
        lattice = self.kernel._state[1]
        coords, vals, _ = lattice.detection_events_packed(
            state.v, state.h, state.m)
        nodes, offsets = lattice.shot_nodes_bulk(coords, vals, ctx.shots)
        state.nodes_list = [nodes[offsets[s]:offsets[s + 1]]
                            for s in range(ctx.shots)]
        state.parities = bitops.unpack_shots(
            lattice.error_cut_parity_packed(state.v),
            ctx.shots).astype(np.int8)


class MemoryDecodeStage(_KernelStage):
    """Matching cut parities for the chunk."""

    name = "decode"

    def run(self, ctx: StageContext, state: StageState) -> None:
        state.matchings = self.kernel._cut_parities(state.nodes_list)


class MemoryAccumulateStage(_KernelStage):
    """Logical-failure indicators: error parity XOR matching parity."""

    name = "accumulate"

    def run(self, ctx: StageContext, state: StageState) -> None:
        state.outcomes = state.parities ^ state.matchings


# ----------------------------------------------------------------------
# End-to-end and detection kernel stages
# ----------------------------------------------------------------------
class StrikeSampleStage(_KernelStage):
    """Per-shot strike regions + base draw + anomalous overwrites.

    The sample beat of the end-to-end and detection kernels.  Each shot
    resolves the kernel scenario's whole event list to a region tuple
    in declaration order (positionless events draw a fresh position
    through :meth:`AnomalousRegion.random`); the base arrays are then
    drawn chunk-wide from the kernel's base noise model, and each
    shot's events overwrite their boxes in declaration order at their
    own ``p_ano``, many shots at once (:func:`_overwrite_strikes_packed`).
    """

    name = "sample"

    def run(self, ctx: StageContext, state: StageState) -> None:
        kernel = self.kernel
        base_noise = kernel._state[2]
        d, scenario, rng = kernel.distance, kernel.scenario, ctx.rng
        state.regions = [scenario.resolve_regions(d, rng)
                         for _ in range(ctx.shots)]
        v, h, m = base_noise.sample_batch_packed(ctx.shots, kernel.cycles,
                                                 rng)
        _overwrite_strikes_packed((v, h, m), state.regions, scenario.events,
                                  d, rng)
        state.v, state.h, state.m = v, h, m


class EndToEndExtractStage(_KernelStage):
    """Activity stream + its node index + running north-cut parities."""

    name = "extract"

    def run(self, ctx: StageContext, state: StageState) -> None:
        lattice = self.kernel._state[0]
        state.activity = lattice.per_cycle_activity_packed(
            state.v, state.h, state.m)
        state.coords, state.vals, state.bounds = \
            lattice.packed_active_nodes(state.activity)
        state.north_prefix = lattice.north_cut_prefix_packed(state.v)


class EndToEndDetectStage(_KernelStage):
    """Windowed scans + truncated nodes/parities, chunk-wide.

    The scan decides each shot's stop cycle, so the decode inputs (the
    active nodes and error parity of the *truncated* run) are produced
    here rather than at extract time.  Nothing is re-extracted: the
    truncated difference lattice is the first ``stop`` activity
    layers plus a final layer that is exactly ``m[stop - 1]``, and the
    truncated error parity is one bit of the running north-cut parity.
    The kernel's scan tail reads the whole chunk's packed activity
    words; one lane-major unpack with a per-shot ``t_stop`` lists the
    activity nodes, and each shot's final layer follows them.
    """

    name = "detect"

    def run(self, ctx: StageContext, state: StageState) -> None:
        shots = ctx.shots
        lattice = self.kernel._state[0]
        stop, estimated, latency = self.kernel._scan_tail(state.activity,
                                                          shots)
        nodes, offs = lattice.shot_nodes_bulk(state.coords, state.vals,
                                              shots, t_stop=stop)
        w, b = np.divmod(np.arange(shots, dtype=np.uint64),
                         np.uint64(bitops.WORD_BITS))
        fs, fi, fj = np.nonzero((state.m[w, stop - 1] >> b[:, None, None])
                                & np.uint64(1))
        # Each shot: its activity nodes (t < stop), then its final layer.
        shot = np.concatenate([np.repeat(np.arange(shots), np.diff(offs)),
                               fs])
        order = np.argsort(shot, kind="stable")
        nodes = np.concatenate([nodes, np.stack([stop[fs], fi, fj], axis=1)
                                .astype(nodes.dtype)])[order]
        offs = np.searchsorted(shot[order], np.arange(shots + 1))
        state.nodes_list = [nodes[offs[s]:offs[s + 1]] for s in range(shots)]
        state.parities = ((state.north_prefix[w, stop - 1] >> b)
                          & np.uint64(1)).astype(np.int64)
        state.detections = list(zip(estimated, latency.tolist(),
                                    strict=True))


class EndToEndDecodeStage(_KernelStage):
    """Score the chunk's three strategies into the outcome rows.

    Greedy decoding runs one region-bucketed engine call per strategy
    over the whole chunk — naive shares one model, oracle folds each
    shot's true strike boxes into the bucket tensors, and detected
    folds each detecting shot's estimate (whose onset varies shot to
    shot); misses inherit the naive matching.  MWPM, and scenarios
    whose events carry different region weights (the bucketed engine
    takes one weight per chunk), score shot by shot instead.
    """

    name = "decode"

    def run(self, ctx: StageContext, state: StageState) -> None:
        kernel = self.kernel
        shots = len(state.nodes_list)
        naive = kernel._naive_parities(state.nodes_list)
        out = np.empty((shots, 4), dtype=np.int64)
        w_anos = kernel._state[4]
        w_ano = w_anos[0]
        if kernel.decoder == "greedy" and all(w == w_ano for w in w_anos):
            err = state.parities.astype(np.int8)
            oracle = batched_region_cut_parities(
                kernel.distance, state.regions, state.nodes_list, w_ano,
                arena=ctx.arena)
            detected = naive.copy()
            det_idx = [s for s, (est, _) in enumerate(state.detections)
                       if est is not None]
            if det_idx:
                detected[det_idx] = batched_region_cut_parities(
                    kernel.distance,
                    [(state.detections[s][0],) for s in det_idx],
                    [state.nodes_list[s] for s in det_idx], w_ano,
                    arena=ctx.arena)
            out[:, 0] = err ^ naive
            out[:, 1] = err ^ detected
            out[:, 2] = err ^ oracle
        else:
            for s, (estimated, _) in enumerate(state.detections):
                out[s, :3] = kernel._score(
                    state.nodes_list[s], int(state.parities[s]),
                    int(naive[s]), state.regions[s], estimated)
        state.outcomes = out


class EndToEndAccumulateStage(_KernelStage):
    """Fold the detection latencies into the outcome rows."""

    name = "accumulate"

    def run(self, ctx: StageContext, state: StageState) -> None:
        state.outcomes[:, 3] = [latency
                                for _, latency in state.detections]


class DetectionExtractStage(_KernelStage):
    """Error words → the packed per-cycle node-activity stream."""

    name = "extract"

    def run(self, ctx: StageContext, state: StageState) -> None:
        state.activity = self.kernel._state[0].per_cycle_activity_packed(
            state.v, state.h, state.m)


class DetectionScoreStage(_KernelStage):
    """Windowed-count scans of the packed activity → outcome rows.

    For detection trials the scan rows *are* the outcome rows
    (``false_positive, detected, latency, position_error``), so the
    detect and accumulate beats fuse into this one stage; there is no
    decode beat at all.
    """

    name = "detect"

    def run(self, ctx: StageContext, state: StageState) -> None:
        state.outcomes = self.kernel._score_all(state.activity,
                                                state.regions)

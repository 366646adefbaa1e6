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

The streaming driver (:mod:`repro.streaming`) reuses the same seam
vocabulary with rounds arriving incrementally instead of as a batch
tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from repro.decoding.batched import ScratchArena, batched_region_cut_parities
from repro.noise.models import AnomalousRegion, build_anomalous_masks
from repro.sim import bitops


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
# Per-shot anomalous-region overwrite (shared by the strike sample stage)
# ----------------------------------------------------------------------
def _overwrite_anomalous_packed(v: np.ndarray, h: np.ndarray, m: np.ndarray,
                                shot: int, region: AnomalousRegion,
                                distance: int, p_ano: float,
                                rng: np.random.Generator) -> None:
    """Resample one shot's packed error words at ``p_ano`` in ``region``.

    The kernels draw the whole chunk at the base rate first; per-shot
    regions then only touch their own cells, mirroring
    ``PhenomenologicalNoise.sample`` with that region.  The uniforms
    are drawn per array in ``v, h, m`` order over the clipped time
    span, then deposited into ``shot``'s lane of the affected words
    with a set/clear mask — the rest of the word's 64 shots are
    untouched.
    """
    masks = build_anomalous_masks(distance, region)
    cycles = v.shape[1]
    t_hi = region.t_hi if region.t_hi is not None else cycles
    t_lo, t_hi = max(0, region.t_lo), min(cycles, t_hi)
    if t_hi <= t_lo:
        return
    span = t_hi - t_lo
    w, b = divmod(shot, bitops.WORD_BITS)
    bit = np.uint64(1) << np.uint64(b)
    for arr, mask in zip((v, h, m), masks, strict=True):
        bits = rng.random((span, int(mask.sum()))) < p_ano
        view = arr[w, t_lo:t_hi]
        current = view[:, mask]
        view[:, mask] = np.where(bits, current | bit, current & ~bit)


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
    own ``p_ano``.
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
        # Regions differ per shot, so the anomalous overwrite is the one
        # per-shot sampling step (touching only the region's cells).
        p_anos = [event.p_ano for event in scenario.events]
        for s, regs in enumerate(state.regions):
            for region, p_ano in zip(regs, p_anos, strict=True):
                _overwrite_anomalous_packed(v, h, m, s, region, d, p_ano,
                                            rng)
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
    """Windowed scans + truncated nodes/parities per shot.

    The scan decides each shot's stop cycle, so the decode inputs (the
    active nodes and error parity of the *truncated* run) are produced
    here rather than at extract time.  Nothing is re-extracted: the
    truncated difference lattice is the first ``stop`` activity
    layers plus a final layer that is exactly ``m[stop - 1]``, and the
    truncated error parity is one bit of the running north-cut parity.
    The scan reads the extract stage's packed activity words directly.
    """

    name = "detect"

    def run(self, ctx: StageContext, state: StageState) -> None:
        kernel = self.kernel
        lattice = kernel._state[0]
        detections: list = []
        nodes_list: list = []
        parities = np.empty(ctx.shots, dtype=np.int64)
        scans = kernel._detect_all(state.activity, ctx.shots)
        for s, (stop, estimated, latency) in enumerate(scans):
            nodes_list.append(kernel._shot_nodes_truncated(
                lattice, state.coords, state.vals, state.bounds,
                state.m, s, stop))
            parities[s] = bitops.lane_bit(
                state.north_prefix[:, stop - 1], s)
            detections.append((estimated, latency))
        state.nodes_list = nodes_list
        state.parities = parities
        state.detections = detections


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

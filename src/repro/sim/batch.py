"""Batched shot engine for Monte-Carlo campaigns.

The paper's headline results are >= 1e5-sample campaigns; running each
shot through per-cycle Python loops caps benches at a few hundred.  This
module is the production hot path, and its only one:

* **Staged pipelines** — each kernel's run is a
  :class:`repro.sim.stages.ShotPipeline` over the composable stage seam
  (``sample → extract → detect → decode → accumulate``); the kernels
  own configuration, scan tails and decode strategy, the stages own the
  batch dataflow, and partial runs (``pipeline().run_until(...)``)
  expose any seam for benchmarking or testing.

* **One strike model** — every kernel takes its strikes as a
  :class:`repro.scenarios.model.Scenario`: the memory kernel hands its
  fixed events to the noise model, and the end-to-end and detection
  kernels place each event per shot.  The region specs reach them as
  one-event scenarios (:func:`repro.campaigns.runner.shot_engine`).

* **Bit-packed sampling and extraction** — Bernoulli bits are sampled
  straight into uint64 words (64 shots per word, see
  :mod:`repro.sim.bitops`), and syndrome differences and boundary
  parities run as word-wise XOR.  The windowed detection scan unpacks
  only the bytes that hold real lanes, and decode materializes only
  each shot's active-node coordinates.

* **Cross-shot batched decode** — the greedy matchings of a chunk run
  through :mod:`repro.decoding.batched`: shots bucketed by active-node
  count, bucket-wide distance tensors, one flattened candidate sort and
  a vectorized acceptance (MWPM decodes shot by shot).  Scratch buffers
  live in a per-worker :class:`repro.decoding.batched.ScratchArena`
  reused across chunks.

* **Process fan-out** — the campaign layer's executors
  (:mod:`repro.campaigns.executors`) decide where chunks run; a pool
  worker builds its kernel (and decoder) once and reuses it for every
  chunk it is handed.

* **Reproducibility** — one :class:`numpy.random.SeedSequence` spawns a
  child seed per batch (:func:`chunk_plan`), so a campaign's outcomes
  depend only on ``(seed, batch_size)`` — never on the worker count or
  on scheduling.  ``tests/reference_engines.py::reference_chunk``
  recomputes any chunk from the same draws through float arrays,
  per-shot extraction, per-shot matching and per-shot scans; the
  equivalence suites certify the kernels bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from repro.core.statistics import (SyndromeStatistics, detection_threshold,
                                   expected_activity_rate)
from repro.decoding.batched import ScratchArena, batched_cut_parities
from repro.decoding.graph import SyndromeLattice
from repro.decoding.greedy import greedy_cut_parity
from repro.decoding.mwpm import MWPMDecoder
from repro.decoding.weights import (DistanceModel, MultiRegionDistanceModel,
                                    relative_anomalous_weight)
from repro.noise.models import AnomalousRegion, PhenomenologicalNoise
from repro.scenarios.model import NO_STRIKES, Scenario
from repro.sim.stages import (DetectionExtractStage, DetectionScoreStage,
                              EndToEndAccumulateStage, EndToEndDecodeStage,
                              EndToEndDetectStage, EndToEndExtractStage,
                              MemoryAccumulateStage, MemoryDecodeStage,
                              MemoryExtractStage, MemorySampleStage,
                              ShotPipeline, StageContext, StageState,
                              StrikeSampleStage)

#: Largest single chunk an in-process whole-request campaign
#: (``default_executor(0)``) decodes at once: it batches the whole shot
#: request, and this cap keeps the word arrays of a huge request from
#: dominating memory.
MAX_CHUNK_SHOTS = 4096

#: Activity-tensor element budget per in-process chunk.  The windowed
#: scan unpacks the whole ``(S, T, rows, cols)`` chunk to one byte per
#: element and writes a bool ``over`` block of the same size, so the
#: chunk size must shrink with ``cycles * d^2`` — a shots-only cap
#: would OOM the paper-scale Fig. 7 points (d = 21, c_win in the
#: hundreds).  The cap keeps a chunk's scan near 64 MB.  It also fixes
#: the default chunk plans, and so the outcomes, of whole-request runs.
MAX_CHUNK_ELEMENTS = 1 << 25


def default_chunk_shots(shots: int, per_shot_elements: int) -> int:
    """Chunk size for a whole-request (``default_executor(0)``) campaign.

    The whole request when it fits, shrunk by the per-shot activity
    footprint (``total_cycles * lattice nodes``) so one chunk's scan
    tensors stay inside :data:`MAX_CHUNK_ELEMENTS`.
    """
    cap = max(1, MAX_CHUNK_ELEMENTS // max(1, per_shot_elements))
    return max(1, min(shots, MAX_CHUNK_SHOTS, cap))


def chunk_plan(shots: int,
               batch_size: int,
               seed: Optional[int]) -> list[tuple[int, np.random.SeedSequence]]:
    """The campaign's chunk decomposition: ``(size, child seed)`` pairs.

    This is *the* reproducibility contract of the shot engine: one
    :class:`numpy.random.SeedSequence` spawns a child per chunk, so a
    campaign's outcomes depend only on ``(seed, batch_size)`` — never on
    the worker count, scheduling, or on which chunks were restored from
    a checkpoint.  The campaign runner and the remote workers of
    :mod:`repro.campaigns` build their plans through this one function
    so they can never drift apart.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sizes = [batch_size] * (shots // batch_size)
    if shots % batch_size:
        sizes.append(shots % batch_size)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return list(zip(sizes, children, strict=True))


# ----------------------------------------------------------------------
# Shared kernel pieces
# ----------------------------------------------------------------------
def _strike_model(distance: int, regions: tuple, w_anos: tuple):
    """Matching distances that know the strike boxes ``regions``.

    No box gives the uniform model, one box its :class:`DistanceModel`,
    several a :class:`MultiRegionDistanceModel` with per-box weights.
    """
    if not regions:
        return DistanceModel(distance)
    if len(regions) == 1:
        return DistanceModel(distance, regions[0], w_anos[0])
    return MultiRegionDistanceModel(distance, regions, w_anos)


def _mwpm_parities(mwpm: MWPMDecoder, nodes_list: list) -> np.ndarray:
    """Per-shot MWPM cut parities for a chunk (no nodes: parity 0)."""
    return np.fromiter(
        ((mwpm.decode(nodes).correction_cut_parity if len(nodes) else 0)
         for nodes in nodes_list),
        dtype=np.int8, count=len(nodes_list))


def _windowed_over(activity: np.ndarray, c_win: int,
                   v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window counter state for one shot's activity stream.

    Returns ``(over, n_over)`` where index ``k`` corresponds to cycle
    ``t = k + c_win - 1`` (the unit stays silent until its window
    fills): ``over[k]`` is the above-threshold node map, ``n_over[k]``
    its count.  Exactly the counter update of
    :meth:`AnomalyDetectionUnit.observe` under the fixed discard
    semantics, where masks never touch a scored detection (pre-onset
    flags clear their masks; the first accepted flag ends the shot).
    """
    cum = np.cumsum(activity, axis=0, dtype=np.int32)
    if len(cum) < c_win:
        empty = np.zeros((0,) + activity.shape[1:], dtype=bool)
        return empty, np.zeros(0, dtype=np.int64)
    windowed = cum[c_win - 1:].copy()
    windowed[1:] -= cum[:-c_win]
    over = windowed > v_th
    return over, over.sum(axis=(1, 2))


def _windowed_over_batch(activity_words: np.ndarray, shots: int, c_win: int,
                         v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_windowed_over` for every shot of a packed activity stream.

    ``activity_words`` is the extract stage's ``(words, T, rows, cols)``
    uint64 stream.  Only the bytes holding real lanes are unpacked,
    time-major with lanes last, and the window slides one layer at a
    time as an integer running sum (counts never exceed ``c_win``), so
    ``over[..., s]`` / ``n_over[s]`` equal the per-shot scan of shot
    ``s`` bit for bit.  Returns ``over`` as ``(K, rows, cols, shots)``
    and ``n_over`` as ``(shots, K)``.
    """
    words, cycles = activity_words.shape[:2]
    grid = activity_words.shape[2:]
    if cycles < c_win:
        return (np.zeros((0,) + grid + (shots,), dtype=bool),
                np.zeros((shots, 0), dtype=np.int64))
    n_bytes = -(-shots // 8)
    as_bytes = np.ascontiguousarray(activity_words, dtype="<u8").view(
        np.uint8).reshape(activity_words.shape + (8,))
    lanes = np.moveaxis(as_bytes, 0, -2).reshape(
        (cycles,) + grid + (8 * words,))
    act = np.unpackbits(np.ascontiguousarray(lanes[..., :n_bytes]).ravel(),
                        bitorder="little").reshape(
        (cycles,) + grid + (8 * n_bytes,))
    counts = act[:c_win].sum(axis=0, dtype=np.min_scalar_type(c_win))
    over = np.empty((cycles - c_win + 1,) + act.shape[1:], dtype=bool)
    np.greater(counts, v_th, out=over[0])
    for k in range(1, len(over)):
        counts += act[k + c_win - 1]
        counts -= act[k - 1]
        np.greater(counts, v_th, out=over[k])
    return over[..., :shots], over.sum(axis=(1, 2)).T[:shots]


def _median_floor(counts: np.ndarray) -> np.ndarray:
    """``int(np.median(x))`` per row, where ``counts[k, v]`` counts value
    ``v`` in row ``k``'s non-empty sample of non-negative integers: the
    floor of the mean of the two middle order statistics."""
    run = np.cumsum(counts, axis=1)
    n = run[:, -1:]
    return ((run <= (n - 1) // 2).sum(axis=1)
            + (run <= n // 2).sum(axis=1)) // 2


# ----------------------------------------------------------------------
# Shot kernels
# ----------------------------------------------------------------------
class _ShotKernel:
    """The chunk plumbing every shot kernel shares.

    A kernel builds its prepared state lazily (:meth:`prepare`, once
    per process), pickles without it, and runs a chunk as one pass of
    its :meth:`pipeline` under a fresh :class:`StageContext`.
    """

    _state: Optional[tuple] = None
    _arena: Optional[ScratchArena] = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_state"] = None  # rebuilt lazily inside each worker
        state["_arena"] = None
        return state

    def _context(self, shots: int, rng: Optional[np.random.Generator],
                 packing: str = "bits") -> StageContext:
        """The stage context of one chunk.

        ``packing`` names the word layout; ``"bits"`` is the only one.
        """
        if packing != "bits":
            raise ValueError(f"packing must be 'bits', got {packing!r}")
        self.prepare()
        return StageContext(shots=shots, rng=rng, arena=self._arena)

    def run_batch_packed(self, shots: int,
                         rng: np.random.Generator) -> np.ndarray:
        """One chunk's outcome rows (the kernel's single entry point)."""
        return self.pipeline().run(self._context(shots, rng))


class MemoryShotKernel(_ShotKernel):
    """The memory campaign's shot kernel.

    ``run_batch_packed(shots, rng)`` returns an ``(shots,)`` int8 array
    of logical-failure indicators, distributionally identical to the
    per-shot loop ``tests/reference_engines.py::reference_memory_run``
    (the same error model and the exact same matching; only the order
    in which the uniforms are drawn differs).  The strikes are
    ``scenario``'s fixed-position events (none by default), applied
    chunk-wide by the noise model; ``informed`` decodes with their
    boxes weighted.  Active-node coordinates for the whole chunk come
    out of one bulk lane unpack.
    """

    #: column of the outcome rows that feeds the streamed estimate
    success_column = 0
    default_batch_size = 512

    def __init__(self, distance: int, p: float,
                 scenario: Scenario = NO_STRIKES, decoder: str = "greedy",
                 informed: bool = False, cycles: Optional[int] = None):
        if not scenario.fixed:
            raise ValueError(
                "memory-kernel scenarios need fixed event positions")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self.decoder = decoder
        self.informed = informed
        self.cycles = cycles if cycles is not None else distance

    def prepare(self) -> None:
        """Build noise/lattice/decoder once (per process, per worker)."""
        if self._state is not None:
            return
        noise = PhenomenologicalNoise(self.distance, self.p, self.scenario)
        lattice = SyndromeLattice(self.distance)
        if self.informed:
            events = self.scenario.events
            model = _strike_model(
                self.distance, tuple(e.region() for e in events),
                tuple(relative_anomalous_weight(self.p, e.p_ano)
                      for e in events))
        else:
            model = DistanceModel(self.distance)
        mwpm = MWPMDecoder(model) if self.decoder == "mwpm" else None
        self._arena = ScratchArena()
        self._state = (noise, lattice, model, mwpm)

    def _cut_parities(self, nodes_list: list) -> np.ndarray:
        """Matching parities for a whole chunk of shots.

        The greedy decoder runs through the bucketed batched engine;
        MWPM decodes shot by shot.
        """
        _, _, model, mwpm = self._state
        if mwpm is None:
            return batched_cut_parities(model, nodes_list,
                                        arena=self._arena)
        return _mwpm_parities(mwpm, nodes_list)

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (sample/extract/decode/accumulate)."""
        self.prepare()
        return ShotPipeline((MemorySampleStage(self),
                             MemoryExtractStage(self),
                             MemoryDecodeStage(self),
                             MemoryAccumulateStage(self)))


class EndToEndShotKernel(_ShotKernel):
    """Batched end-to-end strike shots (detect, estimate, re-decode).

    Output rows are ``(naive, detected, oracle, latency)`` with
    ``latency = -1`` on a missed detection.  The strikes are
    ``scenario``'s events, positionless ones re-drawn every shot; the
    control unit assumes the lead (earliest-onset) event's onset, size
    and weight.  The per-cycle detection scan is replaced by a
    windowed-count computation over the whole packed activity stream
    (:func:`_windowed_over_batch`, a per-layer running sum over the
    chunk's real lanes; exact under the discard-pre-onset semantics:
    masks from discarded events are cleared, and the first accepted
    event ends the shot, so no mask can ever touch a scored detection).

    The scan tail (:meth:`_scan_tail`) runs on the whole chunk's
    arrays, and the per-shot truncated rerun (``v[:stop]`` …) never
    happens: the
    difference lattice of a run stopped at ``stop`` is the first
    ``stop`` layers of the live activity stream plus a final layer that
    is exactly ``m[stop - 1]``, and the truncated error parity is one
    bit of the packed running north-cut parity — all of which are
    sliced out of the word arrays already computed for the whole chunk.
    """

    success_column = 1  # detected-strategy failures drive early stopping
    default_batch_size = 64

    def __init__(self, distance: int, p: float, scenario: Scenario,
                 cycles: int, c_win: int, n_th: int, alpha: float,
                 decoder: str = "greedy"):
        if decoder not in ("greedy", "mwpm"):
            raise ValueError("decoder must be 'greedy' or 'mwpm'")
        if not scenario.events:
            raise ValueError("end-to-end scenarios need at least one event")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self.lead = scenario.lead  # the strike the control unit assumes
        self.cycles = cycles
        self.c_win = c_win
        self.n_th = n_th
        self.alpha = alpha
        self.decoder = decoder

    def prepare(self) -> None:
        if self._state is not None:
            return
        lattice = SyndromeLattice(self.distance)
        stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(self.p))
        v_th = detection_threshold(stats, self.c_win, self.alpha)
        # Events land per shot in the sample stage; the noise model
        # draws only the (possibly heterogeneous or drifting) base.
        base_noise = PhenomenologicalNoise(
            self.distance, self.p, replace(self.scenario, events=()))
        naive_model = DistanceModel(self.distance)
        w_anos = tuple(relative_anomalous_weight(self.p, e.p_ano)
                       for e in self.scenario.events)
        self._arena = ScratchArena()
        self._state = (lattice, v_th, base_noise, naive_model, w_anos)

    def _naive_parities(self, nodes_list: list) -> np.ndarray:
        """Naive-model matchings for the chunk.

        The naive decode shares one :class:`DistanceModel` across every
        shot, so greedy runs through the bucketed engine; MWPM decodes
        shot by shot.
        """
        naive_model = self._state[3]
        if self.decoder == "greedy":
            return batched_cut_parities(naive_model, nodes_list,
                                        arena=self._arena)
        return _mwpm_parities(MWPMDecoder(naive_model), nodes_list)

    def _scan_tail(self, activity_words: np.ndarray, shots: int) -> tuple:
        """Every shot's scan tail, from one windowed-count pass.

        The control unit reasons about the scenario's lead strike: a
        shot fires at the first window past ``n_th`` from the lead's
        onset on, and its estimate is a box of the lead's size
        (:func:`~repro.sim.endtoend.estimate_strike_region`) around the
        medians of the flagged rows and columns.  Returns per-shot
        ``stop`` cycles (``d`` after the flag, or the whole run on a
        miss), region estimates (``None`` on a miss) and latencies (-1
        on a miss).
        """
        d, cycles, c_win = self.distance, self.cycles, self.c_win
        lead = self.scenario.events[self.lead]
        over, n_over = _windowed_over_batch(activity_words, shots, c_win,
                                            self._state[1])
        start = max(lead.onset - (c_win - 1), 0)
        above = n_over[:, start:] > self.n_th
        fired = above.any(axis=1)
        hit = np.flatnonzero(fired)
        k = start + (above.argmax(axis=1) if above.size else 0)
        event_cycle = k + c_win - 1
        stop = np.where(fired, np.minimum(cycles, event_cycle + d), cycles)
        latency = np.where(fired, event_cycle - lead.onset, -1)
        estimated: list = [None] * shots
        if len(hit):
            flags = over[k[hit], :, :, hit]
            half, size = lead.size // 2, lead.size
            row_lo = np.clip(_median_floor(flags.sum(axis=2)) - half, 0,
                             max(0, d - 1 - size))
            col_lo = np.clip(_median_floor(flags.sum(axis=1)) - half, 0,
                             max(0, d - size))
            t_lo = np.maximum(0, event_cycle[hit] - c_win)
            for s, r, c, t in zip(hit.tolist(), row_lo.tolist(),
                                  col_lo.tolist(), t_lo.tolist(),
                                  strict=True):
                estimated[s] = AnomalousRegion(r, c, size, t)
        return stop, estimated, latency

    def _matching_parity(self, model, nodes: np.ndarray) -> int:
        """One shot's matching cut parity under the spec'd decoder."""
        if self.decoder == "mwpm":
            if len(nodes) == 0:
                return 0
            return int(MWPMDecoder(model).decode(nodes)
                       .correction_cut_parity)
        return greedy_cut_parity(model, nodes)

    def _score(self, nodes: np.ndarray, error_parity: int,
               naive_parity: int, true_regions: tuple,
               estimated: Optional[AnomalousRegion]):
        """(naive, detected, oracle) failures for one decoded shot.

        The naive matching is precomputed for the whole chunk (one
        shared model — it batches); the oracle matching knows this
        shot's true boxes, one per event at the event's own weight, and
        the detected matching the estimate at the lead event's weight.
        """
        w_anos = self._state[4]
        naive = error_parity ^ naive_parity
        oracle = error_parity ^ self._matching_parity(
            _strike_model(self.distance, true_regions, w_anos), nodes)
        if estimated is None:
            return naive, naive, oracle
        detected = error_parity ^ self._matching_parity(
            DistanceModel(self.distance, estimated,
                          w_anos[self.lead]), nodes)
        return naive, detected, oracle

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (all five beats)."""
        self.prepare()
        return ShotPipeline((StrikeSampleStage(self),
                             EndToEndExtractStage(self),
                             EndToEndDetectStage(self),
                             EndToEndDecodeStage(self),
                             EndToEndAccumulateStage(self)))

    def _assemble(self, nodes_list: list, parities: np.ndarray,
                  regions: list, detections: list) -> np.ndarray:
        """Decode + accumulate over pre-detected chunk inputs.

        The decode-stage seam: feeds a :class:`StageState` holding the
        detect-stage outputs (``nodes_list, parities, regions,
        detections``) through the decode and accumulate stages — the
        decode-stage bench times exactly this tail.
        """
        state = StageState()
        state.nodes_list = nodes_list
        state.parities = parities
        state.regions = regions
        state.detections = detections
        ctx = self._context(len(nodes_list), None)
        EndToEndDecodeStage(self).run(ctx, state)
        EndToEndAccumulateStage(self).run(ctx, state)
        return state.outcomes

    def _chunk_packed(self, shots: int, rng: np.random.Generator) -> tuple:
        """Sample + detect one chunk, stopping short of decode.

        Returns the decode-stage inputs ``(nodes_list, parities,
        regions, detections)`` — the seam the decode-stage bench times
        :meth:`_assemble` across.  A partial pipeline run:
        ``run_until("detect")``.
        """
        state = self.pipeline().run_until(
            "detect", self._context(shots, rng))
        return (state.nodes_list, state.parities, state.regions,
                state.detections)


class DetectionShotKernel(_ShotKernel):
    """Batched detection trials (Fig. 7) for the shot engine.

    Output rows are ``(false_positive, detected, latency, position_error)``
    with ``latency = -1`` and ``position_error = nan`` on a miss.  The
    strikes are ``scenario``'s events; the pre-strike window ends at the
    lead event's onset and ``post_cycles`` follow it.  Uses
    the same windowed-count scan as :class:`EndToEndShotKernel`: exact
    under the discard semantics, where pre-onset flags clear their masks
    and the first post-onset flag ends the trial.  Sampling and the
    syndrome-difference stream stay packed (64 trials per uint64 word)
    until one windowed-count pass (:func:`_windowed_over_batch`) slides
    over the words, unpacking only the bytes of real trials.
    """

    success_column = 1
    default_batch_size = 16

    def __init__(self, distance: int, p: float, scenario: Scenario,
                 c_win: int, n_th: int, alpha: float, post_cycles: int):
        if not scenario.events:
            raise ValueError("detection scenarios need at least one event")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        # The lead strike sets the pre-strike window and the box that
        # position errors are scored against.
        self.lead = scenario.lead
        self.normal_cycles = scenario.first_onset
        self.post_cycles = post_cycles
        self.cycles = self.normal_cycles + post_cycles
        self.c_win = c_win
        self.n_th = n_th
        self.alpha = alpha

    def prepare(self) -> None:
        if self._state is not None:
            return
        stats = SyndromeStatistics.from_activity_rate(
            expected_activity_rate(self.p))
        v_th = detection_threshold(stats, self.c_win, self.alpha)
        base_noise = PhenomenologicalNoise(
            self.distance, self.p, replace(self.scenario, events=()))
        self._state = (SyndromeLattice(self.distance), v_th, base_noise)

    def _score_all(self, activity_words: np.ndarray,
                   regions: list) -> np.ndarray:
        """Outcome rows for a whole chunk's packed activity stream."""
        shots = len(regions)
        out = np.empty((shots, 4), dtype=np.float64)
        over, n_over = _windowed_over_batch(activity_words, shots,
                                            self.c_win, self._state[1])
        for s in range(shots):
            out[s] = self._score_scan(over[..., s], n_over[s], regions[s])
        return out

    def _score_scan(self, over: np.ndarray, n_over: np.ndarray,
                    regions: tuple) -> tuple:
        """One trial's outcome row from its windowed counter state.

        ``regions`` holds the trial's per-event boxes; the lead event's
        box is the one position error is scored against — later
        back-to-back strikes ride inside the post-detection stream,
        stressing the detector's post-clear blindness window.
        """
        region = regions[self.lead]
        c_win, onset = self.c_win, self.normal_cycles
        if not len(n_over):
            return (0.0, 0.0, -1.0, np.nan)
        # Windowed index k corresponds to cycle t = k + c_win - 1.
        pre = max(0, onset - (c_win - 1))
        false_positive = bool(np.any(n_over[:pre] > self.n_th))
        fired = np.flatnonzero(n_over[pre:] > self.n_th)
        if not len(fired):
            return (false_positive, 0.0, -1.0, np.nan)
        cycle = int(fired[0]) + pre + c_win - 1
        flag_r, flag_c = np.nonzero(over[cycle - (c_win - 1)])
        centre_r = region.row_lo + (region.size - 1) / 2.0
        centre_c = region.col_lo + (region.size - 1) / 2.0
        err = math.hypot(int(np.median(flag_r)) - centre_r,
                         int(np.median(flag_c)) - centre_c)
        return (false_positive, 1.0, cycle - onset, err)

    def pipeline(self) -> ShotPipeline:
        """This kernel's staged pipeline (sample/extract/detect)."""
        self.prepare()
        return ShotPipeline((StrikeSampleStage(self),
                             DetectionExtractStage(self),
                             DetectionScoreStage(self)))

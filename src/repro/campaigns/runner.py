"""``repro.campaigns.run``: the one entry point for every experiment.

``run(spec)`` dispatches through a registry keyed on the spec type, so
new campaign kinds plug in with :func:`register_campaign` without
touching this module.  The Monte-Carlo kinds (memory / end-to-end /
detection / scenario) share one runner and one chunked engine: every
spec resolves to the scenario campaign it simulates
(:func:`as_scenario_spec`), the chunk plan comes from
:func:`repro.sim.batch.chunk_plan` (the ``(seed, batch_size)``
reproducibility contract), chunks execute on the chosen
:class:`~repro.campaigns.executors.Executor`, finished chunks stream
into one estimate/early-stop loop (:func:`_run_chunked`), and — when a
checkpoint store is given — every finished chunk is durably appended to
the spec's shard before the next one runs, so a killed campaign resumes
bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.campaigns.checkpoint import CheckpointError, resolve_store
from repro.campaigns.executors import Executor, default_executor
from repro.campaigns.results import CampaignResult, Provenance, SweepResult
from repro.campaigns.specs import (DetectionSpec, EndToEndSpec, MemorySpec,
                                   ScalingSpec, ScenarioSpec, Sweep,
                                   ThroughputSpec, spec_hash)
from repro.scenarios.model import Scenario, StrikeEvent
from repro.sim.batch import (DetectionShotKernel, EndToEndShotKernel,
                             MemoryShotKernel, chunk_plan,
                             default_chunk_shots)
from repro.sim.montecarlo import wilson_interval

#: The campaign registry: spec type -> runner callable.
_RUNNERS: dict[type, Callable] = {}


def register_campaign(spec_type: type):
    """Class decorator registering a runner for a spec type.

    A runner has signature ``fn(spec, executor, store) ->
    CampaignResult``; registering a type twice replaces the runner
    (tests use this to wrap kinds with instrumentation).
    """
    def decorate(fn):
        _RUNNERS[spec_type] = fn
        return fn
    return decorate


def registered_kinds() -> dict[str, type]:
    """Wire-name -> spec type for every registered campaign kind."""
    return {spec_type.kind: spec_type for spec_type in _RUNNERS}


def run(spec, executor: Optional[Executor] = None, checkpoint=None,
        refine: bool = False):
    """Run a campaign spec (or a :class:`Sweep` of them).

    Args:
        spec: any registered campaign spec, or a ``Sweep``.
        executor: where chunks run (default: what ``REPRO_WORKERS``
            asks for via
            :func:`repro.campaigns.executors.default_executor`).
        checkpoint: ``None``, a directory path, or a
            :class:`~repro.campaigns.checkpoint.CheckpointStore`; when
            given, shot-campaign chunks are durably recorded and
            resumed on the next ``run`` of the same spec.
        refine: with a checkpoint store, seed the spec's shard from a
            *sibling* spec's shard (identical in every field but the
            shot request) before running, so asking for more shots
            resumes the existing campaign instead of recomputing it —
            bit-identical to an uninterrupted run of the larger request
            per ``(seed, batch_size)``
            (:func:`repro.campaigns.refine.seed_refinement`).

    Returns:
        :class:`CampaignResult`, or :class:`SweepResult` for a sweep.
    """
    store = resolve_store(checkpoint)
    if executor is None:
        executor = default_executor()
    if isinstance(spec, Sweep):
        return SweepResult([(overrides, run(point, executor, store, refine))
                            for overrides, point in spec.points()])
    fn = _RUNNERS.get(type(spec))
    if fn is None:
        raise TypeError(
            f"no campaign runner registered for {type(spec).__name__}; "
            f"known kinds: {sorted(registered_kinds())}")
    if refine and store is not None:
        from repro.campaigns.refine import seed_refinement
        seed_refinement(store, spec)
    return fn(spec, executor, store)


# ----------------------------------------------------------------------
# The shared chunked engine
# ----------------------------------------------------------------------
def as_scenario_spec(spec) -> ScenarioSpec:
    """The scenario campaign a shot-campaign spec simulates.

    The one place the region-era specs meet the one strike description
    below the spec layer.  A :class:`MemorySpec` region (``"centered"``
    resolved against the spec's distance) is one fixed event at
    ``p_ano``, and no region the strike-free scenario.  An
    :class:`EndToEndSpec` strike is one open-ended event at ``onset``
    whose position is drawn per shot.  A :class:`DetectionSpec` strike
    is the same event at the end of the pre-strike window.  The legacy
    specs keep their wire shape and hashes: the view only builds
    kernels and picks the summary.
    """
    if isinstance(spec, ScenarioSpec):
        return spec
    if isinstance(spec, MemorySpec):
        return ScenarioSpec(
            spec.distance, spec.p, spec.samples,
            Scenario.from_region(spec.resolve_region(), spec.p_ano),
            decoder=spec.decoder, informed=spec.informed,
            cycles=spec.cycles, target_rel_width=spec.target_rel_width)
    if isinstance(spec, EndToEndSpec):
        strike = StrikeEvent(onset=spec.onset, size=spec.anomaly_size,
                             p_ano=spec.p_ano)
        return ScenarioSpec(
            spec.distance, spec.p, spec.shots, Scenario(events=(strike,)),
            mode="endtoend", cycles=spec.cycles, c_win=spec.c_win,
            n_th=spec.n_th, alpha=spec.alpha)
    if isinstance(spec, DetectionSpec):
        normal_cycles, post_cycles = spec.resolved_cycles()
        strike = StrikeEvent(onset=normal_cycles, size=spec.anomaly_size,
                             p_ano=spec.p_ano)
        return ScenarioSpec(
            spec.distance, spec.p, spec.trials, Scenario(events=(strike,)),
            mode="detection", c_win=spec.c_win, n_th=spec.n_th,
            alpha=spec.alpha, post_cycles=post_cycles)
    raise TypeError(
        f"{type(spec).__name__} is not a chunked shot campaign")


def shot_engine(spec) -> tuple[object, int, int]:
    """Build the chunk kernel for a shot-campaign spec.

    Returns ``(kernel, shots, per_shot_elements)`` — the prepared-on-
    demand kernel, the total request, and the per-shot activity
    footprint that caps a whole-request chunk
    (:func:`repro.sim.batch.default_chunk_shots`).  This is the single
    spec-to-kernel translation: every spec resolves through
    :func:`as_scenario_spec`, the in-process runner below uses it, and
    a :mod:`repro.campaigns.distributed` worker rebuilds the
    *identical* kernel from the spec JSON it was shipped, so a chunk's
    outcome cannot depend on which side constructed the kernel.
    """
    view = as_scenario_spec(spec)
    d, p, scenario = view.distance, view.p, view.scenario
    kernel: object
    if view.mode == "memory":
        kernel = MemoryShotKernel(
            d, p, scenario, decoder=view.decoder, informed=view.informed,
            cycles=view.cycles)
        return kernel, view.shots, view.total_cycles() * d * d
    if view.mode == "endtoend":
        kernel = EndToEndShotKernel(
            d, p, scenario, view.total_cycles(), view.c_win, view.n_th,
            view.alpha, decoder=view.decoder)
    else:
        kernel = DetectionShotKernel(
            d, p, scenario, view.c_win, view.n_th, view.alpha,
            view.resolved_cycles()[1])
    return kernel, view.shots, view.total_cycles() * (d - 1) * d


def effective_batch_size(spec, kernel, shots: int, per_shot_elements: int,
                         executor: Executor) -> int:
    """The campaign's effective chunk size under ``executor``.

    A pinned ``spec.batch_size`` always wins; otherwise whole-request
    executors get the memory-capped whole request and fan-out executors
    the kernel's small default.
    """
    if spec.batch_size is not None:
        return int(spec.batch_size)
    if executor.whole_request:
        return default_chunk_shots(shots, per_shot_elements)
    return int(kernel.default_batch_size)


def wilson_tight(successes: int, trials: int,
                 target_rel_width: Optional[float]) -> bool:
    """The shot engine's early-stop predicate.

    True once the Wilson interval of the streamed success count is
    narrower than ``target_rel_width`` times its mean.  Restored and
    computed chunks pass through it alike, so a resumed campaign stops
    after exactly the same chunk as an uninterrupted one.
    """
    if target_rel_width is None or successes == 0:
        return False
    lo, hi = wilson_interval(successes, trials)
    return (hi - lo) <= target_rel_width * (successes / trials)


@dataclass(frozen=True)
class _ChunkedOutcome:
    outcomes: np.ndarray
    successes: int
    trials: int
    chunks: int
    resumed: int
    requested: int
    batch_size: int
    supervisor: Optional[dict] = None


def _run_chunked(kernel, spec, shots: int, batch_size: int,
                 executor: Executor, store,
                 target_rel_width: Optional[float] = None) -> _ChunkedOutcome:
    """Execute a shot campaign chunk by chunk, resuming from its shard.

    Restored and freshly computed chunks are ingested *in plan order*
    through one streamed-count/early-stop predicate
    (:func:`wilson_tight`), so outcomes — and the chunk a
    ``target_rel_width`` campaign stops after — are bit-equal whether
    zero, some, or all chunks came from the checkpoint.  Only the
    outcome half of each executor item is read.
    """
    shard = store.shard(spec) if store is not None else None
    done = {}
    if shard is not None:
        done = shard.load()
        recorded = shard.recorded_batch_size
        if recorded is not None and recorded != batch_size:
            if spec.batch_size is not None:
                # The spec pins its chunk size; a shard recorded under
                # a different one is not this campaign's (the header
                # carries no CRC, so treat a conflict as corruption).
                raise CheckpointError(
                    f"{shard.path}: shard records batch_size {recorded} "
                    f"but the spec pins {spec.batch_size}")
            # A batch_size=None spec resolves its chunk size per
            # executor; the shard was written under another executor's
            # resolution.  Adopt the recorded size so the plan — and
            # hence the outcomes — match the original run exactly.
            batch_size = recorded
    tasks = chunk_plan(shots, batch_size, spec.seed)
    for index in done:
        if index >= len(tasks):
            raise CheckpointError(
                f"shard holds chunk {index} but the plan has only "
                f"{len(tasks)} chunks — stale or foreign checkpoint")
        if len(done[index]) != tasks[index][0]:
            raise CheckpointError(
                f"shard chunk {index} holds {len(done[index])} shots "
                f"but the plan expects {tasks[index][0]}")

    pending = [(i, task) for i, task in enumerate(tasks) if i not in done]
    stream = None
    if pending:
        executor.bind(spec, batch_size=batch_size, shots=shots,
                      indices=[i for i, _ in pending])
        stream = executor.run_chunks(kernel, "bits",
                                     [task for _, task in pending])

    collected: list[np.ndarray] = []
    successes = trials = 0
    chunks = resumed = 0
    column = getattr(kernel, "success_column", 0)
    try:
        for index in range(len(tasks)):
            if index in done:
                outcome = done[index]
                resumed += 1
            else:
                outcome, _ = next(stream)
                if shard is not None:
                    shard.append(index, outcome, batch_size=batch_size)
            collected.append(outcome)
            chunks += 1
            col = outcome if outcome.ndim == 1 else outcome[:, column]
            successes += int(np.count_nonzero(col))
            trials += len(outcome)
            if wilson_tight(successes, trials, target_rel_width):
                break
    finally:
        if stream is not None:
            stream.close()

    return _ChunkedOutcome(
        outcomes=np.concatenate(collected),
        successes=successes,
        trials=trials,
        chunks=chunks,
        resumed=resumed,
        requested=shots,
        batch_size=batch_size,
        supervisor=executor.accounting() if pending else None,
    )


def _provenance(spec, executor: Executor, started: float,
                batch_size: Optional[int] = None,
                chunks: int = 0, resumed: int = 0,
                supervisor: Optional[dict] = None) -> Provenance:
    import repro
    return Provenance(
        spec_hash=spec_hash(spec),
        kind=spec.kind,
        seed=spec.seed,
        version=repro.__version__,
        executor=executor.describe(),
        wall_clock_s=time.perf_counter() - started,
        batch_size=batch_size,
        chunks=chunks,
        resumed_chunks=resumed,
        supervisor=supervisor,
    )


# ----------------------------------------------------------------------
# Campaign kinds
# ----------------------------------------------------------------------
def _memory_summary(co: _ChunkedOutcome, cycles: int) -> tuple:
    """``(estimates, counts, detail)`` for a memory-engine outcome."""
    from repro.sim.memory import LogicalErrorEstimate
    detail = LogicalErrorEstimate(co.successes, co.trials, cycles)
    estimates = {
        "per_run": detail.per_run,
        "per_cycle": detail.per_cycle,
        "per_cycle_std_error": detail.per_cycle_std_error,
        "std_error": detail.estimate.std_error,
    }
    counts = {"failures": co.successes, "samples": co.trials,
              "requested": co.requested}
    return estimates, counts, detail


def _endtoend_summary(co: _ChunkedOutcome) -> tuple:
    """``(estimates, counts, detail)`` for an end-to-end outcome."""
    from repro.sim.endtoend import EndToEndResult
    out = co.outcomes
    latencies = out[out[:, 3] >= 0, 3]
    detail = EndToEndResult(
        shots=len(out),
        naive_failures=int(out[:, 0].sum()),
        detected_failures=int(out[:, 1].sum()),
        oracle_failures=int(out[:, 2].sum()),
        detections=int(len(latencies)),
        mean_latency=(float(latencies.mean()) if len(latencies)
                      else float("nan")),
    )
    estimates = {**{f"{name}_rate": value
                    for name, value in detail.rates().items()},
                 "detection_rate": detail.detection_rate,
                 "mean_latency": detail.mean_latency}
    counts = {"shots": detail.shots,
              "naive_failures": detail.naive_failures,
              "detected_failures": detail.detected_failures,
              "oracle_failures": detail.oracle_failures,
              "detections": detail.detections,
              "requested": co.requested}
    return estimates, counts, detail


def _detection_summary(co: _ChunkedOutcome) -> tuple:
    """``(estimates, counts, detail)`` for a detection outcome."""
    from repro.sim.detection import DetectionPerformance
    out = co.outcomes
    latencies = out[out[:, 2] >= 0, 2]
    errors = out[np.isfinite(out[:, 3]), 3]
    detail = DetectionPerformance(
        trials=len(out),
        false_positives=int(out[:, 0].sum()),
        detections=int(out[:, 1].sum()),
        mean_latency=(float(latencies.mean()) if len(latencies)
                      else float("nan")),
        mean_position_error=(float(errors.mean()) if len(errors)
                             else float("nan")),
    )
    estimates = {"false_positive_rate": detail.false_positive_rate,
                 "miss_rate": detail.miss_rate,
                 "mean_latency": detail.mean_latency,
                 "mean_position_error": detail.mean_position_error}
    counts = {"trials": detail.trials,
              "false_positives": detail.false_positives,
              "detections": detail.detections,
              "requested": co.requested}
    return estimates, counts, detail


@register_campaign(ScenarioSpec)
@register_campaign(DetectionSpec)
@register_campaign(EndToEndSpec)
@register_campaign(MemorySpec)
def _run_shots(spec, executor: Executor, store) -> CampaignResult:
    """Every shot-campaign kind through the one chunked engine.

    The spec resolves to the scenario campaign it simulates
    (:func:`as_scenario_spec`); the chunk plan, resume semantics and
    early stopping are shared, and only the summary changes shape with
    the mode — so a legacy spec and its one-event scenario campaign
    are comparable line by line.
    """
    started = time.perf_counter()
    view = as_scenario_spec(spec)
    kernel, shots, per_shot = shot_engine(view)
    batch_size = effective_batch_size(spec, kernel, shots, per_shot,
                                      executor)
    co = _run_chunked(kernel, spec, shots, batch_size, executor, store,
                      target_rel_width=view.target_rel_width)
    if view.mode == "memory":
        estimates, counts, detail = _memory_summary(co, view.total_cycles())
    elif view.mode == "endtoend":
        estimates, counts, detail = _endtoend_summary(co)
    else:
        estimates, counts, detail = _detection_summary(co)
    return CampaignResult(
        kind=spec.kind,
        estimates=estimates,
        counts=counts,
        provenance=_provenance(spec, executor, started,
                               batch_size=co.batch_size,
                               chunks=co.chunks, resumed=co.resumed,
                               supervisor=co.supervisor),
        detail=detail,
    )


@register_campaign(ScalingSpec)
def _run_scaling(spec: ScalingSpec, executor: Executor,
                 store) -> CampaignResult:
    from repro.scaling.model import ScalingParameters, density_curve
    started = time.perf_counter()
    params = ScalingParameters(
        anomaly_size=spec.anomaly_size, frequency_hz=spec.frequency_hz,
        lifetime_s=spec.lifetime_s, c_lat=spec.c_lat,
        horizon_cycles=spec.horizon_cycles)
    curve = density_curve(params, list(spec.areas), spec.use_q3de,
                          seed=spec.seed)
    return CampaignResult(
        kind=spec.kind,
        estimates={f"density_area_{area:g}": value
                   for area, value in zip(spec.areas, curve, strict=True)},
        counts={"areas": len(spec.areas),
                "achievable": sum(v is not None for v in curve)},
        provenance=_provenance(spec, executor, started),
        detail=curve,
    )


@register_campaign(ThroughputSpec)
def _run_throughput(spec: ThroughputSpec, executor: Executor,
                    store) -> CampaignResult:
    from repro.arch.throughput import simulate_throughput
    started = time.perf_counter()
    detail = simulate_throughput(
        spec.architecture, spec.num_instructions,
        strike_prob_per_slot=spec.strike_prob_per_slot,
        strike_duration_slots=spec.strike_duration_slots,
        rows=spec.rows, cols=spec.cols,
        rng=np.random.default_rng(spec.seed), max_slots=spec.max_slots)
    return CampaignResult(
        kind=spec.kind,
        estimates={"throughput": detail.throughput},
        counts={"instructions": detail.instructions,
                "slots": detail.slots, "strikes": detail.strikes},
        provenance=_provenance(spec, executor, started),
        detail=detail,
    )

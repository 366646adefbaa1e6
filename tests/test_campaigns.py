"""The unified campaign API: specs, registry, executors, shim equality."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import campaigns
from repro.noise import AnomalousRegion
from repro.scenarios import Scenario, StrikeEvent
from repro.sim.batch import (MemoryShotKernel, chunk_plan,
                             default_chunk_shots)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_memory_spec_accepts_paper_point(self):
        spec = campaigns.MemorySpec(distance=9, p=1e-2, samples=100)
        assert spec.kind == "memory"
        assert spec.resolve_region() is None

    def test_centered_region_resolves_against_distance(self):
        spec = campaigns.MemorySpec(distance=9, p=1e-2, samples=10,
                                    region="centered", anomaly_size=4)
        assert spec.resolve_region() == AnomalousRegion.centered(9, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=2, p=1e-2, samples=10),
        dict(distance=5, p=1.5, samples=10),
        dict(distance=5, p=1e-2, samples=0),
        dict(distance=5, p=1e-2, samples=10, decoder="tensor-network"),
        dict(distance=5, p=1e-2, samples=10, p_ano=1.5),
        dict(distance=5, p=1e-2, samples=10, cycles=0),
        dict(distance=5, p=1e-2, samples=10, seed=-1),
        dict(distance=5, p=1e-2, samples=10, seed=2 ** 63),
        dict(distance=5, p=1e-2, samples=10, batch_size=0),
        dict(distance=5, p=1e-2, samples=10, region="somewhere"),
        dict(distance=5, p=1e-2, samples=10, target_rel_width=0.0),
    ])
    def test_memory_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.MemorySpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=5, p=1e-2, shots=10, onset=300, cycles=300),
        dict(distance=5, p=1e-2, shots=0),
        dict(distance=5, p=1e-2, shots=10, alpha=0.0),
        dict(distance=5, p=1e-2, shots=10, c_win=0),
    ])
    def test_endtoend_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.EndToEndSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=0, c_win=40),
        dict(distance=5, p=1e-3, p_ano=2.0, anomaly_size=2, c_win=40),
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=2, c_win=40,
             normal_cycles=0),
        dict(distance=5, p=1e-3, p_ano=0.05, anomaly_size=2, c_win=40,
             post_cycles=0),
    ])
    def test_detection_spec_rejects(self, kwargs):
        with pytest.raises(campaigns.SpecError):
            campaigns.DetectionSpec(**kwargs)

    def test_memory_spec_rejects_an_empty_region_window(self):
        """A strike lasts at least one cycle, so a ``t_hi == t_lo``
        region has no scenario form: it fails on the wire, not in the
        engine."""
        text = json.dumps({
            "kind": "memory", "distance": 5, "p": 1e-2, "samples": 10,
            "region": {"row_lo": 1, "col_lo": 1, "size": 2,
                       "t_lo": 3, "t_hi": 3}})
        with pytest.raises(campaigns.SpecError, match="empty"):
            campaigns.spec_from_json(text)

    def test_scaling_and_throughput_reject(self):
        with pytest.raises(campaigns.SpecError):
            campaigns.ScalingSpec(areas=())
        with pytest.raises(campaigns.SpecError):
            campaigns.ThroughputSpec(architecture="ibm")

    def test_detection_resolved_cycles_defaults(self):
        spec = campaigns.DetectionSpec(distance=7, p=1e-3, p_ano=0.05,
                                       anomaly_size=2, c_win=40)
        assert spec.resolved_cycles() == (80, 160)


# ----------------------------------------------------------------------
# JSON round trips
# ----------------------------------------------------------------------
def _example_specs():
    return [
        campaigns.MemorySpec(distance=9, p=6e-3, samples=50,
                             region="centered", anomaly_size=4,
                             informed=True, seed=7, batch_size=16,
                             target_rel_width=0.25),
        campaigns.MemorySpec(
            distance=5, p=2e-2, samples=10,
            region=AnomalousRegion(1, 2, 2, t_lo=3, t_hi=9)),
        campaigns.EndToEndSpec(distance=5, p=1e-2, shots=12, onset=30,
                               cycles=60, c_win=20, n_th=4, seed=11),
        campaigns.DetectionSpec(distance=7, p=2e-3, p_ano=0.05,
                                anomaly_size=2, c_win=40, n_th=3,
                                trials=4, seed=1),
        campaigns.ScalingSpec(areas=(2.0, 8.0), horizon_cycles=500_000),
        campaigns.ThroughputSpec(architecture="q3de", num_instructions=30,
                                 strike_prob_per_slot=1e-4, seed=3),
    ]


class TestSpecJson:
    @pytest.mark.parametrize("spec", _example_specs(),
                             ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        text = campaigns.spec_to_json(spec)
        again = campaigns.spec_from_json(text)
        assert again == spec
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    def test_sweep_round_trip(self):
        sweep = campaigns.Sweep(
            campaigns.MemorySpec(distance=5, p=1e-2, samples=10),
            axes={"distance": [5, 7], "p": [1e-2, 2e-2],
                  "region": [None, "centered",
                             AnomalousRegion(0, 0, 2)]})
        again = campaigns.spec_from_json(campaigns.spec_to_json(sweep))
        assert again == sweep
        assert [o for o, _ in again.points()] == \
            [o for o, _ in sweep.points()]

    def test_wire_dict_shape(self):
        doc = campaigns.spec_to_dict(_example_specs()[1])
        assert doc["kind"] == "memory"
        assert doc["region"] == {"row_lo": 1, "col_lo": 2, "size": 2,
                                 "t_lo": 3, "t_hi": 9}
        # Canonical JSON is pure data: parseable by a strict parser.
        json.loads(campaigns.spec_to_json(_example_specs()[1]))

    @pytest.mark.parametrize("doc", [
        "[]",
        '{"kind": "warp"}',
        '{"kind": "memory"}',                       # missing required
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "turbo": true}',                          # unknown field
        '{"kind": "memory", "distance": 5, "p": 0.01, "samples": 2,'
        ' "region": 7}',                            # bad region
        "{not json",
    ])
    def test_bad_documents_rejected(self, doc):
        with pytest.raises(campaigns.SpecError):
            campaigns.spec_from_json(doc)

    @settings(max_examples=25, deadline=None)
    @given(distance=st.integers(3, 21),
           p=st.floats(0.0, 1.0, allow_nan=False),
           samples=st.integers(1, 10_000),
           seed=st.integers(0, 2 ** 63 - 1),
           informed=st.booleans(),
           decoder=st.sampled_from(["greedy", "mwpm"]),
           batch_size=st.one_of(st.none(), st.integers(1, 4096)),
           region=st.one_of(
               st.none(), st.just("centered"),
               st.builds(AnomalousRegion,
                         row_lo=st.integers(0, 8),
                         col_lo=st.integers(0, 8),
                         size=st.integers(1, 6),
                         t_lo=st.integers(0, 50))))
    def test_memory_round_trip_property(self, **kwargs):
        spec = campaigns.MemorySpec(**kwargs)
        again = campaigns.spec_from_json(campaigns.spec_to_json(spec))
        assert again == spec
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    @pytest.mark.parametrize("kind, field, value", [
        ("memory", "packing", "words"),
        ("memory", "packing", "none"),
        ("memory", "decode", "quantum"),
        ("endtoend", "decode", "pershot"),
        ("scenario", "decode", "pershot"),
        ("detection", "scan", "windowed"),
        ("detection", "packing", None),
    ])
    def test_retired_field_rejects_other_values(self, kind, field, value):
        """The retired engine knobs parse only at the one value saved
        documents hold; anything else names the field."""
        doc = campaigns.spec_to_dict(_retired_example(kind))
        doc[field] = value
        with pytest.raises(campaigns.SpecError, match=field):
            campaigns.spec_from_dict(doc)

    @pytest.mark.parametrize("kind", ["memory", "endtoend", "detection",
                                      "scenario"])
    def test_retired_fields_at_saved_value_are_dropped(self, kind):
        spec = _retired_example(kind)
        doc = campaigns.spec_to_dict(spec)
        doc["packing"] = "bits"
        doc["scan" if kind == "detection" else "decode"] = "batched"
        again = campaigns.spec_from_dict(doc)
        assert again == spec
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)

    def test_old_default_serialized_document_parses_to_new_hash(self):
        """A document saved before the knobs were retired carries their
        defaults; it parses to today's spec, whose hash moved."""
        old = ('{"anomaly_size": 4, "batch_size": null, "cycles": null, '
               '"decode": "batched", "decoder": "greedy", "distance": 5, '
               '"informed": false, "kind": "memory", "p": 0.01, '
               '"p_ano": 0.5, "packing": "bits", "region": null, '
               '"samples": 10, "seed": 0, "target_rel_width": null}')
        spec = campaigns.spec_from_json(old)
        assert spec == campaigns.MemorySpec(5, 0.01, 10)
        assert campaigns.spec_hash(spec) == "8419d757df4faada"
        assert "packing" not in campaigns.spec_to_dict(spec)

    def test_retired_fields_unknown_on_other_kinds(self):
        doc = campaigns.spec_to_dict(campaigns.ThroughputSpec())
        doc["packing"] = "bits"
        with pytest.raises(campaigns.SpecError, match="no field"):
            campaigns.spec_from_dict(doc)

    def test_retired_kind_is_unknown(self, retired_spec):
        """A ``"streaming"`` document, alone or as a sweep's base, names
        the kind it no longer knows."""
        sweep = {"kind": "sweep", "base": retired_spec,
                 "axes": {"p": [0.01, 0.02]}}
        for doc in (retired_spec, sweep):
            with pytest.raises(campaigns.SpecError, match="'streaming'"):
                campaigns.spec_from_dict(doc)

    def test_hash_distinguishes_specs(self):
        a = campaigns.MemorySpec(distance=5, p=1e-2, samples=10)
        b = dataclasses.replace(a, seed=1)
        c = dataclasses.replace(a, batch_size=32)
        assert len({campaigns.spec_hash(s) for s in (a, b, c)}) == 3


def _retired_example(kind: str):
    """One spec of each kind that used to carry engine knobs."""
    if kind == "scenario":
        return campaigns.ScenarioSpec(5, 0.01, 8)
    return next(s for s in _example_specs() if s.kind == kind)


# ----------------------------------------------------------------------
# Wire documents with mistyped values
# ----------------------------------------------------------------------
_MEMORY = {"kind": "memory", "distance": 5, "p": 0.01, "samples": 10}


class TestWireTypes:
    @pytest.mark.parametrize("doc", [
        {"kind": ["memory"]},
        {"kind": {"memory": 1}},
        {**_MEMORY, "distance": 5.5},
        {**_MEMORY, "samples": 10.5},
        {**_MEMORY, "seed": True},
        {**_MEMORY, "informed": "false"},
        {**_MEMORY, "p": "0.01"},
        {**_MEMORY, "p": True},
        {**_MEMORY, "p": float("inf")},
        {**_MEMORY, "decoder": ["greedy"]},
        {**_MEMORY, "batch_size": 1.5},
        {**_MEMORY, "region": {"row_lo": 1.5, "col_lo": 1, "size": 2}},
        {"kind": "scaling", "areas": [1.0, True]},
        {"kind": "scaling", "areas": 4.0},
        {"kind": "sweep", "base": _MEMORY, "axes": {"p": 5}},
        {"kind": "sweep", "base": _MEMORY, "axes": {"decoder": "mwpm"}},
        {"kind": "sweep", "base": _MEMORY, "axes": {"distance": [5, 7.5]}},
        {"kind": "sweep", "base": _MEMORY, "axes": {"region": 3}},
        {"kind": "sweep", "base": _MEMORY, "derive_seeds": "false"},
        {"kind": "sweep", "base": {"kind": "sweep", "base": _MEMORY},
         "axes": {"p": [0.1]}},
    ], ids=repr)
    def test_mistyped_values_rejected(self, doc):
        with pytest.raises(campaigns.SpecError):
            campaigns.spec_from_dict(doc)

    def test_integral_numbers_read_as_ints(self):
        spec = campaigns.spec_from_dict({**_MEMORY, "distance": 5.0,
                                         "batch_size": 8.0})
        assert spec == campaigns.MemorySpec(5, 0.01, 10, batch_size=8)
        assert type(spec.distance) is int
        assert campaigns.spec_hash(spec) == campaigns.spec_hash(
            campaigns.spec_from_dict({**_MEMORY, "batch_size": 8}))

    def test_nulls_only_where_the_field_is_optional(self):
        assert campaigns.spec_from_dict(
            {**_MEMORY, "cycles": None}).cycles is None
        with pytest.raises(campaigns.SpecError):
            campaigns.spec_from_dict({**_MEMORY, "seed": None})

    def test_in_process_numpy_scalars_still_accepted(self):
        spec = campaigns.MemorySpec(np.int64(5), np.float64(0.01),
                                    np.int64(10))
        assert spec.distance == 5

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
        max_leaves=6))
    def test_random_values_raise_only_spec_error(self, data, value):
        """Any JSON value in any field of a valid document (or of its
        region or sweep base) parses to a spec that serializes, or
        raises ``SpecError`` — never anything else."""
        specs = _example_specs() + [
            campaigns.ScenarioSpec(5, 0.01, 8),
            campaigns.Sweep(campaigns.MemorySpec(5, 0.01, 10),
                            axes={"p": [0.01, 0.02]})]
        doc = campaigns.spec_to_dict(data.draw(st.sampled_from(specs)))
        target = doc
        nested = [k for k in ("region", "base")
                  if isinstance(doc.get(k), dict)]
        if nested and data.draw(st.booleans()):
            target = doc[data.draw(st.sampled_from(nested))]
        target[data.draw(st.sampled_from(sorted(target)))] = value
        try:
            spec = campaigns.spec_from_dict(doc)
        except campaigns.SpecError:
            return
        again = campaigns.spec_from_json(campaigns.spec_to_json(spec))
        assert campaigns.spec_hash(again) == campaigns.spec_hash(spec)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_expansion_order_and_seeds(self):
        base = campaigns.MemorySpec(distance=5, p=1e-2, samples=10, seed=9)
        sweep = campaigns.Sweep(base, axes={"distance": [5, 7],
                                            "p": [1e-2, 2e-2]})
        points = list(sweep.points())
        assert [o for o, _ in points] == [
            {"distance": 5, "p": 1e-2}, {"distance": 5, "p": 2e-2},
            {"distance": 7, "p": 1e-2}, {"distance": 7, "p": 2e-2}]
        seeds = [s.seed for _, s in points]
        assert len(set(seeds)) == 4  # independent ...
        assert seeds == [s.seed for _, s in sweep.points()]  # ... stable
        assert len(sweep) == 4

    def test_derive_seeds_off_keeps_base_seed(self):
        base = campaigns.ScalingSpec(areas=(2.0,), seed=5)
        sweep = campaigns.Sweep(base, axes={"use_q3de": [True, False]},
                                derive_seeds=False)
        assert [s.seed for _, s in sweep.points()] == [5, 5]

    def test_bad_axes_rejected(self):
        base = campaigns.MemorySpec(distance=5, p=1e-2, samples=10)
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"flux": [1]})
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(base, axes={"p": []})
        with pytest.raises(campaigns.SpecError):
            campaigns.Sweep(campaigns.Sweep(base, axes={}), axes={})

    def test_run_returns_sweep_result(self, tmp_path):
        base = campaigns.MemorySpec(distance=3, p=2e-2, samples=16,
                                    seed=2)
        sweep = campaigns.Sweep(base, axes={"p": [1e-2, 2e-2]})
        result = campaigns.run(sweep, checkpoint=tmp_path)
        assert len(result) == 2
        assert all(r.kind == "memory" for r in result.results)
        # one shard per grid point
        assert len(list(tmp_path.glob("*.jsonl"))) == 2
        doc = result.to_dict()
        assert [p["overrides"] for p in doc["points"]] == [
            {"p": 1e-2}, {"p": 2e-2}]


# ----------------------------------------------------------------------
# Registry and dispatch
# ----------------------------------------------------------------------
class TestRegistry:
    def test_known_kinds(self):
        kinds = campaigns.registered_kinds()
        assert set(kinds) >= {"memory", "endtoend", "detection",
                              "scaling", "throughput"}

    def test_unregistered_type_rejected(self):
        with pytest.raises(TypeError, match="no campaign runner"):
            campaigns.run(object())

    def test_register_campaign_extends(self):
        @dataclasses.dataclass(frozen=True)
        class EchoSpec:
            kind = "echo"
            payload: int = 0
            seed: int = 0

        from repro.campaigns.runner import _RUNNERS

        @campaigns.register_campaign(EchoSpec)
        def _run_echo(spec, executor, store):
            return campaigns.CampaignResult(
                kind=spec.kind, estimates={"payload": spec.payload})

        try:
            result = campaigns.run(EchoSpec(payload=41))
            assert result.estimates["payload"] == 41
        finally:
            _RUNNERS.pop(EchoSpec)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_default_executor_mapping(self):
        assert isinstance(campaigns.default_executor(0),
                          campaigns.InlineExecutor)
        assert campaigns.default_executor(0).whole_request
        assert not campaigns.default_executor(1).whole_request
        pool = campaigns.default_executor(3)
        assert isinstance(pool, campaigns.ProcessPoolExecutor)
        assert pool.workers == 3

    def test_default_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert isinstance(campaigns.default_executor(),
                          campaigns.ProcessPoolExecutor)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert campaigns.default_executor().whole_request

    def test_pool_requires_two_workers(self):
        with pytest.raises(ValueError):
            campaigns.ProcessPoolExecutor(1)
        with pytest.raises(ValueError):
            campaigns.ProcessPoolExecutor(4, max_inflight=3)

    def test_pool_submissions_are_windowed(self):
        # An early-stopped campaign must not have submitted the whole
        # plan: the pool pulls lazily, at most max_inflight ahead of
        # what the consumer has taken.
        kernel = MemoryShotKernel(3, 2e-2)
        plan = chunk_plan(96, 8, 3)  # 12 chunks
        pulled = []

        def tasks():
            for task in plan:
                pulled.append(task)
                yield task

        executor = campaigns.ProcessPoolExecutor(2)
        assert executor.max_inflight == 4
        stream = executor.run_chunks(kernel, "bits", tasks())
        next(stream)
        assert len(pulled) <= executor.max_inflight + 1
        stream.close()  # terminates the pool; no further pulls
        assert len(pulled) <= executor.max_inflight + 1

    def test_distributed_is_an_interface(self):
        spec = campaigns.MemorySpec(distance=3, p=1e-2, samples=4)
        with pytest.raises(NotImplementedError):
            campaigns.run(spec, executor=campaigns.DistributedExecutor())

    def test_distributed_reference_transport_runs(self, tmp_path):
        # The loopback stand-in of PR 5 grew into a real transport: the
        # filesystem work queue, here served by two in-process simulated
        # workers that rebuild kernels from spec JSON exactly as
        # ``python -m repro worker`` does.
        from repro.campaigns.faults import WorkerPoolSim

        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=32,
                                    seed=5, batch_size=8)
        sim = WorkerPoolSim(tmp_path / "q", workers=2)
        remote = campaigns.run(spec, executor=sim.executor())
        local = campaigns.run(spec, executor=campaigns.InlineExecutor())
        assert remote.counts["failures"] == local.counts["failures"]
        assert remote.provenance.supervisor["dispatched"] > 0

    def test_inline_vs_pool_vs_queue_bit_equal(self, tmp_path):
        from repro.campaigns.faults import WorkerPoolSim

        spec = campaigns.EndToEndSpec(distance=5, p=1e-2, shots=12,
                                      onset=30, cycles=60, c_win=20,
                                      n_th=4, seed=13, batch_size=4)
        inline = campaigns.run(spec, executor=campaigns.InlineExecutor())
        pooled = campaigns.run(
            spec, executor=campaigns.ProcessPoolExecutor(2))
        sim = WorkerPoolSim(tmp_path / "q", workers=2)
        queued = campaigns.run(spec, executor=sim.executor())
        assert inline.counts == pooled.counts
        assert inline.counts == queued.counts
        assert inline.estimates == queued.estimates


# ----------------------------------------------------------------------
# Shim equality: region-era spec kinds == ScenarioSpec, bit for bit
# ----------------------------------------------------------------------
class TestLegacyShims:
    """The memory, end-to-end and detection specs are shims over
    ``ScenarioSpec``.  Run through ``default_executor(n)``, each equals
    the direct scenario run at the chunk size that executor resolves
    (pinned, or the whole request), an early stop stops at the same
    chunk, and a pinned ``(seed, batch_size)`` gives the same outcomes
    whichever executor runs it."""

    def test_memory_run_matches_direct_runner(self):
        region = AnomalousRegion.centered(5, 2)
        est = campaigns.run(
            campaigns.MemorySpec(distance=5, p=2e-2, samples=300,
                                 region=region, seed=11, batch_size=64),
            executor=campaigns.default_executor(1)).detail
        direct = campaigns.run(
            campaigns.ScenarioSpec(5, 2e-2, 300,
                                   Scenario.from_region(region),
                                   seed=11, batch_size=64),
            executor=campaigns.InlineExecutor(whole_request=False))
        assert (est.failures, est.samples) == \
            (direct.counts["failures"], direct.counts["samples"])

    def test_memory_early_stop_matches(self):
        est = campaigns.run(
            campaigns.MemorySpec(distance=5, p=3e-2, samples=5000, seed=3,
                                 batch_size=128, target_rel_width=0.5),
            executor=campaigns.default_executor(1)).detail
        direct = campaigns.run(
            campaigns.ScenarioSpec(5, 3e-2, 5000, seed=3, batch_size=128,
                                   target_rel_width=0.5),
            executor=campaigns.InlineExecutor(whole_request=False))
        assert (est.failures, est.samples) == \
            (direct.counts["failures"], direct.counts["samples"])
        assert est.samples < 5000  # it actually stopped early

    def test_endtoend_run_matches_direct_runner(self, run_with_outcomes):
        res = campaigns.run(
            campaigns.EndToEndSpec(distance=5, p=0.01, shots=40, onset=30,
                                   cycles=60, c_win=20, n_th=4, seed=5),
            executor=campaigns.default_executor(0)).detail
        batch = default_chunk_shots(40, 60 * 4 * 5)
        _, out = run_with_outcomes(
            campaigns.ScenarioSpec(
                5, 0.01, 40,
                Scenario(events=(StrikeEvent(onset=30, size=4),)),
                mode="endtoend", cycles=60, c_win=20, n_th=4, alpha=0.01,
                seed=5, batch_size=batch),
            campaigns.InlineExecutor())
        assert res.naive_failures == int(out[:, 0].sum())
        assert res.detected_failures == int(out[:, 1].sum())
        assert res.oracle_failures == int(out[:, 2].sum())
        assert res.detections == int((out[:, 3] >= 0).sum())

    def test_detection_run_matches_direct_runner(self, run_with_outcomes):
        perf = campaigns.run(
            campaigns.DetectionSpec(distance=7, p=2e-3, p_ano=0.05,
                                    anomaly_size=2, c_win=40, n_th=3,
                                    trials=6, seed=9),
            executor=campaigns.default_executor(0)).detail
        strike = StrikeEvent(onset=80, size=2, p_ano=0.05)
        batch = default_chunk_shots(6, 240 * 6 * 7)
        _, out = run_with_outcomes(
            campaigns.ScenarioSpec(
                7, 2e-3, 6, Scenario(events=(strike,)), mode="detection",
                c_win=40, n_th=3, alpha=0.01, post_cycles=160, seed=9,
                batch_size=batch),
            campaigns.InlineExecutor())
        assert perf.false_positives == int(out[:, 0].sum())
        assert perf.detections == int(out[:, 1].sum())

    def test_spec_equals_shim_per_seed_batch(self):
        spec = campaigns.MemorySpec(distance=5, p=2e-2, samples=200,
                                    seed=21, batch_size=64)
        direct = campaigns.run(spec)
        via_shim = campaigns.run(
            spec, executor=campaigns.default_executor(1)).detail
        assert direct.counts["failures"] == via_shim.failures
        assert direct.detail.per_cycle == via_shim.per_cycle


# ----------------------------------------------------------------------
# Results and provenance
# ----------------------------------------------------------------------
class TestResults:
    def test_provenance_block(self):
        spec = campaigns.MemorySpec(distance=3, p=2e-2, samples=48,
                                    seed=4, batch_size=16)
        result = campaigns.run(spec, executor=campaigns.InlineExecutor())
        prov = result.provenance
        assert prov.spec_hash == campaigns.spec_hash(spec)
        assert prov.kind == "memory"
        assert prov.seed == 4
        assert prov.executor == "inline"
        assert "packing" not in prov.to_dict()
        assert "backend" not in prov.to_dict()
        assert prov.batch_size == 16
        assert prov.chunks == 3
        assert prov.resumed_chunks == 0
        assert prov.wall_clock_s > 0
        import repro
        assert prov.version == repro.__version__

    def test_memory_batch_size_resolution_per_executor(self):
        # Unset batch_size: whole request (memory-capped) inline,
        # kernel fan-out default otherwise — consistent with the other
        # shot kinds.
        spec = campaigns.MemorySpec(distance=5, p=2e-2, samples=600,
                                    seed=6)
        whole = campaigns.run(spec, executor=campaigns.InlineExecutor())
        chunked = campaigns.run(
            spec, executor=campaigns.InlineExecutor(whole_request=False))
        assert whole.provenance.batch_size == 600
        assert whole.provenance.chunks == 1
        assert chunked.provenance.batch_size == 512
        assert chunked.provenance.chunks == 2

    def test_result_json_parses(self):
        spec = campaigns.ThroughputSpec(num_instructions=20,
                                        strike_prob_per_slot=1e-4,
                                        strike_duration_slots=10)
        doc = json.loads(campaigns.run(spec).to_json())
        assert doc["kind"] == "throughput"
        assert doc["estimates"]["throughput"] > 0
        assert doc["provenance"]["spec_hash"] == campaigns.spec_hash(spec)

    def test_scaling_campaign_matches_model(self):
        spec = campaigns.ScalingSpec(areas=(4.0,), horizon_cycles=200_000)
        result = campaigns.run(spec)
        from repro.scaling.model import ScalingParameters, density_curve
        expected = density_curve(
            ScalingParameters(horizon_cycles=200_000), [4.0], True, seed=0)
        assert result.detail == expected
        assert result.estimates["density_area_4"] == expected[0]

    def test_throughput_campaign_matches_model(self):
        spec = campaigns.ThroughputSpec(architecture="baseline",
                                        num_instructions=50, seed=2)
        result = campaigns.run(spec)
        from repro.arch.throughput import simulate_throughput
        expected = simulate_throughput(
            "baseline", 50, rng=np.random.default_rng(2))
        assert result.estimates["throughput"] == expected.throughput
        assert result.counts["instructions"] == expected.instructions


# ----------------------------------------------------------------------
# Chunk-plan contract
# ----------------------------------------------------------------------
class TestChunkPlan:
    def test_plan_sizes(self):
        plan = chunk_plan(100, 32, 7)
        assert [size for size, _ in plan] == [32, 32, 32, 4]

    def test_plan_seed_children_are_stable(self):
        a = chunk_plan(64, 16, 5)
        b = chunk_plan(64, 16, 5)
        for (_, ca), (_, cb) in zip(a, b, strict=True):
            assert np.array_equal(ca.generate_state(4), cb.generate_state(4))

    def test_plan_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            chunk_plan(0, 8, 1)
        with pytest.raises(ValueError):
            chunk_plan(8, 0, 1)

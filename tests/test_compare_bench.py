"""Tests for the cross-PR bench trajectory guard."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def cb():
    spec = importlib.util.spec_from_file_location(
        "compare_bench", BENCH_DIR / "compare_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(**sections):
    env = {"samples": 200, "scale": 1.0, "workers": 1}
    return {"bench": "batch",
            "sections": {name: dict(payload, env=dict(env))
                         for name, payload in sections.items()}}


class TestClassify:
    def test_directions(self, cb):
        assert cb.classify("decode_stage.throughput_ratio") == "higher"
        assert cb.classify("campaign.speedup_vs_sequential.bits") == "higher"
        assert cb.classify("storage_ratio_min") == "higher"
        assert cb.classify("campaign.wall_clock_s.sequential") == "lower"
        assert cb.classify("e2e.pershot_total_s") == "lower"
        assert cb.classify("fig08.per_cycle_rates.d9") == "drift"

    def test_sweep_labels_are_not_engine_bars(self, cb):
        """Regression: fig07's p_ano/p sweep labels must read as domain
        drift, not fatal higher-is-better bars — a detection unit that
        *improves* (smaller window, lower latency) must never fail CI."""
        assert cb.classify("required_window.ratio_10") == "drift"
        assert cb.classify("mean_latency_cycles.pano_over_p_10") == "drift"

    def test_latency_leaves_are_lower_better(self, cb):
        """Streaming latency percentiles are judged lower-is-better."""
        assert cb.classify(
            "streaming_latency.p50_round_latency_us") == "lower"
        assert cb.classify(
            "streaming_latency.p99_round_latency_us") == "lower"
        assert cb.classify("mean_round_latency_us") == "lower"

    def test_per_us_rates_stay_throughput_shaped(self, cb):
        """Regression: ``matches_per_us`` (table4) is a *throughput*
        whose leaf happens to end in ``_us`` — the latency class must
        not claim it, or a faster matcher would fail CI."""
        assert cb.classify(
            "table4_resources.configs.40_-_BASE.matches_per_us") == "drift"
        assert cb.classify(
            "table4_sw_matching.modelled_matches_per_us") == "drift"
        assert cb.classify("table4_sw_matching.sw_matches_per_sec") == "drift"
        assert cb.classify("streaming_latency.rounds_per_sec") == "drift"


class TestCompare:
    def test_identical_docs_clean(self, cb):
        doc = _doc(decode_stage={"throughput_ratio": 3.2})
        regs, drifts, _ = cb.compare(doc, doc)
        assert regs == [] and drifts == []

    def test_ratio_regression_flagged(self, cb):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 2.0})
        regs, _, _ = cb.compare(fresh, base, tolerance=0.2)
        assert len(regs) == 1 and "throughput_ratio" in regs[0]

    def test_ratio_within_tolerance_passes(self, cb):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 2.9})
        regs, _, _ = cb.compare(fresh, base, tolerance=0.2)
        assert regs == []

    def test_improvement_never_flags(self, cb):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 9.0})
        regs, drifts, _ = cb.compare(fresh, base)
        assert regs == [] and drifts == []

    def test_wall_clock_needs_all_metrics(self, cb):
        base = _doc(campaign={"wall_clock_s": {"sequential": 10.0}})
        fresh = _doc(campaign={"wall_clock_s": {"sequential": 30.0}})
        assert cb.compare(fresh, base)[0] == []
        regs, _, _ = cb.compare(fresh, base, all_metrics=True)
        assert len(regs) == 1

    def test_latency_regression_flagged_under_all_metrics(self, cb):
        base = _doc(streaming_latency={"p99_round_latency_us": 40.0})
        fresh = _doc(streaming_latency={"p99_round_latency_us": 90.0})
        assert cb.compare(fresh, base)[0] == []
        regs, _, _ = cb.compare(fresh, base, all_metrics=True)
        assert len(regs) == 1 and "p99_round_latency_us" in regs[0]

    def test_latency_improvement_never_flags(self, cb):
        base = _doc(streaming_latency={"p99_round_latency_us": 40.0})
        fresh = _doc(streaming_latency={"p99_round_latency_us": 5.0})
        regs, drifts, _ = cb.compare(fresh, base, all_metrics=True)
        assert regs == [] and drifts == []

    def test_certification_flag_flip_is_fatal(self, cb):
        base = _doc(decode_stage={"campaign_failures_bit_equal": True})
        fresh = _doc(decode_stage={"campaign_failures_bit_equal": False})
        regs, _, _ = cb.compare(fresh, base)
        assert len(regs) == 1 and "flipped" in regs[0]

    def test_missing_certification_flag_is_fatal(self, cb):
        """A section the fresh run produced must still carry every
        certificate the baseline recorded; other missing leaves (and
        whole missing sections) stay notes."""
        base = _doc(scenario_equivalence={"memory_bits_bit_equal": True,
                                          "memory_none_bit_equal": True,
                                          "samples": 200})
        fresh = _doc(scenario_equivalence={"memory_bits_bit_equal": True})
        regs, _, notes = cb.compare(fresh, base)
        assert len(regs) == 1
        assert "memory_none_bit_equal" in regs[0] and "missing" in regs[0]
        assert any("samples missing from fresh" in n for n in notes)

    def test_domain_drift_is_informational(self, cb):
        base = _doc(fig08={"per_cycle_rates": {"d9": 1e-3}})
        fresh = _doc(fig08={"per_cycle_rates": {"d9": 5e-3}})
        regs, drifts, _ = cb.compare(fresh, base)
        assert regs == [] and len(drifts) == 1

    def test_env_mismatch_skips_section(self, cb):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 1.0})
        fresh["sections"]["decode_stage"]["env"]["samples"] = 5
        regs, _, notes = cb.compare(fresh, base)
        assert regs == []
        assert any("env mismatch" in n for n in notes)
        regs, _, _ = cb.compare(fresh, base, ignore_env=True)
        assert len(regs) == 1

    def test_retired_backend_key_still_compares(self, cb):
        """Committed sections still record ``env.backend``; fresh runs no
        longer write it.  The extra baseline key must not skip the
        section, or bench-compare would pass having compared nothing."""
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        base["sections"]["decode_stage"]["env"]["backend"] = "numpy"
        fresh = _doc(decode_stage={"throughput_ratio": 1.0})
        regs, _, notes = cb.compare(fresh, base)
        assert len(regs) == 1 and "throughput_ratio" in regs[0]
        assert not any("env mismatch" in n for n in notes)

    def test_missing_and_new_sections_noted(self, cb):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(e2e_decode_stage={"throughput_ratio": 3.4})
        regs, _, notes = cb.compare(fresh, base)
        assert regs == []
        assert any("missing from fresh" in n for n in notes)
        assert any("no baseline yet" in n for n in notes)

    def test_points_compared_by_label(self, cb):
        base = _doc(decode_stage={
            "points": [{"point": "d=9 p=0.008", "pershot_s": 1.0}]})
        fresh = _doc(decode_stage={
            "points": [{"point": "d=9 p=0.008", "pershot_s": 9.0}]})
        regs, _, _ = cb.compare(fresh, base, all_metrics=True)
        assert len(regs) == 1 and "d=9_p=0.008" in regs[0]


class TestCli:
    def _run(self, tmp_path, fresh, base, *flags):
        fp = tmp_path / "fresh.json"
        bp = tmp_path / "base.json"
        fp.write_text(json.dumps(fresh))
        bp.write_text(json.dumps(base))
        return subprocess.run(
            [sys.executable, str(BENCH_DIR / "compare_bench.py"),
             str(fp), str(bp), *flags],
            capture_output=True, text=True)

    def test_clean_run_exits_zero(self, tmp_path):
        doc = _doc(decode_stage={"throughput_ratio": 3.2})
        proc = self._run(tmp_path, doc, doc)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no regressions" in proc.stdout

    def test_regression_exits_one(self, tmp_path):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 1.5})
        proc = self._run(tmp_path, fresh, base)
        assert proc.returncode == 1
        assert "[REGRESSION]" in proc.stdout

    def test_tolerance_knob(self, tmp_path):
        base = _doc(decode_stage={"throughput_ratio": 3.2})
        fresh = _doc(decode_stage={"throughput_ratio": 1.8})
        proc = self._run(tmp_path, fresh, base, "--tolerance", "0.6")
        assert proc.returncode == 0

    def test_unreadable_file_exits_two(self, tmp_path):
        doc = _doc()
        fp = tmp_path / "fresh.json"
        fp.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "compare_bench.py"),
             str(fp), str(tmp_path / "nope.json")],
            capture_output=True, text=True)
        assert proc.returncode == 2

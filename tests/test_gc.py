"""``python -m repro gc``: planning, deletion, and rename-safety."""

import json

import repro
from repro import campaigns
from repro.campaigns import cli
from repro.campaigns.gc import TMP_AGE_S, apply_gc, plan_gc
from repro.campaigns.store import ResultStore

VERSION = repro.__version__


def _spec(**overrides):
    kwargs = dict(distance=3, p=2e-2, samples=32, seed=5, batch_size=8)
    kwargs.update(overrides)
    return campaigns.MemorySpec(**kwargs)


def _store(root, *, completed_seed=5, inflight_seed=7):
    """A store with one completed campaign (record + shard) and one
    shard whose campaign has no result yet (a run in flight)."""
    results = root / "results"
    checkpoints = root / "checkpoints"
    results.mkdir()
    checkpoints.mkdir()
    done = _spec(seed=completed_seed)
    result = campaigns.run(done, checkpoint=checkpoints)
    ResultStore(results).put(done, result)
    inflight = _spec(seed=inflight_seed)
    campaigns.run(inflight, checkpoint=checkpoints)
    return results, checkpoints, done, inflight


def _reasons(report):
    return {c.path.name: c.reason for c in report.candidates}


class TestPlan:
    def test_clean_store_has_nothing_prunable(self, tmp_path):
        _store(tmp_path)
        report = plan_gc(tmp_path, keep_checkpoints=True)
        assert report.candidates == []
        # one record + two shards survive
        assert report.kept == 3

    def test_every_garbage_class_is_classified(self, tmp_path):
        results, checkpoints, done, _ = _store(tmp_path)
        h = campaigns.spec_hash(done)
        stale = results / f"{'a' * 16}-0.0.1.json"
        stale.write_text("{}")
        corrupt = results / f"{'b' * 16}-{VERSION}.json"
        corrupt.write_text("not json")
        empty = checkpoints / f"{'c' * 16}.jsonl"
        empty.write_text("")
        bad_header = checkpoints / f"{'d' * 16}.jsonl"
        bad_header.write_text('{"type": "chunk"}\n')
        tmp = results / ".x.json.tmp-1-2"
        tmp.write_text("partial")
        (results / "README").write_text("not a record")

        report = plan_gc(tmp_path, now=9e9)
        reasons = _reasons(report)
        assert reasons[stale.name] == "stale_version"
        assert reasons[corrupt.name] == "corrupt_record"
        assert reasons[empty.name] == "empty_shard"
        assert reasons[bad_header.name] == "corrupt_shard"
        assert reasons[tmp.name] == "abandoned_tmp"
        # the completed campaign's shard is redundant with its record...
        assert reasons[f"{h}.jsonl"] == "completed_shard"
        assert len(reasons) == 6
        # ...but the in-flight shard and the valid record are kept,
        # and the foreign file is reported, never deleted.
        assert report.kept == 2
        assert [p.name for p in report.unknown] == ["README"]
        assert report.reclaimable_bytes > 0

    def test_keep_checkpoints_spares_completed_shards(self, tmp_path):
        _store(tmp_path)
        report = plan_gc(tmp_path, keep_checkpoints=True)
        assert "completed_shard" not in set(_reasons(report).values())

    def test_fresh_tmp_is_not_abandoned(self, tmp_path):
        results, _, _, _ = _store(tmp_path)
        (results / ".y.json.tmp-1-2").write_text("partial")
        report = plan_gc(tmp_path, keep_checkpoints=True)
        assert report.candidates == []
        # ...until it crosses the age threshold.
        import time
        report = plan_gc(tmp_path, keep_checkpoints=True,
                         now=time.time() + TMP_AGE_S + 1)
        assert set(_reasons(report).values()) == {"abandoned_tmp"}

    def test_stale_record_stops_protecting_its_shard(self, tmp_path):
        """A record from an old version is not a valid result, so its
        campaign's shard is in flight, not completed."""
        results, checkpoints, done, _ = _store(tmp_path)
        h = campaigns.spec_hash(done)
        record = results / f"{h}-{VERSION}.json"
        record.rename(results / f"{h}-0.0.1.json")
        reasons = _reasons(plan_gc(tmp_path))
        assert reasons == {f"{h}-0.0.1.json": "stale_version"}

    def test_current_version_retired_kind_record_is_kept(
            self, tmp_path, store_retired_record):
        """Only the version rule prunes a kind the parser no longer
        knows: its current-version record is still a valid result."""
        store_retired_record(tmp_path / "results", VERSION)
        report = plan_gc(tmp_path)
        assert report.candidates == []
        assert report.kept == 1
        store_retired_record(tmp_path / "results", "0.0.1")
        assert set(_reasons(plan_gc(tmp_path)).values()) == {"stale_version"}


class TestApply:
    def test_apply_deletes_exactly_the_candidates(self, tmp_path):
        results, checkpoints, done, inflight = _store(tmp_path)
        (results / f"{'a' * 16}-0.0.1.json").write_text("{}")
        report = apply_gc(plan_gc(tmp_path))
        assert [c.reason for c in report.deleted] == \
            ["stale_version", "completed_shard"]
        assert report.missed == []
        # the record and the in-flight shard survive
        assert ResultStore(results).get(done) is not None
        assert (checkpoints /
                f"{campaigns.spec_hash(inflight)}.jsonl").exists()
        # a second sweep finds nothing
        assert plan_gc(tmp_path).candidates == []

    def test_lost_race_is_missed_not_fatal(self, tmp_path):
        results, _, _, _ = _store(tmp_path)
        (results / f"{'a' * 16}-0.0.1.json").write_text("{}")
        report = plan_gc(tmp_path, keep_checkpoints=True)
        report.candidates[0].path.unlink()  # a concurrent gc won
        report = apply_gc(report)
        assert report.deleted == []
        assert [c.reason for c in report.missed] == ["stale_version"]


class TestCli:
    def test_dry_run_reports_without_deleting(self, tmp_path, capsys):
        results, _, _, _ = _store(tmp_path)
        stale = results / f"{'a' * 16}-0.0.1.json"
        stale.write_text("{}")
        assert cli.main(["gc", str(tmp_path), "--keep-checkpoints"]) == 0
        out = capsys.readouterr().out
        assert "would delete" in out and "stale_version" in out
        assert "dry run" in out
        assert stale.exists()

    def test_apply_json_report(self, tmp_path, capsys):
        results, _, _, _ = _store(tmp_path)
        stale = results / f"{'a' * 16}-0.0.1.json"
        stale.write_text("{}")
        assert cli.main(["gc", str(tmp_path), "--apply", "--json",
                         "--keep-checkpoints"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deleted"] == [str(stale)]
        assert not stale.exists()

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert cli.main(["gc", str(tmp_path / "absent")]) == 1
        assert "not a directory" in capsys.readouterr().err

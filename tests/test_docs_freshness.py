"""tools/check_docs.py: the documented CLI surface must be the real one."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_repo_docs_are_fresh(capsys):
    assert check_docs.main(ROOT) == 0
    assert "clean" in capsys.readouterr().out


def test_parser_extraction_sees_every_subcommand():
    assert check_docs.registered_subcommands(ROOT) == {
        "run", "validate", "hash", "worker", "serve", "gc"}


def test_catalog_extraction_sees_every_scenario():
    assert check_docs.registered_scenarios(ROOT) == {
        "overlapping-strikes", "back-to-back-strikes",
        "heterogeneous-base-rate", "drifting-base-rate",
        "leakage-burst", "decoder-frontier"}
    assert check_docs.documented_scenarios(ROOT) \
        == check_docs.registered_scenarios(ROOT)


def test_knob_extraction_sees_every_env_constant():
    assert check_docs.registered_knobs(ROOT) == {
        "REPRO_WORKERS", "REPRO_SAMPLES", "REPRO_SCALE", "REPRO_JSON",
        "REPRO_JSON_DIR", "REPRO_CHECKPOINT_FSYNC", "REPRO_SERVICE_PORT",
        "REPRO_SERVICE_THREADS", "REPRO_SERVICE_EXECUTOR"}


def test_knob_drift_is_detected(tmp_path, capsys):
    (tmp_path / "src/repro/campaigns").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "src/repro/campaigns/cli.py").write_text(
        'def build():\n    sub.add_parser("run")\n')
    (tmp_path / "src/repro/config.py").write_text(
        'ENV_WORKERS = "REPRO_WORKERS"\n')
    (tmp_path / "README.md").write_text(
        "Use `python -m repro run` with `REPRO_WORKERS=2`.\n")
    # The bench README documents a knob config.py no longer defines.
    (tmp_path / "benchmarks/README.md").write_text(
        "| `REPRO_BACKEND` | `numpy` | array backend |\n")
    assert check_docs.main(tmp_path) == 1
    out = capsys.readouterr().out
    assert "benchmarks/README.md: documents `REPRO_BACKEND`" in out
    assert "REPRO_WORKERS" not in out


def test_catalog_drift_is_detected(tmp_path, capsys):
    (tmp_path / "src/repro/campaigns").mkdir(parents=True)
    (tmp_path / "src/repro/scenarios").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "src/repro/campaigns/cli.py").write_text(
        'def build():\n    sub.add_parser("run")\n')
    (tmp_path / "src/repro/scenarios/catalog.py").write_text(
        '@register_scenario("real-entry")\n'
        'def _real():\n    pass\n')
    # The table lists a ghost entry and omits the real one.
    (tmp_path / "README.md").write_text(
        "Use `python -m repro run`.\n"
        "## Scenario catalog\n"
        "| entry | engine | what |\n"
        "|---|---|---|\n"
        "| `ghost-entry` | memory | nothing |\n")
    assert check_docs.main(tmp_path) == 1
    out = capsys.readouterr().out
    assert "ghost-entry" in out  # documented but unregistered
    assert "real-entry" in out  # registered but undocumented


def test_drift_is_detected(tmp_path, capsys):
    (tmp_path / "src/repro/campaigns").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "src/repro/campaigns/cli.py").write_text(
        'def build():\n    sub.add_parser("run")\n    sub.add_parser("hash")\n')
    # README shows a ghost subcommand and omits a real one.
    (tmp_path / "README.md").write_text(
        "Use `python -m repro run` or `python -m repro explode`.\n")
    assert check_docs.main(tmp_path) == 1
    out = capsys.readouterr().out
    assert "explode" in out  # documented but unregistered
    assert "`hash`" in out  # registered but undocumented


def test_spec_kind_extraction_sees_every_kind():
    assert check_docs.registered_spec_kinds(ROOT) == {
        "MemorySpec", "EndToEndSpec", "DetectionSpec", "ScenarioSpec",
        "ScalingSpec", "ThroughputSpec"}
    assert check_docs.documented_spec_kinds(ROOT) \
        == check_docs.registered_spec_kinds(ROOT)


def _spec_kind_root(tmp_path, api_md):
    (tmp_path / "src/repro/campaigns").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "src/repro/campaigns/cli.py").write_text(
        'def build():\n    sub.add_parser("run")\n')
    (tmp_path / "src/repro/campaigns/specs.py").write_text(
        "SPEC_KINDS: dict[str, type] = {\n"
        "    cls.kind: cls for cls in (MemorySpec, ThroughputSpec)}\n")
    (tmp_path / "README.md").write_text("Use `python -m repro run`.\n")
    (tmp_path / "docs/API.md").write_text(api_md)


def test_spec_kind_drift_is_detected(tmp_path, capsys):
    # A ghost section for a retired kind, and none for a real one.
    _spec_kind_root(tmp_path, "### `MemorySpec` — memory\n"
                              "### `GhostSpec` — retired\n"
                              "### `Sweep` — parameter grids\n")
    assert check_docs.main(tmp_path) == 1
    problems = capsys.readouterr().out.splitlines()
    assert len(problems) == 2  # the wrapper `Sweep` is not a kind
    assert "documents spec kind `GhostSpec`" in problems[0]
    assert "spec kind `ThroughputSpec` is listed in SPEC_KINDS" \
        in problems[1]


def test_moved_spec_kinds_table_is_reported(tmp_path, capsys):
    _spec_kind_root(tmp_path, "### `MemorySpec` — memory\n")
    (tmp_path / "src/repro/campaigns/specs.py").write_text(
        "KINDS = {}\n")
    assert check_docs.main(tmp_path) == 1
    assert "SPEC_KINDS" in capsys.readouterr().out

"""The repro-lint contract checker: corpus, suppressions, CLI, self-clean.

The seeded-violation corpus under ``tests/reprolint_corpus/`` carries
one known-bad file and one known-good twin per rule; these tests pin
the exact findings each rule must produce (and the silence of every
twin), the suppression-comment semantics, the JSON output schema, and —
the point of the whole exercise — that the repo's own ``src/``,
``benchmarks/``, and ``examples/`` trees lint clean under the repo
manifest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from reprolint import JSON_SCHEMA_VERSION, __version__
from reprolint.cli import main as cli_main
from reprolint.engine import all_rules, run_paths
from reprolint.manifest import (DEFAULT_MANIFEST_PATH, ManifestError,
                                load_manifest)

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "reprolint_corpus"
CORPUS_MANIFEST = CORPUS / "corpus_manifest.toml"


def lint(*names, select=None):
    """Lint corpus files under the corpus manifest (tests included)."""
    paths = [CORPUS / name for name in names]
    return run_paths(paths, manifest=load_manifest(CORPUS_MANIFEST),
                     select=select, lint_tests=True)


def rules_fired(report):
    return sorted({d.rule for d in report.diagnostics})


# ----------------------------------------------------------------------
# Per-rule corpus: each rule fires on its bad file, is silent on the twin
# ----------------------------------------------------------------------
class TestCorpus:
    @pytest.mark.parametrize("rule, expected_bad", [
        ("RL001", 8), ("RL003", 3), ("RL004", 8), ("RL005", 6),
    ])
    def test_rule_fires_on_bad_and_not_on_good(self, rule, expected_bad):
        low = rule.lower()
        bad = lint(f"{low}_bad.py")
        assert rules_fired(bad) == [rule], \
            f"{rule} corpus must trip only its own rule"
        assert len(bad.diagnostics) == expected_bad
        assert bad.exit_code == 1
        good = lint(f"{low}_good.py")
        assert good.diagnostics == [] and good.exit_code == 0

    def test_rl001_finds_both_violation_families(self):
        messages = [d.message for d in lint("rl001_bad.py").diagnostics]
        assert any("legacy global-state" in m for m in messages)
        assert any("entropy-seeded" in m for m in messages)
        # Alias-aware: the `npr.randint` hit resolves through the
        # `import numpy.random as npr` binding.
        assert any("randint" in m for m in messages)

    def test_rl004_is_structural_not_name_based(self):
        report = lint("rl004_good.py")
        # NotASpec is mutable and unserializable but never registered;
        # CleanEvent is accepted by recursion, not by manifest listing.
        assert report.diagnostics == []
        bad = lint("rl004_bad.py")
        by_message = "\n".join(d.message for d in bad.diagnostics)
        assert "MutableSpec" in by_message
        assert "BareSpec" in by_message
        assert "LeakySpec.payload" in by_message

    def test_rl004_recurses_into_nested_dataclasses(self):
        bad = lint("rl004_bad.py")
        by_message = "\n".join(d.message for d in bad.diagnostics)
        # The finding lands on the spec field that reaches the bad
        # nesting, and names both the nesting and its defect.
        assert "NestedSpec.event" in by_message
        assert "'MutableEvent' is not frozen" in by_message
        assert "NestedSpec.burst" in by_message
        assert "LeakyEvent.members" in by_message

    def test_rl004_nested_cycle_terminates(self, tmp_path):
        target = tmp_path / "specs.py"
        target.write_text(
            "from dataclasses import dataclass\n"
            "from typing import Optional\n"
            "from repro.campaigns import register_campaign\n"
            "@dataclass(frozen=True)\n"
            "class Node:\n"
            "    next: 'Optional[Node]' = None\n"
            "@dataclass(frozen=True)\n"
            "class RingSpec:\n"
            "    head: Optional[Node] = None\n"
            "@register_campaign(RingSpec)\n"
            "def _run(spec, executor, store):\n"
            "    return None\n")
        report = run_paths([target],
                           manifest=load_manifest(CORPUS_MANIFEST),
                           lint_tests=True)
        assert report.diagnostics == []

    def test_rl005_set_iteration_but_not_sorted(self):
        bad_msgs = [d.message for d in lint("rl005_bad.py").diagnostics]
        assert any("set order is per-process" in m for m in bad_msgs)
        # The good twin uses sorted(set(...)) everywhere: silent.
        assert lint("rl005_good.py").diagnostics == []

    def test_select_runs_only_requested_rules(self):
        report = lint("rl001_bad.py", "rl005_bad.py", select=["RL005"])
        assert rules_fired(report) == ["RL005"]
        with pytest.raises(ValueError, match="unknown rule"):
            lint("rl001_bad.py", select=["RL999"])


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_corpus_suppression_semantics(self):
        report = lint("suppressed.py")
        # justified trailing + justified wrapped-standalone: silenced;
        # unjustified: finding survives AND the comment is an RL000;
        # wrong-rule-id: finding survives.
        assert report.counts() == {"RL000": 1, "RL001": 2}
        rl000 = [d for d in report.diagnostics if d.rule == "RL000"]
        assert "justification" in rl000[0].message

    def test_suppression_applies_only_to_named_rule(self, tmp_path):
        target = tmp_path / "knobs.py"
        target.write_text(
            "import os\n"
            "# reprolint: disable=RL001 -- wrong rule on purpose\n"
            "x = os.getenv('REPRO_SCALE')\n")
        report = run_paths([target],
                           manifest=load_manifest(CORPUS_MANIFEST),
                           lint_tests=True)
        assert rules_fired(report) == ["RL003"]

    def test_justified_suppression_is_not_an_rl000(self, tmp_path):
        target = tmp_path / "knobs.py"
        target.write_text(
            "import os\n"
            "x = os.getenv('K')  # reprolint: disable=RL003 -- test rig\n")
        report = run_paths([target],
                           manifest=load_manifest(CORPUS_MANIFEST),
                           lint_tests=True)
        assert report.diagnostics == [] and report.exit_code == 0


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_unparsable_file_reports_rl000(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        report = run_paths([target],
                           manifest=load_manifest(CORPUS_MANIFEST))
        assert rules_fired(report) == ["RL000"]
        assert report.exit_code == 1

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import os\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = run_paths([tmp_path],
                           manifest=load_manifest(CORPUS_MANIFEST))
        assert report.files_checked == 1

    def test_rl001_exempts_test_helpers_by_default(self, tmp_path):
        helper = tmp_path / "test_rig.py"
        helper.write_text("import numpy as np\n"
                          "rng = np.random.default_rng()\n")
        silent = run_paths([helper],
                           manifest=load_manifest(CORPUS_MANIFEST))
        assert silent.diagnostics == []
        loud = run_paths([helper],
                         manifest=load_manifest(CORPUS_MANIFEST),
                         lint_tests=True)
        assert rules_fired(loud) == ["RL001"]

    def test_registry_has_exactly_the_documented_rules(self):
        assert [r.rule_id for r in all_rules()] \
            == ["RL001", "RL003", "RL004", "RL005"]
        for rule in all_rules():
            assert rule.severity in ("warning", "error")
            assert rule.description

    def test_manifest_errors_are_typed(self, tmp_path):
        missing = tmp_path / "nope.toml"
        with pytest.raises(ManifestError, match="cannot read"):
            load_manifest(missing)
        bad = tmp_path / "bad.toml"
        bad.write_text("[rl005]\npaths = 'src/repro/campaigns/specs.py'\n")
        with pytest.raises(ManifestError, match=r"\[rl005\]\.paths"):
            load_manifest(bad)

    def test_default_manifest_parses(self):
        manifest = load_manifest(DEFAULT_MANIFEST_PATH)
        assert manifest.is_env_owner("src/repro/config.py")
        assert manifest.is_wire_module(
            "src/repro/campaigns/checkpoint.py")
        # Suffix matching works from absolute paths too.
        assert manifest.is_env_owner(
            (REPO / "src/repro/config.py").as_posix())


# ----------------------------------------------------------------------
# JSON output schema
# ----------------------------------------------------------------------
class TestJsonOutput:
    def test_schema(self):
        report = lint("rl003_bad.py")
        doc = json.loads(report.to_json())
        assert doc["tool"] == "reprolint"
        assert doc["version"] == __version__
        assert doc["schema"] == JSON_SCHEMA_VERSION
        assert doc["files_checked"] == 1
        assert doc["exit_code"] == 1
        assert doc["rules"] == ["RL001", "RL003", "RL004", "RL005"]
        assert doc["counts"] == {"RL003": 3}
        for diag in doc["diagnostics"]:
            assert set(diag) == {"path", "col", "line", "rule",
                                 "severity", "message"}
            assert diag["rule"] == "RL003"
            assert diag["severity"] == "error"
            assert diag["line"] >= 1 and diag["col"] >= 1

    def test_diagnostics_are_sorted_and_stable(self):
        a = lint("rl001_bad.py", "rl005_bad.py")
        b = lint("rl005_bad.py", "rl001_bad.py")
        assert [d.to_dict() for d in a.diagnostics] \
            == [d.to_dict() for d in b.diagnostics]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, capsys):
        rc = cli_main([str(CORPUS / "rl001_good.py"),
                       "--manifest", str(CORPUS_MANIFEST)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out
        rc = cli_main([str(CORPUS / "rl003_bad.py"),
                       "--manifest", str(CORPUS_MANIFEST)])
        assert rc == 1

    def test_json_flag(self, capsys):
        rc = cli_main([str(CORPUS / "rl003_bad.py"), "--json",
                       "--manifest", str(CORPUS_MANIFEST)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"RL003": 3}

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL003", "RL004", "RL005"):
            assert rule_id in out

    def test_bad_manifest_is_a_usage_error(self, capsys, tmp_path):
        rc = cli_main([str(CORPUS / "rl001_good.py"),
                       "--manifest", str(tmp_path / "nope.toml")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "--list-rules"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "tools"), "PATH": "/usr/bin"},
            cwd=str(REPO))
        assert proc.returncode == 0
        assert "RL001" in proc.stdout


# ----------------------------------------------------------------------
# The actual contract: the repo's own tree is lint-clean
# ----------------------------------------------------------------------
class TestSelfClean:
    def test_src_benchmarks_examples_are_clean(self):
        report = run_paths([REPO / "src", REPO / "benchmarks",
                            REPO / "examples"])
        assert report.diagnostics == [], \
            "repo tree has reprolint findings:\n" + report.render()
        assert report.exit_code == 0
        assert report.files_checked > 60

    def test_tools_tree_is_clean_too(self):
        report = run_paths([REPO / "tools"])
        assert report.diagnostics == [], report.render()

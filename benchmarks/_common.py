"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and prints
the same rows/series the paper reports.  Monte-Carlo depth is controlled
by the ``REPRO_*`` environment knobs so CI stays fast while
full-fidelity runs remain one command away.  The knobs themselves —
``REPRO_SAMPLES``, ``REPRO_SCALE``, ``REPRO_WORKERS``, ``REPRO_JSON``,
``REPRO_JSON_DIR`` — are owned and documented by :mod:`repro.config`
(one reader, call-time resolution); the thin wrappers here keep the
bench scripts' historical names and the ``--json`` command-line
override.

See ``benchmarks/README.md`` for the workflow and the JSON schema.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable, Optional

from repro import config


def mc_samples(default: int = 200) -> int:
    """Samples per Monte-Carlo point (``REPRO_SAMPLES`` x ``REPRO_SCALE``)."""
    return config.samples(default)


def mc_workers(default: int = 1) -> int:
    """Shot-engine worker count (``REPRO_WORKERS``)."""
    return config.workers(default)


def scale() -> float:
    """Global workload multiplier (``REPRO_SCALE``)."""
    return config.scale()


def json_enabled() -> bool:
    """Whether benches should write their machine-readable JSON."""
    return config.json_enabled(sys.argv)


def emit_json(name: str, section: str, payload: dict) -> Optional[str]:
    """Merge one bench section into ``BENCH_<name>.json``.

    Each bench function contributes its stage throughputs / speedup
    ratios under its own ``section`` key, so one file accumulates the
    whole script's trajectory and stays diffable across PRs.  Returns
    the path written, or ``None`` when disabled.
    """
    if not json_enabled():
        return None
    out_dir = config.json_dir(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    doc: dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
    doc["bench"] = name
    doc.pop("env", None)  # pre-refactor file-global env block
    # No timestamp on purpose: the file is committed as the cross-PR
    # perf trajectory, and a stamp would dirty it on every no-op rerun.
    # The env rides inside each section so a casual low-sample rerun of
    # one bench can never mislabel the sections it did not touch.
    sections = doc.setdefault("sections", {})
    sections[section] = dict(payload)
    sections[section]["env"] = {
        "samples": mc_samples(),
        "workers": mc_workers(),
        "scale": scale(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def print_table(title: str, header: Iterable[str],
                rows: Iterable[Iterable]) -> None:
    """Render an aligned ASCII table (bench output, mirrors the paper)."""
    header = [str(h) for h in header]
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths, strict=True))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths, strict=True)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) < 1e-3 or abs(cell) >= 1e5:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)

"""Spans, self times and the percentile rules of the benchmark.

Nothing here imports :mod:`repro`: the tracer only times calls the
benchmark makes into the program, so it can be tested on its own.

A span is ``(name, start, end, parent, run_id)``.  Spans nest through a
stack, are kept in memory while a run measures, and are written out as
JSON lines when the run ends.  A span's *self time* is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run_id = 0

    def new_run(self) -> int:
        """Start a new request id: spans opened from now on share it."""
        self._run_id += 1
        return self._run_id

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), math.nan, parent, self._run_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        return [span.duration - covered(span, children.get(i, ()))
                for i, span in enumerate(self.spans)]

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times(), strict=True):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def durations(self, *names: str) -> list[float]:
        return [s.duration for s in self.spans if s.name in names]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self.self_times(), strict=True):
                fh.write(json.dumps({**asdict(span), "self": own}) + "\n")


def covered(span: Span, children: Sequence[Span]) -> float:
    """Length of the part of ``span`` that the children's union covers."""
    total = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@dataclass(frozen=True)
class Tail:
    """A tail percentile with the sample counts that define it."""

    value: float
    percentile: float
    samples: int
    beyond: int


def tail(samples: Sequence[float]) -> Tail:
    """The highest percentile with at least ten samples beyond it.

    Nearest rank on the sorted samples: rank ``n - 10`` leaves exactly
    ten samples above it.  Below 22 samples that rank falls under the
    upper median, so the upper median is reported instead and
    ``beyond`` says how many samples lie past it.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return Tail(values[index], 100.0 * (index + 1) / n, n, n - 1 - index)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)

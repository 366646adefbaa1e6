"""Ring-buffered sliding-window counter for streamed syndrome rounds.

The offline kernels scan a whole campaign's activity tensor with int32
cumulative sums (:func:`repro.sim.batch._windowed_over`).  Online, the
stream is unbounded, so the window must be *bounded*: this module keeps
exactly the last ``c_win`` rounds in a ring buffer plus one running
per-node count updated add-newest / subtract-oldest.  Both computations
are plain integer arithmetic over the same 0/1 layers, so after every
push the live counts equal the offline windowed sums **bit for bit** —
the invariant the offline≡streaming equivalence suite certifies.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class RoundWindow:
    """The last ``c_win`` rounds of a node-activity stream, with counts.

    Args:
        c_win: window length in code cycles (the detection unit's
            ``c_win`` knob).
        shape: spatial shape of one activity layer — ``(d - 1, d)`` for
            the Z-lattice node grid.

    Memory is bounded by construction: one ``(c_win,) + shape`` int32
    ring plus one ``shape`` count array, independent of how many rounds
    stream through.  :attr:`peak_live_rounds` records the most rounds
    ever live at once (always ``<= c_win``), which the bounded-memory
    tests assert on.
    """

    def __init__(self, c_win: int, shape: tuple[int, int]):
        if c_win < 1:
            raise ValueError("c_win must be >= 1")
        self.c_win = c_win
        self.shape = tuple(shape)
        self._ring = np.zeros((c_win,) + self.shape, dtype=np.int32)
        #: Running per-node count over the live window (int32, exact).
        self.counts = np.zeros(self.shape, dtype=np.int32)
        self._next = 0
        self.rounds = 0
        self.peak_live_rounds = 0

    @property
    def full(self) -> bool:
        """True once ``c_win`` rounds have been ingested.

        The detection unit stays silent until its window fills — the
        same semantics as the offline scan, whose windowed index ``k``
        only exists for cycles ``t >= c_win - 1``.
        """
        return self.rounds >= self.c_win

    @property
    def live_rounds(self) -> int:
        """Rounds currently held (``<= c_win`` by construction)."""
        return min(self.rounds, self.c_win)

    def push(self, activity: Any) -> bool:
        """Ingest one round's 0/1 activity layer; returns :attr:`full`.

        Add the newest layer, subtract the layer falling out of the
        window (zeros until the ring first wraps): after the push,
        ``counts`` is the exact integer sum of the last
        ``min(rounds, c_win)`` layers — equal to the offline cumsum
        window ending at this round.
        """
        layer = np.asarray(activity, dtype=np.int32)
        if layer.shape != self.shape:
            raise ValueError(
                f"activity layer shape {layer.shape} != {self.shape}")
        self.counts += layer
        self.counts -= self._ring[self._next]
        self._ring[self._next] = layer
        self._next = (self._next + 1) % self.c_win
        self.rounds += 1
        if self.live_rounds > self.peak_live_rounds:
            self.peak_live_rounds = self.live_rounds
        return self.full

    def over(self, v_th: float) -> Any:
        """Above-threshold node map of the live window (bool layer)."""
        return self.counts > v_th

    def n_over(self, v_th: float) -> int:
        """Number of above-threshold nodes in the live window."""
        return int((self.counts > v_th).sum())

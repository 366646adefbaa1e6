"""Per-cycle Pauli noise with anomalous regions.

An :class:`AnomalousRegion` is an axis-aligned box on the decoding lattice
(rows x cols x time) whose qubits have an elevated physical error rate
``p_ano``.  :class:`PhenomenologicalNoise` samples per-cycle error arrays
for the Z-decoding lattice of a distance-``d`` planar code, with the
strikes given by a :class:`repro.scenarios.model.Scenario` (the one
strike description below the campaign specs; a single region is the
one-event :meth:`Scenario.from_region`):

* ``v`` -- vertical data-edge flips, shape ``(T, d, d)``: entry
  ``(t, k, j)`` is the edge between node rows ``k-1`` and ``k`` of lattice
  column ``j`` (``k = 0`` touches the north boundary, ``k = d-1`` the
  south boundary);
* ``h`` -- horizontal data-edge flips, shape ``(T, d-1, d-1)``: entry
  ``(t, i, j)`` is the edge between nodes ``(i, j)`` and ``(i, j+1)``;
* ``m`` -- syndrome-measurement flips, shape ``(T, d-1, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.scenarios.model import NO_STRIKES, Scenario


@dataclass(frozen=True)
class AnomalousRegion:
    """A box of anomalous qubits on the decoding lattice.

    Rows/cols address lattice *nodes*; the box covers nodes with
    ``row_lo <= i < row_lo + size`` and ``col_lo <= j < col_lo + size``
    (plus the data edges incident on them), matching an anomaly of
    ``size = d_ano`` qubits across.  Time bounds are in code cycles;
    ``t_hi = None`` means "until the end of the window".
    """

    row_lo: int
    col_lo: int
    size: int
    t_lo: int = 0
    t_hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("anomaly size must be >= 1")
        if self.row_lo < 0 or self.col_lo < 0 or self.t_lo < 0:
            raise ValueError("region origin must be non-negative")
        if self.t_hi is not None and self.t_hi < self.t_lo:
            raise ValueError("t_hi must be >= t_lo")

    @property
    def row_hi(self) -> int:
        return self.row_lo + self.size

    @property
    def col_hi(self) -> int:
        return self.col_lo + self.size

    def active_at(self, t: int) -> bool:
        """True iff the region is anomalous during cycle ``t``."""
        return self.t_lo <= t and (self.t_hi is None or t < self.t_hi)

    def contains_node(self, i: int, j: int) -> bool:
        """True iff lattice node (i, j) lies inside the box."""
        return (self.row_lo <= i < self.row_hi
                and self.col_lo <= j < self.col_hi)

    @classmethod
    def centered(cls, distance: int, size: int,
                 t_lo: int = 0, t_hi: Optional[int] = None) -> "AnomalousRegion":
        """A size x size region centered on a distance-``distance`` lattice."""
        rows, cols = distance - 1, distance
        row_lo = max(0, (rows - size) // 2)
        col_lo = max(0, (cols - size) // 2)
        return cls(row_lo, col_lo, size, t_lo, t_hi)

    @classmethod
    def random(cls, distance: int, size: int, rng,
               t_lo: int = 0, t_hi: Optional[int] = None) -> "AnomalousRegion":
        """A size x size region at a uniform position on the lattice.

        The single place strike positions are drawn (the shot kernels
        and the per-shot references must sample identically): row
        origin first, then column origin.
        """
        rows, cols = distance - 1, distance
        row_lo = int(rng.integers(0, max(1, rows - size)))
        col_lo = int(rng.integers(0, max(1, cols - size)))
        return cls(row_lo, col_lo, size, t_lo, t_hi)


def build_anomalous_masks(distance: int,
                          region: Optional[AnomalousRegion]):
    """Boolean spatial masks of anomalous edges/measurements.

    Returns ``(v_mask, h_mask, m_mask)`` for the decoding lattice of a
    distance-``distance`` code: the data edges incident on the region's
    nodes and the region's syndrome measurements.  Shared by
    :class:`PhenomenologicalNoise` and the shot kernels' per-shot
    region overwrites (which must not pay a noise-model construction
    per shot just to read the masks).
    """
    d = distance
    v_mask = np.zeros((d, d), dtype=bool)
    h_mask = np.zeros((d - 1, d - 1), dtype=bool)
    m_mask = np.zeros((d - 1, d), dtype=bool)
    if region is None:
        return v_mask, h_mask, m_mask
    for i in range(max(0, region.row_lo), min(d - 1, region.row_hi)):
        for j in range(max(0, region.col_lo), min(d, region.col_hi)):
            m_mask[i, j] = True
            # Edges incident on node (i, j): vertical k=i and k=i+1,
            # horizontal (i, j-1) and (i, j).
            v_mask[i, j] = True
            v_mask[i + 1, j] = True
            if j - 1 >= 0 and j - 1 < d - 1:
                h_mask[i, j - 1] = True
            if j < d - 1:
                h_mask[i, j] = True
    return v_mask, h_mask, m_mask


#: Uniforms per float draw inside ``sample_batch_packed``.  A draw
#: covers as many whole shots of one word as fit (at least one), so the
#: float scratch is ~2 MB, or one shot where a shot holds more (a
#: paper-scale Fig. 7 trial), instead of a whole 64-shot block.
PACKED_SAMPLE_UNIFORMS = 1 << 18


class PhenomenologicalNoise:
    """Samples per-cycle error arrays for the Z-decoding lattice.

    Args:
        distance: the code distance ``d``.
        p: physical error rate per code cycle for normal qubits.  On the
            lattice this is both the data-edge and measurement flip rate
            (X or Y each occur with probability ``p/2``).
        scenario: the strike timeline, a
            :class:`repro.scenarios.model.Scenario` whose events all
            have fixed positions (per-shot random positions are the shot
            kernels' job).  Each event resamples its box at its own
            ``p_ano`` inside its time window, in declaration order, over
            the base rate — uniform ``p``, or the scenario's rate field
            and drift.  The default has no strikes.
    """

    def __init__(self, distance: int, p: float,
                 scenario: Scenario = NO_STRIKES):
        if not 0.0 <= p <= 1.0:
            raise ValueError("error rates must be probabilities")
        if distance < 2:
            raise ValueError("distance must be >= 2")
        if not scenario.fixed:
            raise ValueError(
                "noise-level scenarios need fixed event positions; "
                "per-shot random positions are the shot kernels' job")
        if (scenario.rate_field_distance is not None
                and scenario.rate_field_distance != distance):
            raise ValueError(
                f"scenario rate_field implies distance "
                f"{scenario.rate_field_distance}, noise model has "
                f"distance {distance}")
        self.distance = distance
        self.p = p
        self.scenario = scenario
        self._overlays = tuple(
            (event.region(),
             build_anomalous_masks(distance, event.region()),
             event.p_ano)
            for event in scenario.events)
        self._thr_cache: dict = {}

    # ------------------------------------------------------------------
    def sample(self, cycles: int, rng: np.random.Generator):
        """Sample error arrays for ``cycles`` code cycles.

        Returns ``(v, h, m)`` boolean arrays of shapes
        ``(T, d, d)``, ``(T, d-1, d-1)``, ``(T, d-1, d)``.
        """
        v, h, m = self.sample_batch(1, cycles, rng)
        return v[0], h[0], m[0]

    def _thresholds(self, cycles: int):
        """Per-cycle base-rate arrays, or ``None`` for a uniform base.

        Cached per ``cycles`` — the expansion is pure in (scenario, p,
        distance, cycles) and every chunk of a campaign asks for the
        same window.
        """
        if self.scenario.uniform_base:
            return None
        cached = self._thr_cache.get(cycles)
        if cached is None:
            cached = self.scenario.rate_arrays(self.distance, self.p, cycles)
            self._thr_cache[cycles] = cached
        return cached

    def _active_overlays(self, cycles: int, uniform: bool):
        """``(t_lo, t_hi, masks, p_ano)`` of every event that draws.

        An event draws only inside its window clipped to the run; over
        a uniform base, one at the base rate itself draws nothing (its
        cells already hold base-rate bits).
        """
        for region, masks, p_ano in self._overlays:
            if uniform and p_ano == self.p:
                continue
            t_hi = region.t_hi if region.t_hi is not None else cycles
            t_lo, t_hi = max(0, region.t_lo), min(cycles, t_hi)
            if t_hi > t_lo:
                yield t_lo, t_hi, masks, p_ano

    def sample_batch(self, shots: int, cycles: int,
                     rng: np.random.Generator):
        """Sample error arrays for a whole batch of shots at once.

        Returns ``(v, h, m)`` boolean arrays of shapes
        ``(shots, T, d, d)``, ``(shots, T, d-1, d-1)``,
        ``(shots, T, d-1, d)``.  One generator call per array keeps the
        per-shot Python overhead of a Monte-Carlo campaign out of the
        sampling path entirely.

        Draw discipline (the bit-identity contract): the base arrays
        draw in v, h, m order with one generator call each — a uniform
        base compares against the scalar ``p`` — then events overwrite
        in declaration order, each drawing one v, h, m block over its
        clipped window and mask.
        """
        if shots < 1:
            raise ValueError("need at least one shot")
        d = self.distance
        thr = self._thresholds(cycles)
        if thr is None:
            v = rng.random((shots, cycles, d, d)) < self.p
            h = rng.random((shots, cycles, d - 1, d - 1)) < self.p
            m = rng.random((shots, cycles, d - 1, d)) < self.p
        else:
            thr_v, thr_h, thr_m = thr
            v = rng.random((shots, cycles, d, d)) < thr_v
            h = rng.random((shots, cycles, d - 1, d - 1)) < thr_h
            m = rng.random((shots, cycles, d - 1, d)) < thr_m
        for t_lo, t_hi, masks, p_ano in self._active_overlays(
                cycles, thr is None):
            for arr, mask in zip((v, h, m), masks, strict=True):
                arr[:, t_lo:t_hi][:, :, mask] = (
                    rng.random((shots, t_hi - t_lo, int(mask.sum())))
                    < p_ano)
        return v, h, m

    def sample_batch_packed(self, shots: int, cycles: int,
                            rng: np.random.Generator):
        """Bit-packed :meth:`sample_batch`: 64 shots per uint64 word.

        Returns ``(v, h, m)`` uint64 arrays of shapes
        ``(words, T, d, d)``, ``(words, T, d-1, d-1)``,
        ``(words, T, d-1, d)`` with ``words = ceil(shots / 64)``; lane
        ``s % 64`` of word ``s // 64`` holds shot ``s`` (see
        :mod:`repro.sim.bitops`).

        Draws the *identical* uniform stream as :meth:`sample_batch` —
        each array (base, then each event's overlay) is filled word by
        word, in pieces of whole shots whose concatenation is the same
        C-ordered sequence one big ``rng.random`` call would produce —
        so for a given generator state the packed bits equal the float
        path's bits exactly.  The scratch is one word of bools plus one
        piece of floats of at most :data:`PACKED_SAMPLE_UNIFORMS`
        uniforms (or one shot, where a shot holds more), so storage is
        ~1 bit per sampled bit instead of 8 bytes.
        """
        from repro.sim.bitops import WORD_BITS, pack_shots, word_count

        if shots < 1:
            raise ValueError("need at least one shot")
        d = self.distance
        words = word_count(shots)
        thr = self._thresholds(cycles)

        def draw(shape: tuple, rate) -> np.ndarray:
            """Packed ``rng.random((shots,) + shape) < rate``."""
            out = np.empty((words,) + shape, dtype=np.uint64)
            bits = np.empty((min(WORD_BITS, shots),) + shape, dtype=bool)
            step = max(1, PACKED_SAMPLE_UNIFORMS // max(1, math.prod(shape)))
            floats = np.empty((min(step, len(bits)),) + shape)
            for w in range(words):
                n = min(WORD_BITS, shots - WORD_BITS * w)
                for s in range(0, n, step):
                    u = rng.random(out=floats[:min(step, n - s)])
                    np.less(u, rate, out=bits[s:s + len(u)])
                out[w] = pack_shots(bits[:n])[0]
            return out

        shapes = ((d, d), (d - 1, d - 1), (d - 1, d))
        packed = [draw((cycles,) + shape, self.p if thr is None else thr[i])
                  for i, shape in enumerate(shapes)]
        for t_lo, t_hi, masks, p_ano in self._active_overlays(
                cycles, thr is None):
            for arr, mask in zip(packed, masks, strict=True):
                arr[:, t_lo:t_hi][:, :, mask] = draw(
                    (t_hi - t_lo, int(mask.sum())), p_ano)
        return tuple(packed)

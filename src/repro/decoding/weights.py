"""Distance models for matching: uniform and anomaly-aware (Fig. 6c).

On the uniform lattice the matching distance between nodes equals the
Manhattan distance in ``(t, i, j)``, and a node's boundary distance is
``min(i + 1, d - 1 - i)`` (north vs south).  When an anomalous region is
known, edges inside it carry weight ``w_ano = log((1-p_ano)/p_ano) /
log((1-p)/p)`` instead of 1, and the shortest connection may detour
through the region.  As in the paper's greedy decoder, we evaluate a
small set of candidate paths -- direct, and via the anomalous box -- and
take the cheapest; for ``p_ano = 0.5`` (``w_ano = 0``) this is the exact
shortest path on the weighted grid.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.noise.models import AnomalousRegion

#: Boundary identifiers used in matches.
NORTH = -1
SOUTH = -2


def region_signature(region: Optional[AnomalousRegion]) -> tuple:
    """Hashable key of a region's decode-relevant geometry.

    Two shots whose regions share a signature (box origin/size and time
    window — plus the model-level ``w_ano``, which callers key
    separately) see identical matching distances for identical nodes,
    so the region-bucketed decode engine may group them into one
    bucket.  ``None`` (no region) maps to the empty tuple.
    """
    if region is None:
        return ()
    return (region.row_lo, region.col_lo, region.size, region.t_lo,
            -1 if region.t_hi is None else region.t_hi)


def llr_weight(p: float) -> float:
    """The log-likelihood edge weight ``-log(p / (1 - p))`` of a flip rate."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1) for a finite weight")
    return -math.log(p / (1.0 - p))


def relative_anomalous_weight(p: float, p_ano: float) -> float:
    """Weight of an anomalous edge relative to a normal edge (clipped >= 0).

    ``p_ano = 0.5`` gives exactly 0; ``p_ano > 0.5`` is clipped to 0 (a
    negative-weight edge would make matching ill-posed; hyper-depolarized
    qubits carry no information either way).
    """
    if p_ano >= 0.5:
        return 0.0
    return llr_weight(p_ano) / llr_weight(p)


class DistanceModel:
    """Node-to-node and node-to-boundary matching distances.

    Args:
        distance: code distance ``d`` (sets the boundary geometry).
        region: optional known anomalous region (time bounds in *difference
            lattice* layers).  ``None`` gives the uniform model.
        w_ano: weight of anomalous edges relative to normal edges.
    """

    def __init__(self, distance: int,
                 region: Optional[AnomalousRegion] = None,
                 w_ano: float = 0.0):
        self.distance = distance
        self.region = region
        self.w_ano = float(w_ano)

    # ------------------------------------------------------------------
    # Vectorized primitives (nodes as (n, 3) arrays of (t, i, j))
    # ------------------------------------------------------------------
    def _box_bounds(self, t_max: int):
        reg = self.region
        t_hi = reg.t_hi if reg.t_hi is not None else t_max + 1
        lo = np.array([reg.t_lo, reg.row_lo, reg.col_lo], dtype=float)
        hi = np.array([t_hi - 1, reg.row_hi - 1, reg.col_hi - 1], dtype=float)
        # Clip the box to the lattice interior.
        hi[1] = min(hi[1], self.distance - 2)
        hi[2] = min(hi[2], self.distance - 1)
        return lo, hi

    def pairwise(self, nodes: np.ndarray) -> np.ndarray:
        """All-pairs matching distances for an ``(n, 3)`` node array."""
        nodes = np.asarray(nodes, dtype=float)
        direct = np.abs(nodes[:, None, :] - nodes[None, :, :]).sum(axis=2)
        if self.region is None:
            return direct
        lo, hi = self._box_bounds(int(nodes[:, 0].max(initial=0)))
        clamped = np.clip(nodes, lo, hi)
        to_box = np.abs(nodes - clamped).sum(axis=1)
        inside = np.abs(clamped[:, None, :] - clamped[None, :, :]).sum(axis=2)
        via = to_box[:, None] + to_box[None, :] + self.w_ano * inside
        return np.minimum(direct, via)

    def pairwise_int(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """All-pairs distances as an ``int16`` matrix, when exact.

        Matching distances are integer-valued whenever the nodes have
        integer coordinates and the model is uniform or has a zero-weight
        region (``p_ano = 0.5``, the paper's MBBE model).  In that regime
        this returns the same values as :meth:`pairwise` using ``int16``
        component outers — a fraction of the memory traffic of the float
        broadcast, which is what the batched shot engine's decode loop
        lives on.  Returns ``None`` when the integer path would not be
        exact (non-integer nodes, or a region with ``w_ano != 0``).
        """
        nodes = np.asarray(nodes)
        if not np.issubdtype(nodes.dtype, np.integer):
            return None
        if self.region is not None and self.w_ano != 0.0:
            return None
        # Worst-case int16 magnitude is 12x the largest coordinate (a
        # via distance sums two 3-component box approaches), so cap all
        # participating values — node coordinates AND box bounds, which
        # can be huge for an explicit far-future t_hi — at 2000.
        limit = 2000
        if nodes.size and int(np.abs(nodes).max()) > limit:
            return None
        if self.region is not None:
            lo, hi = self._box_bounds(int(nodes[:, 0].max(initial=0)))
            if max(float(np.abs(lo).max()), float(np.abs(hi).max())) > limit:
                return None
        pts = nodes.astype(np.int16)
        t, i, j = pts[:, 0], pts[:, 1], pts[:, 2]
        direct = (np.abs(t[:, None] - t[None, :])
                  + np.abs(i[:, None] - i[None, :])
                  + np.abs(j[:, None] - j[None, :]))
        if self.region is None:
            return direct
        clamped = np.clip(pts, lo.astype(np.int16), hi.astype(np.int16))
        to_box = np.abs(pts - clamped).sum(axis=1, dtype=np.int16)
        # Crossing a w_ano = 0 box is free: the via path is just the two
        # box approaches.
        via = to_box[:, None] + to_box[None, :]
        return np.minimum(direct, via)

    # ------------------------------------------------------------------
    # Batched primitives (stacked shots as (S, n, 3) tensors)
    # ------------------------------------------------------------------
    def _box_bounds_batch(self, t_max: np.ndarray):
        """Per-shot box bounds for an ``(S,)`` vector of shot t-maxima.

        Matches :meth:`_box_bounds` shot for shot: with an open time
        window the box top is each shot's own ``t_max``.
        Returns ``(lo, hi)`` with ``lo`` shape ``(3,)`` and ``hi``
        shape ``(S, 1, 3)`` (broadcastable over an ``(S, n, 3)`` stack).
        """
        reg = self.region
        lo = np.array([reg.t_lo, reg.row_lo, reg.col_lo], dtype=float)
        hi = np.empty((len(t_max), 1, 3), dtype=float)
        hi[:, 0, 0] = (reg.t_hi - 1 if reg.t_hi is not None
                       else t_max.astype(float))
        hi[:, 0, 1] = min(reg.row_hi - 1, self.distance - 2)
        hi[:, 0, 2] = min(reg.col_hi - 1, self.distance - 1)
        return lo, hi

    def pairwise_batch(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`pairwise` over a stacked ``(S, n, 3)`` batch of shots.

        Returns the ``(S, n, n)`` distance tensor; row ``s`` equals
        ``pairwise(nodes[s])`` exactly (the per-shot open-window box top
        is each shot's own ``t_max``, reproduced here with a
        per-shot clip bound).  This is the general float batch
        primitive (any ``w_ano``); the decode engine's hot path is the
        arena-fused integer specialization of the same math in
        :mod:`repro.decoding.batched`, and both are certified against
        the per-shot methods by the equivalence suite.
        """
        nodes = np.asarray(nodes, dtype=float)
        direct = np.abs(nodes[:, :, None, :]
                        - nodes[:, None, :, :]).sum(axis=3)
        if self.region is None:
            return direct
        lo, hi = self._box_bounds_batch(
            nodes[:, :, 0].max(axis=1, initial=0))
        clamped = np.clip(nodes, lo, hi)
        to_box = np.abs(nodes - clamped).sum(axis=2)
        inside = np.abs(clamped[:, :, None, :]
                        - clamped[:, None, :, :]).sum(axis=3)
        via = (to_box[:, :, None] + to_box[:, None, :]
               + self.w_ano * inside)
        return np.minimum(direct, via)

    def boundary_batch(self, nodes: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`boundary` over a stacked ``(S, n, 3)`` batch.

        Returns ``(dist, side)`` of shape ``(S, n)`` each, equal shot
        for shot to the per-shot method.
        """
        nodes = np.asarray(nodes, dtype=float)
        north = nodes[:, :, 1] + 1.0
        south = (self.distance - 1) - nodes[:, :, 1]
        if self.region is not None:
            lo, hi = self._box_bounds_batch(
                nodes[:, :, 0].max(axis=1, initial=0))
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=2)
            north_via = (to_box + self.w_ano * (clamped[:, :, 1] - lo[1])
                         + (lo[1] + 1.0))
            south_via = (to_box
                         + self.w_ano * (hi[:, :, 1] - clamped[:, :, 1])
                         + (self.distance - 1 - hi[:, :, 1]))
            north = np.minimum(north, north_via)
            south = np.minimum(south, south_via)
        side = np.where(north <= south, NORTH, SOUTH)
        return np.minimum(north, south), side

    def boundary(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the nearest boundary and which one.

        Returns ``(dist, side)`` with ``side`` in ``{NORTH, SOUTH}``.
        """
        nodes = np.asarray(nodes, dtype=float)
        north = nodes[:, 1] + 1.0
        south = (self.distance - 1) - nodes[:, 1]
        if self.region is not None:
            lo, hi = self._box_bounds(int(nodes[:, 0].max(initial=0)))
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=1)
            north_via = (to_box + self.w_ano * (clamped[:, 1] - lo[1])
                         + (lo[1] + 1.0))
            south_via = (to_box + self.w_ano * (hi[1] - clamped[:, 1])
                         + (self.distance - 1 - hi[1]))
            north = np.minimum(north, north_via)
            south = np.minimum(south, south_via)
        side = np.where(north <= south, NORTH, SOUTH)
        return np.minimum(north, south), side

    # ------------------------------------------------------------------
    # Scalar conveniences (used by tests and the hardware model)
    # ------------------------------------------------------------------
    def node_distance(self, a, b) -> float:
        """Matching distance between two (t, i, j) nodes."""
        arr = np.array([a, b], dtype=float)
        return float(self.pairwise(arr)[0, 1])

    def boundary_distance(self, a) -> tuple[float, int]:
        """Matching distance from a node to its cheaper boundary."""
        dist, side = self.boundary(np.array([a], dtype=float))
        return float(dist[0]), int(side[0])


class MultiRegionDistanceModel:
    """Matching distances with several (possibly overlapping) regions.

    The candidate-path family generalizes :class:`DistanceModel`:
    direct Manhattan, or a detour via any *single* anomalous box (each
    with its own weight) — the cheapest wins.  Chained multi-box
    detours are not enumerated, matching the paper's candidate-path
    greedy construction; for disjoint strike windows (the catalog's
    back-to-back case) the single-box set is exhaustive.

    Composes with both decoder families as-is: greedy
    (:func:`repro.decoding.greedy.greedy_cut_parity`) and
    :class:`repro.decoding.mwpm.MWPMDecoder` consume only
    ``pairwise`` / ``boundary``.  ``region`` is ``None`` and
    ``pairwise_int`` declines on purpose: the single-box zero-clique
    prematch is invalid under overlapping boxes (zero distance is not
    transitive across disjoint boxes), so the generic float acceptance
    path — which is exact — must be taken.  The batched engine's
    eligibility guards key on the ``regions`` attribute
    (:mod:`repro.decoding.batched`).

    Args:
        distance: code distance ``d``.
        regions: the anomalous boxes, one per strike event.
        w_ano: one weight for all boxes, or one weight per box.
    """

    def __init__(self, distance: int, regions,
                 w_ano=0.0):
        self.distance = distance
        self.regions = tuple(regions)
        if not self.regions:
            raise ValueError("need at least one region (else use "
                             "DistanceModel)")
        if np.ndim(w_ano) == 0:
            w_anos = (float(w_ano),) * len(self.regions)
        else:
            w_anos = tuple(float(w) for w in w_ano)
        if len(w_anos) != len(self.regions):
            raise ValueError("need one w_ano per region (or a scalar)")
        self.w_anos = w_anos
        #: Single-box specializations (zero cliques, float bucket tier)
        #: must not engage — see the class docstring.
        self.region = None
        self.w_ano = max(w_anos)
        self._models = tuple(
            DistanceModel(distance, reg, w)
            for reg, w in zip(self.regions, w_anos, strict=True))

    def pairwise(self, nodes: np.ndarray) -> np.ndarray:
        """All-pairs matching distances for an ``(n, 3)`` node array."""
        nodes = np.asarray(nodes, dtype=float)
        out = np.abs(nodes[:, None, :] - nodes[None, :, :]).sum(axis=2)
        t_max = int(nodes[:, 0].max(initial=0))
        for sub in self._models:
            lo, hi = sub._box_bounds(t_max)
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=1)
            inside = np.abs(clamped[:, None, :]
                            - clamped[None, :, :]).sum(axis=2)
            via = to_box[:, None] + to_box[None, :] + sub.w_ano * inside
            out = np.minimum(out, via)
        return out

    def pairwise_int(self, nodes: np.ndarray) -> Optional[np.ndarray]:
        """Always ``None``: the integer specialization's zero-clique
        prematch assumes one box, so multi-region decodes take the
        generic float path."""
        return None

    def boundary(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distance to the nearest boundary and which one.

        Per boundary, the minimum over the direct approach and the
        detour via each box (the same per-box via math as
        :meth:`DistanceModel.boundary`).
        """
        nodes = np.asarray(nodes, dtype=float)
        north = nodes[:, 1] + 1.0
        south = (self.distance - 1) - nodes[:, 1]
        t_max = int(nodes[:, 0].max(initial=0))
        for sub in self._models:
            lo, hi = sub._box_bounds(t_max)
            clamped = np.clip(nodes, lo, hi)
            to_box = np.abs(nodes - clamped).sum(axis=1)
            north_via = (to_box + sub.w_ano * (clamped[:, 1] - lo[1])
                         + (lo[1] + 1.0))
            south_via = (to_box + sub.w_ano * (hi[1] - clamped[:, 1])
                         + (self.distance - 1 - hi[1]))
            north = np.minimum(north, north_via)
            south = np.minimum(south, south_via)
        side = np.where(north <= south, NORTH, SOUTH)
        return np.minimum(north, south), side

    def node_distance(self, a, b) -> float:
        """Matching distance between two (t, i, j) nodes."""
        arr = np.array([a, b], dtype=float)
        return float(self.pairwise(arr)[0, 1])

    def boundary_distance(self, a) -> tuple[float, int]:
        """Matching distance from a node to its cheaper boundary."""
        dist, side = self.boundary(np.array([a], dtype=float))
        return float(dist[0]), int(side[0])

"""Exact shortest paths on the weighted space-time decoding grid.

The fast :class:`repro.decoding.weights.DistanceModel` evaluates a small
set of candidate routes (direct, via the anomalous box) in O(1) per
pair -- the trick that keeps the paper's greedy decoder constant-time
per path query (Fig. 6c).  This module provides the ground truth it
approximates: a Dijkstra search over the explicit 3-D grid with
per-edge weights (1 for normal edges, ``w_ano`` inside the anomalous
region).  ``tests/test_dijkstra.py`` certifies the approximation
against it; it is exact for any ``w_ano``, at grid-search cost.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.decoding.weights import NORTH, SOUTH
from repro.noise.models import AnomalousRegion


class GridDijkstra:
    """Exact weighted distances on the (time, row, col) decoding grid.

    Args:
        distance: code distance ``d`` (rows ``0..d-2``, cols ``0..d-1``).
        time_extent: number of difference-lattice layers.
        region: optional anomalous region.
        w_ano: weight of edges with *both* endpoints inside the region
            (boundary-crossing edges count as anomalous too: the region
            is defined over the qubits, and any edge incident on an
            anomalous qubit is suspect -- matching the noise model's
            mask construction).
    """

    def __init__(self, distance: int, time_extent: int,
                 region: Optional[AnomalousRegion] = None,
                 w_ano: float = 0.0):
        self.distance = distance
        self.time_extent = time_extent
        self.region = region
        self.w_ano = float(w_ano)

    # ------------------------------------------------------------------
    def _in_region(self, node: tuple[int, int, int]) -> bool:
        if self.region is None:
            return False
        t, i, j = node
        if not self.region.active_at(t):
            return False
        return self.region.contains_node(i, j)

    def _edge_weight(self, a, b) -> float:
        """An edge is anomalous if either endpoint is in the region."""
        if self._in_region(a) or self._in_region(b):
            return self.w_ano
        return 1.0

    def _neighbors(self, node):
        t, i, j = node
        for dt, di, dj in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            tt, ii, jj = t + dt, i + di, j + dj
            if (0 <= tt < self.time_extent
                    and 0 <= ii < self.distance - 1
                    and 0 <= jj < self.distance):
                yield (tt, ii, jj)

    # ------------------------------------------------------------------
    def distances_from(self, source: tuple[int, int, int]) -> dict:
        """Single-source exact distances to every grid node."""
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            cost, node = heapq.heappop(heap)
            if cost > dist.get(node, float("inf")):
                continue
            for nxt in self._neighbors(node):
                new = cost + self._edge_weight(node, nxt)
                if new < dist.get(nxt, float("inf")) - 1e-12:
                    dist[nxt] = new
                    heapq.heappush(heap, (new, nxt))
        return dist

    def node_distance(self, a, b) -> float:
        """Exact weighted distance between two nodes."""
        return self.distances_from(tuple(a))[tuple(b)]

    def boundary_distance(self, a) -> tuple[float, int]:
        """Exact weighted distance to the cheaper code boundary.

        The north boundary is one edge above row 0, the south one edge
        below row ``d-2``; the final boundary-crossing edge is anomalous
        iff the row-0 (row d-2) node it leaves from is.
        """
        dist = self.distances_from(tuple(a))
        best = (float("inf"), NORTH)
        for node, cost in dist.items():
            _, i, _ = node
            if i == 0:
                exit_w = self.w_ano if self._in_region(node) else 1.0
                if cost + exit_w < best[0]:
                    best = (cost + exit_w, NORTH)
            if i == self.distance - 2:
                exit_w = self.w_ano if self._in_region(node) else 1.0
                if cost + exit_w < best[0]:
                    best = (cost + exit_w, SOUTH)
        return best

"""Certify the O(1) distance model against exact grid Dijkstra.

The DistanceModel (Fig. 6c candidate paths) never *under*-estimates the
exact weighted distance, and over-estimates by at most the two
region-crossing edges its box bound cannot see.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grid_dijkstra import GridDijkstra
from repro.decoding.weights import DistanceModel
from repro.noise import AnomalousRegion

D = 9
T = 10


class TestUniform:
    def test_matches_manhattan_exactly(self):
        exact = GridDijkstra(D, T)
        model = DistanceModel(D)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = (int(rng.integers(0, T)), int(rng.integers(0, D - 1)),
                 int(rng.integers(0, D)))
            b = (int(rng.integers(0, T)), int(rng.integers(0, D - 1)),
                 int(rng.integers(0, D)))
            assert exact.node_distance(a, b) == pytest.approx(
                model.node_distance(a, b))

    def test_boundary_matches(self):
        exact = GridDijkstra(D, T)
        model = DistanceModel(D)
        for i in range(D - 1):
            node = (2, i, 4)
            ed, es = exact.boundary_distance(node)
            md, ms = model.boundary_distance(node)
            assert ed == pytest.approx(md)
            if abs(node[1] + 1 - (D - 1 - node[1])) > 0:  # no tie
                assert es == ms


class TestRegionApproximation:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_model_brackets_exact(self, data):
        row_lo = data.draw(st.integers(0, D - 4))
        col_lo = data.draw(st.integers(0, D - 4))
        size = data.draw(st.integers(2, 3))
        region = AnomalousRegion(row_lo, col_lo, size)
        exact = GridDijkstra(D, T, region, w_ano=0.0)
        model = DistanceModel(D, region, w_ano=0.0)
        coords = st.tuples(st.integers(0, T - 1), st.integers(0, D - 2),
                           st.integers(0, D - 1))
        a = data.draw(coords)
        b = data.draw(coords)
        e = exact.node_distance(a, b)
        m = model.node_distance(a, b)
        # Never underestimates; overshoots at most the two crossing edges.
        assert m >= e - 1e-9
        assert m <= e + 2.0 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_boundary_brackets_exact(self, data):
        row_lo = data.draw(st.integers(0, D - 4))
        col_lo = data.draw(st.integers(0, D - 4))
        region = AnomalousRegion(row_lo, col_lo, 3)
        exact = GridDijkstra(D, T, region, w_ano=0.0)
        model = DistanceModel(D, region, w_ano=0.0)
        node = data.draw(st.tuples(st.integers(0, T - 1),
                                   st.integers(0, D - 2),
                                   st.integers(0, D - 1)))
        e, _ = exact.boundary_distance(node)
        m, _ = model.boundary_distance(node)
        assert m >= e - 1e-9
        assert m <= e + 2.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 1.0), st.data())
    def test_nonzero_weight_still_brackets(self, w_ano, data):
        region = AnomalousRegion(2, 2, 3)
        exact = GridDijkstra(D, T, region, w_ano=w_ano)
        model = DistanceModel(D, region, w_ano=w_ano)
        coords = st.tuples(st.integers(0, T - 1), st.integers(0, D - 2),
                           st.integers(0, D - 1))
        a = data.draw(coords)
        b = data.draw(coords)
        e = exact.node_distance(a, b)
        m = model.node_distance(a, b)
        assert m >= e - 1e-9
        assert m <= e + 2.0 * (1.0 - w_ano) + 1e-9

    def test_time_bounded_region(self):
        region = AnomalousRegion(2, 2, 3, t_lo=4, t_hi=8)
        exact = GridDijkstra(D, T, region, w_ano=0.0)
        model = DistanceModel(D, region, w_ano=0.0)
        # Outside the active window the shortcut must not apply.
        a, b = (0, 0, 3), (0, 6, 3)
        assert model.node_distance(a, b) >= exact.node_distance(a, b)
        e_active = exact.node_distance((5, 0, 3), (5, 6, 3))
        m_active = model.node_distance((5, 0, 3), (5, 6, 3))
        assert m_active >= e_active - 1e-9
        assert m_active <= e_active + 2.0 + 1e-9

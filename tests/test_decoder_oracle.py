"""Decoder exactness against an independent brute-force oracle.

The oracle enumerates every matching with boundary: each node either
pairs with another node or retires to its nearest boundary at its
boundary distance.  It recurses on the lowest unmatched node, memoised
on the set of unmatched nodes, so it is exhaustive for the small node
sets drawn here (n <= 8) and shares nothing with the blossom or greedy
code.  MWPM must hit its minimum exactly; greedy may only lose weight,
and the batched greedy engine must reach the per-shot one's north-cut
parity.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decoding import (
    DistanceModel,
    MWPMDecoder,
    batched_cut_parities,
    greedy_cut_parity,
    greedy_decode_fast,
)
from repro.noise import AnomalousRegion


def oracle_weight(model, nodes) -> float:
    """Minimum total weight over all matchings with boundary."""
    dist = model.pairwise(nodes).tolist()
    bdist = model.boundary(nodes)[0].tolist()

    @lru_cache(maxsize=None)
    def best(free: int) -> float:
        if not free:
            return 0.0
        a = (free & -free).bit_length() - 1
        rest = free & ~(1 << a)
        weight = bdist[a] + best(rest)
        for b in range(a + 1, len(nodes)):
            if rest >> b & 1:
                weight = min(weight, dist[a][b] + best(rest & ~(1 << b)))
        return weight

    return best((1 << len(nodes)) - 1)


@st.composite
def lattice_shots(draw):
    """``(d, nodes)``: 1-8 distinct lattice nodes over a few layers."""
    d = draw(st.integers(3, 9))
    cells = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, d - 2),
                  st.integers(0, d - 1)),
        min_size=1, max_size=8, unique=True))
    return d, np.array(cells, dtype=np.int64)


@st.composite
def zero_weight_boxes(draw, d):
    """A p_ano = 0.5 (w_ano = 0) box anywhere on the lattice."""
    size = draw(st.integers(1, d - 1))
    t_lo = draw(st.integers(0, 5))
    t_hi = draw(st.none() | st.integers(t_lo + 1, 7))
    return AnomalousRegion(draw(st.integers(0, d - 2)),
                           draw(st.integers(0, d - 1)), size,
                           t_lo=t_lo, t_hi=t_hi)


def _check_decoders(model, nodes):
    best = oracle_weight(model, nodes)
    for prune in (1.5, None):
        exact = MWPMDecoder(model, prune_factor=prune).decode(nodes)
        assert exact.covers_all(len(nodes))
        assert exact.weight == pytest.approx(best)
    greedy = greedy_decode_fast(model, nodes)
    assert greedy.weight >= best - 1e-9
    assert batched_cut_parities(model, [nodes])[0] \
        == greedy_cut_parity(model, nodes)


class TestDecoderOracle:
    def test_oracle_on_hand_built_sets(self):
        model = DistanceModel(9)
        # Adjacent pair: pairing (1) beats two boundaries (4 + 4).
        assert oracle_weight(model, np.array([[0, 3, 4], [0, 4, 4]])) == 1
        # Far pair: one node to each boundary (1 + 1).
        assert oracle_weight(model, np.array([[0, 0, 0], [0, 7, 8]])) == 2
        # Greedy's trap: it pairs the middle two (2) first and sends the
        # ends to boundaries (4 + 4); the optimum pairs outer with inner.
        nodes = np.array([[0, 3, 0], [0, 3, 3], [0, 3, 5], [0, 3, 8]])
        assert oracle_weight(model, nodes) == 6
        assert greedy_decode_fast(model, nodes).weight == 10
        _check_decoders(model, nodes)

    @settings(max_examples=100, deadline=None)
    @given(lattice_shots())
    def test_uniform_model(self, shot):
        d, nodes = shot
        _check_decoders(DistanceModel(d), nodes)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_zero_weight_box_model(self, data):
        d, nodes = data.draw(lattice_shots())
        region = data.draw(zero_weight_boxes(d))
        _check_decoders(DistanceModel(d, region, 0.0), nodes)

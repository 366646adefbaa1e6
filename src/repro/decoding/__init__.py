"""Error decoding: 3-D space-time lattices, MWPM and greedy decoders.

The decoding problem (paper Sec. II-A) is minimum-weight perfect matching
of *active nodes* on a 3-D lattice whose axes are the two spatial
directions of the syndrome grid and code-cycle time.  This subpackage
provides:

* :mod:`repro.decoding.graph` -- syndrome-difference lattice construction
  from sampled error arrays;
* :mod:`repro.decoding.weights` -- uniform and anomaly-aware distance
  models (Fig. 6c candidate paths);
* :mod:`repro.decoding.mwpm` -- exact MWPM via blossom matching
  (networkx stands in for Kolmogorov's Blossom V);
* :mod:`repro.decoding.greedy` -- the QECOOL-style greedy radius-growing
  decoder used by the paper's hardware evaluation;
* :mod:`repro.decoding.batched` -- the cross-shot bucketed decode engine
  (certified bit-identical to the per-shot greedy core) that the
  batched shot engine's campaigns run on.
"""

from repro.decoding.graph import SyndromeLattice
from repro.decoding.weights import (DistanceModel, MultiRegionDistanceModel,
                                    NORTH, SOUTH)
from repro.decoding.mwpm import MWPMDecoder
from repro.decoding.greedy import (GreedyDecoder, greedy_cut_parity,
                                   greedy_decode_fast)
from repro.decoding.decoder_base import DecodeResult, Match
from repro.decoding.batched import ScratchArena, batched_cut_parities

__all__ = [
    "SyndromeLattice",
    "DistanceModel",
    "MultiRegionDistanceModel",
    "MWPMDecoder",
    "GreedyDecoder",
    "greedy_decode_fast",
    "greedy_cut_parity",
    "batched_cut_parities",
    "ScratchArena",
    "DecodeResult",
    "Match",
    "NORTH",
    "SOUTH",
]

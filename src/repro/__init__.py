"""repro: a reproduction of Q3DE (Suzuki et al., MICRO 2022).

Q3DE is a fault-tolerant quantum computing architecture that tolerates
multi-bit burst errors (MBBEs) from cosmic-ray strikes through three
mechanisms: in-situ anomaly DEtection from syndrome statistics, dynamic
code DEformation (temporal code-distance expansion), and optimized error
DEcoding (rollback + anomaly-aware re-execution).

Public API highlights
---------------------
* :class:`repro.surface_code.PlanarSurfaceCode` -- code layout/stabilizers.
* :class:`repro.noise.PhenomenologicalNoise`, :class:`repro.noise.CosmicRayModel`
  -- the paper's noise and MBBE models.
* :class:`repro.decoding.GreedyDecoder`, :class:`repro.decoding.MWPMDecoder`
  -- matching decoders over uniform or anomaly-aware distances.
* :class:`repro.core.AnomalyDetectionUnit` -- MBBE detection (Sec. IV).
* :class:`repro.core.Q3DEControlUnit` -- the integrated control unit.
* :mod:`repro.campaigns` -- the only way to run experiments: declarative
  specs (``MemorySpec``, ``EndToEndSpec``, ``DetectionSpec``, ...), one
  ``run()``, pluggable executors, checkpoint/resume
  (``python -m repro run spec.json`` from the shell).
* :mod:`repro.sim` -- the batched shot kernels those campaigns drive.
* :mod:`repro.scaling`, :mod:`repro.arch.throughput`, :mod:`repro.hwmodel`
  -- the Fig. 9 / Fig. 10 / Table IV evaluations.
"""

from repro.surface_code import PlanarSurfaceCode
from repro.noise import AnomalousRegion, PhenomenologicalNoise, CosmicRayModel
from repro.decoding import (
    SyndromeLattice,
    DistanceModel,
    GreedyDecoder,
    MWPMDecoder,
)
from repro.core import (
    AnomalyDetectionUnit,
    SyndromeStatistics,
    Q3DEControlUnit,
    Q3DEConfig,
)

__version__ = "1.1.0"

from repro import campaigns  # noqa: E402  (needs __version__ for provenance)
from repro import config  # noqa: E402

__all__ = [
    "PlanarSurfaceCode",
    "AnomalousRegion",
    "PhenomenologicalNoise",
    "CosmicRayModel",
    "SyndromeLattice",
    "DistanceModel",
    "GreedyDecoder",
    "MWPMDecoder",
    "AnomalyDetectionUnit",
    "SyndromeStatistics",
    "Q3DEControlUnit",
    "Q3DEConfig",
    "campaigns",
    "config",
    "__version__",
]

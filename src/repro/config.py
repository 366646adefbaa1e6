"""One home for the ``REPRO_*`` environment knobs.

Before the unified campaign API every entry point read its own slice of
the environment: the benches parsed ``REPRO_WORKERS`` / ``REPRO_SAMPLES``
/ ``REPRO_SCALE`` / ``REPRO_JSON`` / ``REPRO_JSON_DIR`` in
``benchmarks/_common.py``.  This module is now the single reader; the
values are resolved *at call time* — spec resolution, bench start —
never cached at import, so a test or driver can flip the environment and
see the change.

Documented defaults
-------------------

===================  =========  =============================================
variable             default    meaning
===================  =========  =============================================
``REPRO_WORKERS``    ``0``      shot-engine parallelism: ``0`` = the
                                whole-request in-process path (what
                                ``campaigns.run`` uses when unset), ``1`` =
                                the in-process fan-out-chunked path, ``> 1``
                                = a process pool of that size.  The bench
                                harness (``benchmarks/_common.mc_workers``)
                                passes its own historical default of ``1``.
``REPRO_SAMPLES``    ``200``    Monte-Carlo samples per bench data point
``REPRO_SCALE``      ``1.0``    multiplier on all bench workload sizes
``REPRO_JSON``       ``1``      benches merge machine-readable sections into
                                ``BENCH_<name>.json``; ``0`` disables
``REPRO_JSON_DIR``   bench dir  where those JSON files land
``REPRO_CHECKPOINT_FSYNC``  ``1``  durability of checkpoint shard appends:
                                ``1`` (default) flushes *and* fsyncs
                                every chunk record before the next chunk
                                runs; ``0`` keeps the flush but skips the
                                ``fsync`` (faster on network filesystems,
                                at the cost of possibly recomputing the
                                final chunks after a host crash — a torn
                                tail never corrupts the shard either way)
``REPRO_SERVICE_PORT``  ``8765``  default TCP port of ``python -m repro
                                serve`` (``--port`` overrides)
``REPRO_SERVICE_THREADS``  ``2``  campaign-scheduler worker threads in the
                                service: how many campaigns compute
                                concurrently (``--threads`` overrides)
``REPRO_SERVICE_EXECUTOR``  ``inline-chunked``  executor each service
                                campaign dispatches to, in the CLI's
                                ``--executor`` syntax (``inline``,
                                ``inline-chunked``, ``pool:N``,
                                ``queue:DIR``); the chunked default keeps
                                sibling specs' chunk plans aligned for
                                incremental refinement and gives the
                                partial-estimate endpoint chunk-granular
                                progress
===================  =========  =============================================
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

#: The environment variables this module owns.
ENV_WORKERS = "REPRO_WORKERS"
ENV_SAMPLES = "REPRO_SAMPLES"
ENV_SCALE = "REPRO_SCALE"
ENV_JSON = "REPRO_JSON"
ENV_JSON_DIR = "REPRO_JSON_DIR"
ENV_CHECKPOINT_FSYNC = "REPRO_CHECKPOINT_FSYNC"
ENV_SERVICE_PORT = "REPRO_SERVICE_PORT"
ENV_SERVICE_THREADS = "REPRO_SERVICE_THREADS"
ENV_SERVICE_EXECUTOR = "REPRO_SERVICE_EXECUTOR"

#: Values of boolean-ish variables read as "off".
_FALSY = ("0", "false", "no", "off", "")


def workers(default: int = 0) -> int:
    """Shot-engine worker count (``REPRO_WORKERS``), floored at 0.

    The implicit default (0, the in-process whole-request path) is what
    :func:`repro.campaigns.executors.default_executor` resolves to when
    the variable is unset, so an unset environment and an explicit
    ``REPRO_WORKERS=0`` behave identically.
    """
    return max(0, int(os.environ.get(ENV_WORKERS, default)))


def samples(default: int = 200) -> int:
    """Samples per Monte-Carlo bench point, scaled by :func:`scale`."""
    return max(1, int(float(os.environ.get(ENV_SAMPLES, default)) * scale()))


def scale(default: float = 1.0) -> float:
    """Global bench workload multiplier (``REPRO_SCALE``)."""
    return float(os.environ.get(ENV_SCALE, default))


def json_enabled(argv: Optional[Sequence[str]] = None) -> bool:
    """Whether benches should write their machine-readable JSON.

    ``--json`` in ``argv`` forces it on regardless of the environment.
    """
    if argv is not None and "--json" in argv:
        return True
    return os.environ.get(ENV_JSON, "1").strip().lower() not in _FALSY


def json_dir(default: str) -> str:
    """Directory for ``BENCH_<name>.json`` files (``REPRO_JSON_DIR``)."""
    return os.environ.get(ENV_JSON_DIR, default)


def checkpoint_fsync() -> bool:
    """Whether shard appends ``fsync`` each record (``REPRO_CHECKPOINT_FSYNC``).

    On by default: a chunk record must be durable before the next chunk
    runs for resume to be loss-free across host crashes.  Turning it off
    keeps the per-record flush (process kills stay safe) but lets the OS
    schedule the disk write.
    """
    return os.environ.get(ENV_CHECKPOINT_FSYNC, "1").strip().lower() \
        not in _FALSY


def service_port(default: int = 8765) -> int:
    """TCP port for ``python -m repro serve`` (``REPRO_SERVICE_PORT``)."""
    return int(os.environ.get(ENV_SERVICE_PORT, default))


def service_threads(default: int = 2) -> int:
    """Service scheduler worker threads (``REPRO_SERVICE_THREADS``).

    Floored at 1: the scheduler always has at least one campaign
    runner, whatever the environment says.
    """
    return max(1, int(os.environ.get(ENV_SERVICE_THREADS, default)))


def service_executor(default: str = "inline-chunked") -> str:
    """Executor the service dispatches campaigns to
    (``REPRO_SERVICE_EXECUTOR``, CLI ``--executor`` syntax).

    The chunked in-process default keeps chunk plans identical across
    sibling shot requests (the refinement prefix contract) and gives
    the partial-estimate endpoint chunk-granular progress; ``pool:N``
    or ``queue:DIR`` scale a single server over cores or hosts.
    """
    return (os.environ.get(ENV_SERVICE_EXECUTOR, default) or default).strip() \
        or default


def snapshot() -> dict:
    """The resolved knob values, for provenance blocks and debugging."""
    return {
        "workers": workers(),
        "samples": samples(),
        "scale": scale(),
        "json": json_enabled(),
        "checkpoint_fsync": checkpoint_fsync(),
        "service_port": service_port(),
        "service_threads": service_threads(),
        "service_executor": service_executor(),
    }

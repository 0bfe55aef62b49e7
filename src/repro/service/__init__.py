"""``repro.service`` — the parallel dominator-query serving layer.

The paper's Table-1 workload (all double-vertex dominators of every
primary input of every output cone) is embarrassingly parallel across
cones: each cone is an independent single-root DAG.  This package turns
chain computation into a schedulable, observable workload:

* :mod:`~repro.service.metrics` — process-local counters and latency
  histograms with a JSON snapshot exporter,
* :mod:`~repro.service.hashing` — canonical circuit/cone hashing used as
  the cache and artifact key space,
* :mod:`~repro.service.artifacts` — an on-disk store of computed chains
  keyed by circuit hash + output cone, with versioned invalidation,
* :mod:`~repro.service.jobs` — request deduplication and batching,
* :mod:`~repro.service.executor` — the :class:`ParallelExecutor`, the
  one worker pool: shared-memory dispatch of cone chunks, per-chunk
  timeouts and one in-process recovery policy.

The CLI surface is ``python -m repro sweep`` (parallel suite sweep) and
``python -m repro serve-batch`` (JSON request/response batches); see
``docs/SERVICE.md`` for the architecture notes.
"""

from .artifacts import ArtifactStore
from .executor import (
    CircuitSweep,
    ConeResult,
    ExecutorConfig,
    ParallelExecutor,
    SweepReport,
    pairs_in_chain_dict,
    sequential_cone_chains,
    sweep_sequential_suite,
    sweep_suite,
)
from .hashing import circuit_fingerprint, cone_fingerprint
from .jobs import Batch, ChainRequest, JobQueue
from .metrics import MetricsRegistry, Counter, Histogram

__all__ = [
    "ArtifactStore",
    "Batch",
    "ChainRequest",
    "CircuitSweep",
    "ConeResult",
    "Counter",
    "ExecutorConfig",
    "Histogram",
    "JobQueue",
    "MetricsRegistry",
    "ParallelExecutor",
    "SweepReport",
    "circuit_fingerprint",
    "cone_fingerprint",
    "pairs_in_chain_dict",
    "sequential_cone_chains",
    "sweep_sequential_suite",
    "sweep_suite",
]

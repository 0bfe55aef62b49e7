"""The :class:`ParallelExecutor` — worker-pool dominator-chain sweeps.

Each output cone of a circuit is an independent single-root DAG, so the
Table-1 workload parallelises across cones with zero shared state.  The
executor fans per-cone DOMINATORCHAIN jobs across one persistent
:class:`concurrent.futures.ProcessPoolExecutor` (fork where available),
created on the first parallel sweep, shared by concurrent callers and
shut down by :meth:`ParallelExecutor.close`:

* **shared-memory dispatch** — each circuit version is published once
  through :class:`~repro.daemon.shm.SharedCircuitPool`; chunks of cones
  carry a :class:`~repro.daemon.shm.CircuitRef` that workers attach and
  decode once.  Where shared memory is unavailable the sweep runs
  in-process;
* **one recovery policy** — a chunk that raises, passes its deadline
  (``timeout * len(chunk)``) or loses its worker is recomputed
  in-process, so one pathological cone cannot wedge a sweep; on a
  deadline or a worker death the pool is retired (its workers are
  terminated) and the next parallel sweep forks a fresh one;
* **one set of arrays per netlist** — every cone of a chunk is a
  :class:`~repro.dominators.shared.ConeView` of one
  :class:`~repro.dominators.shared.CircuitScratch`: no per-cone graph
  copy, index or tree object, and each ``(entry, sink)`` region record
  is computed once for all the cones that hold it;
* **determinism** — results are collected in submission order and the
  per-cone chain dictionaries are bit-identical to what a sequential
  :class:`~repro.core.algorithm.ChainComputer` produces (the property
  suite asserts this pair-for-pair and vector-for-vector).

Workers run their own :class:`~repro.service.metrics.MetricsRegistry`
and return its snapshot with each chunk; the parent folds the snapshots
into its registry, so ``core.chain_seconds`` observed inside workers is
visible in the final export.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algorithm import ChainComputer
from ..dominators.kernels import validate_kernels
from ..dominators.shared import (
    DEFAULT_BACKEND,
    CircuitScratch,
    cone_graph,
    validate_backend,
)
from ..graph.circuit import Circuit
from .artifacts import ArtifactStore
from .hashing import circuit_fingerprint
from .jobs import Batch
from .metrics import MetricsRegistry

#: One dispatched cone job: output name plus explicit targets (None =
#: every primary input of the cone).
ConeJob = Tuple[str, Optional[Tuple[str, ...]]]


def sequential_cone_chains(
    circuit: Circuit,
    output: str,
    targets: Optional[Sequence[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> Dict[str, Dict[str, object]]:
    """Chains of one output cone, serialized, on a materialized cone.

    The per-cone path of a sweep (see :func:`_cone_chains`, which backs
    the worker processes and the in-process fallback alike, so
    "parallel == sequential" holds by construction) for every
    configuration but the default, and the single-cone reference in
    tests.

    The cone is taken with one walk over the circuit's arrays.
    """
    graph = cone_graph(circuit, output)
    computer = ChainComputer(
        graph, metrics=metrics, backend=backend, kernels=kernels
    )
    if targets is None:
        indices = graph.sources()
    else:
        indices = [graph.index_of(t) for t in targets]
    chains: Dict[str, Dict[str, object]] = {}
    for u in indices:
        name = graph.name_of(u)
        chains[name if name is not None else str(u)] = (
            computer.chain(u).to_dict()
        )
    return chains


def view_cone_chains(
    views: CircuitScratch,
    output: str,
    targets: Optional[Sequence[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[Dict[str, Dict[str, object]]]:
    """Chains of one output cone as a view of the sweep's arrays.

    The same dictionary :func:`sequential_cone_chains` returns under the
    defaults, byte for byte, or ``None`` when the cone's tree sweep runs
    past its step budget (a deep cascade): the caller then materializes
    that one cone.
    """
    view = views.view(output)
    if view is None:
        return None
    computer = ChainComputer(view, metrics=metrics)
    if targets is None:
        indices = view.sources()
    else:
        indices = [view.index_of(t) for t in targets]
    return {view.name_of(u): computer.chain(u).to_dict() for u in indices}


def _cone_chains(circuit, cone_jobs, metrics, backend, kernels):
    """Yield ``(output, chains, wall)`` per cone job, in order.

    Under ``linear`` on python every cone is a view of one
    :class:`CircuitScratch` built for these jobs; other configurations,
    and a cone whose tree sweep runs out of budget (counted as
    ``executor.view_fallbacks``), take :func:`sequential_cone_chains`.
    """
    views = None
    if backend == "linear" and kernels == "python":
        views = CircuitScratch(circuit.arrays())
    for output, targets in cone_jobs:
        start = time.perf_counter()
        chains = None
        if views is not None:
            chains = view_cone_chains(views, output, targets, metrics)
            if chains is None:
                metrics.inc("executor.view_fallbacks")
        if chains is None:
            chains = sequential_cone_chains(
                circuit,
                output,
                targets,
                metrics=metrics,
                backend=backend,
                kernels=kernels,
            )
        yield output, chains, time.perf_counter() - start


def pairs_in_chain_dict(chain_dict: Dict[str, object]) -> int:
    """Number of dominator pairs encoded by one serialized chain."""
    intervals = chain_dict["intervals"]
    total = 0
    for pair in chain_dict["pairs"]:  # type: ignore[union-attr]
        for v in pair["side1"]:
            lo, hi = intervals[str(v)]  # type: ignore[index]
            total += hi - lo + 1
    return total


def _process_chunk(payload):
    """Worker entry: compute every cone job of one chunk.

    ``payload`` is ``(ref, cone_jobs, backend, kernels)``, where ``ref``
    is the :class:`~repro.daemon.shm.CircuitRef` of a published
    shared-memory segment (resolved through the worker-local attach
    cache, so repeated chunks for one circuit version decode it once).
    The return value is
    ``([(output, chains, wall_seconds), ...], metrics_snapshot)``.
    """
    from ..daemon.shm import attach_circuit

    ref, cone_jobs, backend, kernels = payload
    registry = MetricsRegistry()
    circuit = attach_circuit(ref)
    registry.inc("executor.shm_attaches")
    results = []
    for output, chains, wall in _cone_chains(
        circuit, cone_jobs, registry, backend, kernels
    ):
        registry.observe("executor.job_seconds", wall)
        results.append((output, chains, wall))
    return results, registry.snapshot()


def _chunk_entry(payload):
    """Stable pool target that defers to the current ``_process_chunk``.

    The indirection lets tests substitute the chunk body (slow/failing
    workers) via plain module monkeypatching under the fork start
    method.
    """
    return _process_chunk(payload)


@dataclass
class ExecutorConfig:
    """Tuning knobs of one executor.

    Attributes
    ----------
    jobs:
        Worker process count; ``1`` means in-process execution.
        Zero or negative counts are rejected (``ValueError``).
    timeout:
        Per-cone time budget in seconds; a chunk's deadline is
        ``timeout * len(chunk)``.  ``None`` disables timeouts;
        negative budgets are rejected (``ValueError``).
    chunk_size:
        Cones per dispatched chunk; ``None`` picks
        ``ceil(n_cones / (4 * jobs))`` so each worker sees ~4 chunks
        (good balance between per-chunk overhead and tail latency).
    backend:
        Chain-construction backend used by every cone job
        (``"linear"`` default, ``"shared"`` max-flow, ``"legacy"`` for
        the reference path).
    kernels:
        Hot-path implementation selector forwarded to every
        :class:`~repro.core.algorithm.ChainComputer`: ``"python"``
        (default) or ``"numpy"`` (flat-array kernels from
        :mod:`repro.dominators.kernels`; identical chains).  Part of
        the artifact-store key — cached sweeps never mix kernels.
    """

    jobs: int = 1
    timeout: Optional[float] = None
    chunk_size: Optional[int] = None
    backend: str = DEFAULT_BACKEND
    kernels: str = "python"

    def __post_init__(self) -> None:
        validate_backend(self.backend)
        validate_kernels(self.kernels)
        if self.jobs <= 0:
            raise ValueError(
                f"jobs must be a positive integer, got {self.jobs}"
            )
        if self.timeout is not None and self.timeout < 0:
            raise ValueError(
                f"timeout must be non-negative, got {self.timeout}"
            )
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be a positive integer, got {self.chunk_size}"
            )


@dataclass
class ConeResult:
    """Chains of one cone plus how they were obtained."""

    output: str
    chains: Dict[str, Dict[str, object]]
    wall: float
    source: str  # "parallel" | "inprocess" | "artifact"

    @property
    def num_pairs(self) -> int:
        return sum(pairs_in_chain_dict(c) for c in self.chains.values())


@dataclass
class CircuitSweep:
    """Per-circuit roll-up of one sweep."""

    name: str
    circuit_key: str
    cones: int
    chains: int
    pairs: int
    wall: float
    artifact_hits: int


@dataclass
class SweepReport:
    """Everything a sweep produced, ready for rendering/JSON."""

    circuits: List[CircuitSweep] = field(default_factory=list)
    jobs: int = 1
    total_wall: float = 0.0

    @property
    def total_pairs(self) -> int:
        return sum(c.pairs for c in self.circuits)

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "total_wall": self.total_wall,
            "total_pairs": self.total_pairs,
            "circuits": [
                {
                    "name": c.name,
                    "circuit": c.circuit_key,
                    "cones": c.cones,
                    "chains": c.chains,
                    "pairs": c.pairs,
                    "wall": c.wall,
                    "artifact_hits": c.artifact_hits,
                }
                for c in self.circuits
            ],
        }


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def _healthy(workers: concurrent.futures.ProcessPoolExecutor) -> bool:
    """Whether no worker of the pool has died since the last sweep."""
    processes = list((workers._processes or {}).values())
    return not workers._broken and all(p.is_alive() for p in processes)


def _terminate(workers: concurrent.futures.ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting for its tasks; reap its workers.

    What Python 3.14's ``terminate_workers()`` does, on every version
    from 3.9: the pool's process table is the only handle on a worker
    stuck in a chunk.
    """
    processes = list((workers._processes or {}).values())
    workers.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join(5.0)


class ParallelExecutor:
    """Fans per-cone dominator-chain jobs across a process pool.

    Parameters
    ----------
    config:
        Pool size, timeouts, chunking (see :class:`ExecutorConfig`).
    metrics:
        Registry receiving ``executor.*`` counters, worker-side
        ``core.*`` observations, and (through the store) ``artifacts.*``.
    store:
        Optional :class:`~repro.service.artifacts.ArtifactStore`;
        when present, cones already stored under the circuit's current
        version are served from disk and fresh results are persisted.
    shm:
        The :class:`~repro.daemon.shm.SharedCircuitPool` that parallel
        sweeps publish circuits through, keyed by ``circuit_key``.  The
        caller keeps ownership (the daemon passes the pool its engines'
        edit listeners retire segments of).  ``None`` makes the
        executor publish through a pool of its own, created on the
        first parallel sweep and unlinked by :meth:`close`.
    """

    def __init__(
        self,
        config: Optional[ExecutorConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        store: Optional[ArtifactStore] = None,
        shm=None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.metrics = metrics or MetricsRegistry()
        self.store = store
        self._shm = shm
        self._owns_shm = shm is None
        self._workers: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Shut the worker pool down and unlink the segments it owns."""
        with self._lock:
            workers, self._workers = self._workers, None
            shm = self._shm if self._owns_shm else None
            if self._owns_shm:
                self._shm = None
        if workers is not None:
            workers.shutdown(wait=True)
        if shm is not None:
            shm.close()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _publish(self, circuit: Circuit, key: Optional[str]):
        """The :class:`~repro.daemon.shm.CircuitRef` chunks carry.

        Publishing happens once per circuit version; ``None`` where
        shared memory is unavailable (counted, never fatal).
        """
        from ..daemon.shm import SharedCircuitPool, SharedMemoryUnavailable

        with self._lock:
            if self._shm is None:
                self._shm = SharedCircuitPool(self.metrics)
            shm = self._shm
        try:
            return shm.publish(circuit, key or circuit_fingerprint(circuit))
        except (SharedMemoryUnavailable, OSError):
            self.metrics.inc("executor.shm_fallbacks")
            return None

    def _pool(self) -> Optional[concurrent.futures.ProcessPoolExecutor]:
        """The persistent worker pool, forked on first use.

        A pool that lost a worker since the last sweep is retired first,
        so the sweep runs on a fresh one.  ``None`` when this platform
        cannot create a pool at all.
        """
        workers = self._workers
        if workers is not None and not _healthy(workers):
            self._retire(workers)
        with self._lock:
            if self._workers is None:
                try:
                    self._workers = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.config.jobs,
                        mp_context=_fork_context(),
                    )
                except (ImportError, NotImplementedError, OSError):
                    # No usable multiprocessing on this platform (e.g.
                    # missing POSIX semaphores).
                    self.metrics.inc("executor.pool_fallbacks")
                    return None
            return self._workers

    def _retire(self, workers: concurrent.futures.ProcessPoolExecutor) -> None:
        """Terminate a pool that timed out or lost a worker, once."""
        with self._lock:
            if self._workers is not workers:
                return
            self._workers = None
        self.metrics.inc("executor.pools_retired")
        _terminate(workers)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def sweep_circuit(
        self,
        circuit: Circuit,
        outputs: Optional[Sequence[str]] = None,
        circuit_key: Optional[str] = None,
        targets_by_output: Optional[Dict[str, Optional[Tuple[str, ...]]]] = None,
    ) -> List[ConeResult]:
        """Chains of every requested cone, in output order.

        ``targets_by_output`` restricts individual cones to explicit
        target lists (the batch-serving path); unlisted cones default to
        all primary inputs.
        """
        cone_names = list(outputs) if outputs is not None else circuit.outputs
        # Only the artifact store needs the key: a store-less sweep never
        # hashes the netlist.
        key = circuit_key
        if not key and self.store is not None:
            key = circuit_fingerprint(circuit)
        targets_by_output = targets_by_output or {}

        results: Dict[str, ConeResult] = {}
        pending: List[ConeJob] = []
        for output in cone_names:
            targets = targets_by_output.get(output)
            cached = None
            # Only all-target artifacts are stored/served: partial target
            # sets would poison later all-target reads.
            if self.store is not None and targets is None:
                cached = self.store.get(
                    key,
                    output,
                    self.config.backend,
                    self.config.kernels,
                )
            if cached is not None:
                results[output] = ConeResult(output, cached, 0.0, "artifact")
            else:
                pending.append((output, targets))
        self.metrics.inc("executor.jobs_submitted", len(pending))

        executed = self._execute(circuit, pending, key)
        for output, chains, wall, source in executed:
            results[output] = ConeResult(output, chains, wall, source)
            targets = targets_by_output.get(output)
            if self.store is not None and targets is None:
                self.store.put(
                    key,
                    output,
                    chains,
                    self.config.backend,
                    self.config.kernels,
                )
        self.metrics.inc("executor.jobs_completed", len(pending))
        return [results[output] for output in cone_names]

    def run_batches(
        self, circuits: Dict[str, Circuit], batches: Sequence[Batch]
    ) -> Dict[Tuple[str, str], ConeResult]:
        """Execute drained :class:`~repro.service.jobs.Batch` records.

        ``circuits`` maps circuit fingerprints to loaded netlists.
        Returns ``{(circuit_key, output): ConeResult}``.
        """
        by_circuit: Dict[str, List[Batch]] = {}
        for batch in batches:
            by_circuit.setdefault(batch.circuit_key, []).append(batch)
        out: Dict[Tuple[str, str], ConeResult] = {}
        for key, group in by_circuit.items():
            circuit = circuits[key]
            cone_results = self.sweep_circuit(
                circuit,
                outputs=[b.output for b in group],
                circuit_key=key,
                targets_by_output={b.output: b.targets for b in group},
            )
            for result in cone_results:
                out[(key, result.output)] = result
        return out

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _execute(
        self, circuit: Circuit, cone_jobs: List[ConeJob], key: Optional[str]
    ):
        """Yield ``(output, chains, wall, source)`` in submission order."""
        if not cone_jobs:
            return
        if self.config.jobs <= 1 or len(cone_jobs) == 1:
            yield from self._run_inprocess(circuit, cone_jobs)
            return
        ref = self._publish(circuit, key)
        workers = self._pool() if ref is not None else None
        if workers is None:
            yield from self._run_inprocess(circuit, cone_jobs)
            return

        chunks = self._chunk(cone_jobs)
        futures = []
        for chunk in chunks:
            payload = (ref, chunk, self.config.backend, self.config.kernels)
            try:
                futures.append(workers.submit(_chunk_entry, payload))
            except RuntimeError:  # broken, or retired by another caller
                futures.append(None)
        self.metrics.inc("executor.chunks", len(chunks))
        for chunk, future in zip(chunks, futures):
            deadline = (
                self.config.timeout * len(chunk)
                if self.config.timeout is not None
                else None
            )
            try:
                if future is None:
                    raise BrokenProcessPool("pool unusable at submit")
                chunk_results, snapshot = future.result(deadline)
            except concurrent.futures.TimeoutError:
                self.metrics.inc("executor.timeouts")
                self._retire(workers)
            except (BrokenProcessPool, concurrent.futures.CancelledError):
                # A worker died, or another caller retired the pool.
                self.metrics.inc("executor.failures")
                self._retire(workers)
            except Exception:
                self.metrics.inc("executor.failures")
            else:
                self.metrics.merge_snapshot(snapshot)
                self.metrics.inc("executor.jobs_parallel", len(chunk))
                for output, chains, wall in chunk_results:
                    yield output, chains, wall, "parallel"
                continue
            yield from self._run_inprocess(circuit, chunk)

    def _run_inprocess(self, circuit: Circuit, cone_jobs: List[ConeJob]):
        for output, chains, wall in _cone_chains(
            circuit,
            cone_jobs,
            self.metrics,
            self.config.backend,
            self.config.kernels,
        ):
            self.metrics.observe("executor.job_seconds", wall)
            self.metrics.inc("executor.jobs_inprocess")
            yield output, chains, wall, "inprocess"

    def _chunk(self, cone_jobs: List[ConeJob]) -> List[List[ConeJob]]:
        size = self.config.chunk_size
        if size is None:
            size = max(1, -(-len(cone_jobs) // (4 * self.config.jobs)))
        return [
            cone_jobs[i : i + size] for i in range(0, len(cone_jobs), size)
        ]


def sweep_suite(
    executor: ParallelExecutor,
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    verbose: bool = False,
) -> SweepReport:
    """Run the executor over the built-in Table-1 circuit suite."""
    import sys

    from ..circuits.suite import table1_suite

    suite = table1_suite()
    selected = list(names) if names else list(suite)
    report = SweepReport(jobs=executor.config.jobs)
    sweep_start = time.perf_counter()
    for name in selected:
        if verbose:
            print(f"  sweeping {name} ...", file=sys.stderr, flush=True)
        circuit = suite[name].circuit(scale)
        key = circuit_fingerprint(circuit)
        start = time.perf_counter()
        cone_results = executor.sweep_circuit(circuit, circuit_key=key)
        wall = time.perf_counter() - start
        report.circuits.append(
            CircuitSweep(
                name=name,
                circuit_key=key,
                cones=len(cone_results),
                chains=sum(len(r.chains) for r in cone_results),
                pairs=sum(r.num_pairs for r in cone_results),
                wall=wall,
                artifact_hits=sum(
                    1 for r in cone_results if r.source == "artifact"
                ),
            )
        )
    report.total_wall = time.perf_counter() - sweep_start
    return report


def sweep_sequential_suite(
    executor: ParallelExecutor,
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    view: Tuple[str, int] = ("core", 0),
    verbose: bool = False,
) -> SweepReport:
    """Run the executor over the built-in sequential circuit suite.

    Each :class:`~repro.circuits.suite.SequentialEntry` is lowered to a
    plain netlist first: ``view=("core", 0)`` analyzes the flop-cut
    combinational core (one cone per primary output and per next-state
    function), ``view=("unroll", N)`` analyzes the ``N``-frame
    time-frame unrolling (per-frame primary outputs plus the final
    next-state cut).  Row names carry the view suffix so reports from
    different views never collide.
    """
    import sys

    from ..circuits.suite import sequential_suite
    from ..graph.sequential import extract_combinational_core, unrolled

    mode, frames = view
    if mode not in ("core", "unroll"):
        raise ValueError(f"unknown sequential view {mode!r}")
    suite = sequential_suite()
    selected = list(names) if names else list(suite)
    report = SweepReport(jobs=executor.config.jobs)
    sweep_start = time.perf_counter()
    for name in selected:
        label = name if mode == "core" else f"{name}:u{frames}"
        if verbose:
            print(f"  sweeping {label} ...", file=sys.stderr, flush=True)
        sequential = suite[name].sequential(scale)
        if mode == "core":
            circuit = extract_combinational_core(sequential)
        else:
            circuit = unrolled(sequential, frames)
        key = circuit_fingerprint(circuit)
        start = time.perf_counter()
        cone_results = executor.sweep_circuit(circuit, circuit_key=key)
        wall = time.perf_counter() - start
        report.circuits.append(
            CircuitSweep(
                name=label,
                circuit_key=key,
                cones=len(cone_results),
                chains=sum(len(r.chains) for r in cone_results),
                pairs=sum(r.num_pairs for r in cone_results),
                wall=wall,
                artifact_hits=sum(
                    1 for r in cone_results if r.source == "artifact"
                ),
            )
        )
    report.total_wall = time.perf_counter() - sweep_start
    return report

""":class:`DaemonService` — the stateful core behind both front ends.

The service owns everything that should outlive a single request:

* **loaded circuits**, keyed by their canonical fingerprint at load
  time (the key is the client-facing handle and stays stable across
  edits; an internal version counter tracks mutations),
* **per-cone incremental engines** (:class:`~repro.incremental.engine.
  IncrementalEngine`), created on first query of a ``(circuit, output)``
  pair and kept warm so repeat queries hit the region cache and edits
  pay incremental — not from-scratch — recomputation,
* a :class:`~repro.daemon.shm.SharedCircuitPool` publishing each
  circuit version to shared memory once (when enabled and available);
  every engine gets the pool's invalidation listener registered, so an
  applied edit retires the shared segment before any worker could read
  a stale netlist,
* a persistent **worker pool** (``concurrent.futures``
  ``ProcessPoolExecutor``) that ``sweep`` fans cone chunks across —
  with shared memory on, chunk payloads carry a
  :class:`~repro.daemon.shm.CircuitRef` instead of a pickled netlist,
* the :class:`~repro.daemon.admission.AdmissionController` and a
  :class:`~repro.service.metrics.MetricsRegistry` observing per-op
  latency histograms (``daemon.<op>_seconds``) that the ``stats`` op
  reports with interpolated p50/p99.

:meth:`DaemonService.handle` is synchronous and thread-safe — the
asyncio server dispatches it to a thread so the event loop never blocks
on chain construction, and tests can drive the service without an event
loop at all.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..dominators.kernels import validate_kernels
from ..dominators.shared import DEFAULT_BACKEND, validate_backend
from ..errors import ReproError
from ..graph.circuit import Circuit, Node
from ..graph.node import NodeType
from ..incremental.edits import edit_from_dict
from ..incremental.engine import IncrementalEngine
from ..service.executor import _chunk_entry, pairs_in_chain_dict
from ..service.hashing import circuit_fingerprint
from ..service.metrics import MetricsRegistry
from .admission import AdmissionController
from .protocol import (
    ProtocolError,
    Request,
    error_response,
    ok_response,
)
from .shm import (
    SharedCircuitPool,
    SharedMemoryUnavailable,
    shared_memory_available,
)

#: Ops that bypass admission control: observability and lifecycle must
#: stay reachable exactly when the service is saturated.
_UNGATED_OPS = frozenset({"stats", "shutdown"})


@dataclass
class ServiceConfig:
    """Tuning knobs of one daemon instance."""

    jobs: int = 1
    backend: str = DEFAULT_BACKEND
    kernels: str = "python"
    use_shared_memory: bool = True
    max_in_flight: int = 16
    tenant_rate: float = 50.0
    tenant_burst: float = 20.0
    chunk_size: int = 4

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError(f"jobs must be a positive integer, got {self.jobs}")
        if self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be a positive integer, got {self.chunk_size}"
            )
        validate_backend(self.backend)
        validate_kernels(self.kernels)


def _circuit_from_inline(definition: Dict[str, Any]) -> Circuit:
    """Build a circuit from the protocol's inline netlist form.

    ``{"name": ..., "nodes": [{"name", "type", "fanins"}...],
    "outputs": [...]}`` — fanins may reference later nodes, exactly like
    the :class:`Circuit` builder API.
    """
    circuit = Circuit(str(definition.get("name", "inline")))
    nodes = definition.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ProtocolError("inline circuit needs a non-empty nodes list")
    for spec in nodes:
        try:
            name = spec["name"]
            node_type = NodeType(spec.get("type", "input"))
        except (TypeError, KeyError, ValueError) as exc:
            raise ProtocolError(f"bad inline node spec: {exc}") from None
        if node_type is NodeType.INPUT:
            circuit.add_input(name)
        elif node_type is NodeType.CONST0:
            circuit.add_constant(name, 0)
        elif node_type is NodeType.CONST1:
            circuit.add_constant(name, 1)
        else:
            circuit.add_gate(name, node_type, list(spec.get("fanins", ())))
    outputs = definition.get("outputs")
    if not outputs:
        raise ProtocolError("inline circuit needs a non-empty outputs list")
    circuit.set_outputs(outputs)
    circuit.validate()
    return circuit


def _apply_edits_to_circuit(circuit: Circuit, edits) -> Circuit:
    """The netlist-level counterpart of ``IncrementalEngine.apply``.

    Engines mutate per-cone graphs in place; the daemon also needs the
    *source* netlist updated so later sweeps, shared-memory publishes
    and newly opened cones all see the edited circuit.  Returns a fresh
    validated :class:`Circuit` (the old object stays untouched for any
    worker still holding it).
    """
    from ..incremental.edits import AddGate, RemoveGate, ReplaceSubgraph, Rewire

    nodes: Dict[str, Node] = {nm: circuit.node(nm) for nm in circuit}
    order: List[str] = list(circuit)

    def _apply_one(edit) -> None:
        if isinstance(edit, AddGate):
            if edit.name in nodes:
                raise ReproError(f"node {edit.name!r} already defined")
            nodes[edit.name] = Node(
                edit.name, NodeType(edit.gate_type), tuple(edit.fanins)
            )
            order.append(edit.name)
        elif isinstance(edit, RemoveGate):
            if edit.name not in nodes:
                raise ReproError(f"no node named {edit.name!r}")
            del nodes[edit.name]
        elif isinstance(edit, Rewire):
            old = nodes.get(edit.name)
            if old is None:
                raise ReproError(f"no node named {edit.name!r}")
            node_type = (
                NodeType(edit.gate_type)
                if edit.gate_type is not None
                else old.type
            )
            nodes[edit.name] = Node(edit.name, node_type, tuple(edit.fanins))
        elif isinstance(edit, ReplaceSubgraph):
            for name in edit.remove:
                _apply_one(RemoveGate(name))
            for gate in edit.add:
                _apply_one(gate)
            for rewire in edit.rewire:
                _apply_one(rewire)
        else:
            raise ReproError(f"not an edit: {edit!r}")

    for edit in edits:
        _apply_one(edit)

    updated = Circuit(circuit.name)
    for nm in order:
        node = nodes.get(nm)
        if node is None:
            continue
        if node.type is NodeType.INPUT:
            updated.add_input(nm)
        elif node.type is NodeType.CONST0:
            updated.add_constant(nm, 0)
        elif node.type is NodeType.CONST1:
            updated.add_constant(nm, 1)
        else:
            updated.add_gate(nm, node.type, list(node.fanins))
    updated.set_outputs([o for o in circuit.outputs if o in nodes])
    updated.validate()
    return updated


class DaemonService:
    """Request dispatcher over long-lived circuit state.

    Thread-safe: the JSONL and HTTP front ends call :meth:`handle` from
    worker threads concurrently.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.admission = AdmissionController(
            max_in_flight=self.config.max_in_flight,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            clock=clock,
        )
        self._lock = threading.RLock()
        self._circuits: Dict[str, Circuit] = {}
        self._versions: Dict[str, int] = {}
        self._engines: Dict[Tuple[str, str], IncrementalEngine] = {}
        self._closed = False
        self.shutdown_requested = threading.Event()

        self._shm_enabled = (
            self.config.use_shared_memory and shared_memory_available()
        )
        self._pool = SharedCircuitPool(self.metrics) if self._shm_enabled else None
        self._workers: Optional[concurrent.futures.Executor] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _worker_pool(self) -> Optional[concurrent.futures.Executor]:
        """The persistent process pool (created on first sweep)."""
        if self.config.jobs <= 1:
            return None
        with self._lock:
            if self._workers is None:
                try:
                    context = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-fork platform
                    context = multiprocessing.get_context()
                try:
                    self._workers = concurrent.futures.ProcessPoolExecutor(
                        max_workers=self.config.jobs, mp_context=context
                    )
                except (ImportError, OSError):  # pragma: no cover
                    self.metrics.inc("daemon.pool_fallbacks")
                    self._workers = None
            return self._workers

    def close(self) -> None:
        """Tear down workers and unlink every shared-memory segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, None
        if workers is not None:
            workers.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "DaemonService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Dict[str, Any]:
        """Execute one request, returning the response envelope."""
        self.metrics.inc("daemon.requests")
        self.metrics.inc(f"daemon.requests_{request.op}")
        if request.op not in _UNGATED_OPS:
            admitted, reason = self.admission.admit(request.tenant)
            if not admitted:
                self.metrics.inc("daemon.shed")
                return error_response(
                    request.id,
                    429,
                    reason or "shed",
                    "request shed by admission control; retry with backoff",
                    tenant=request.tenant,
                )
        else:
            admitted = False
        start = time.perf_counter()
        try:
            handler = getattr(self, f"_op_{request.op}")
            result = handler(request.params)
            return ok_response(request.id, result)
        except ProtocolError as exc:
            return error_response(request.id, exc.code, exc.reason, str(exc))
        except ReproError as exc:
            return error_response(request.id, 400, "domain_error", str(exc))
        except Exception as exc:  # noqa: BLE001 - the service must not die
            self.metrics.inc("daemon.internal_errors")
            return error_response(
                request.id, 500, "internal_error", f"{type(exc).__name__}: {exc}"
            )
        finally:
            self.metrics.observe(
                f"daemon.{request.op}_seconds", time.perf_counter() - start
            )
            if admitted:
                self.admission.release()

    # ------------------------------------------------------------------
    # circuit registry helpers
    # ------------------------------------------------------------------
    def _resolve_circuit(self, params: Dict[str, Any]) -> Tuple[str, Circuit]:
        key = params.get("circuit")
        if not isinstance(key, str):
            raise ProtocolError("params.circuit (a load key) is required")
        with self._lock:
            circuit = self._circuits.get(key)
        if circuit is None:
            raise ProtocolError(
                f"unknown circuit {key!r}; load it first",
                code=404,
                reason="unknown_circuit",
            )
        return key, circuit

    def _resolve_output(self, circuit: Circuit, params: Dict[str, Any]) -> str:
        output = params.get("output")
        if output is None:
            if len(circuit.outputs) == 1:
                return circuit.outputs[0]
            raise ProtocolError(
                f"circuit has {len(circuit.outputs)} outputs; "
                "params.output is required"
            )
        if output not in circuit.outputs:
            raise ProtocolError(
                f"unknown output {output!r}",
                code=404,
                reason="unknown_output",
            )
        return output

    def _engine(self, key: str, output: str) -> IncrementalEngine:
        with self._lock:
            engine = self._engines.get((key, output))
            if engine is None:
                engine = IncrementalEngine.from_circuit(
                    self._circuits[key].copy(),
                    output,
                    backend=self.config.backend,
                    metrics=self.metrics,
                )
                if self._pool is not None:
                    engine.add_edit_listener(self._pool.listener_for(key))
                self._engines[(key, output)] = engine
                self.metrics.inc("daemon.engines_opened")
            return engine

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_load(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if "path" in params:
            from ..cli import load_netlist

            circuit = load_netlist(str(params["path"]))
        elif "suite" in params:
            from ..circuits.suite import table1_suite

            suite = table1_suite()
            name = str(params["suite"])
            if name not in suite:
                raise ProtocolError(
                    f"unknown suite circuit {name!r}",
                    code=404,
                    reason="unknown_circuit",
                )
            circuit = suite[name].circuit(float(params.get("scale", 1.0)))
        elif "definition" in params:
            circuit = _circuit_from_inline(params["definition"])
        else:
            raise ProtocolError(
                "params must carry one of: path, suite, definition"
            )
        key = circuit_fingerprint(circuit)
        with self._lock:
            fresh = key not in self._circuits
            self._circuits[key] = circuit
            if fresh:
                self._versions[key] = 1
        ref = None
        if self._pool is not None:
            try:
                ref = self._pool.publish(circuit, key)
            except SharedMemoryUnavailable:  # pragma: no cover - race w/ close
                ref = None
        self.metrics.inc("daemon.circuits_loaded")
        result: Dict[str, Any] = {
            "circuit": key,
            "name": circuit.name,
            "nodes": len(circuit),
            "inputs": len(circuit.inputs),
            "outputs": circuit.outputs,
            "version": self._versions[key],
        }
        if ref is not None:
            result["shared_memory"] = {
                "segment": ref.segment,
                "bytes": ref.size,
                "version": ref.version,
            }
        return result

    def _op_chain(self, params: Dict[str, Any]) -> Dict[str, Any]:
        key, circuit = self._resolve_circuit(params)
        output = self._resolve_output(circuit, params)
        targets = params.get("targets")
        if targets is not None and not isinstance(targets, list):
            raise ProtocolError("params.targets must be a list or null")
        engine = self._engine(key, output)
        graph = engine.graph
        if targets is None:
            indices = [
                u for u in graph.sources() if engine.tree.is_reachable(u)
            ]
        else:
            try:
                indices = [graph.index_of(t) for t in targets]
            except ReproError as exc:
                raise ProtocolError(
                    str(exc), code=404, reason="unknown_target"
                ) from None
        chains: Dict[str, Dict[str, Any]] = {}
        for u in indices:
            name = graph.name_of(u)
            chains[name if name is not None else str(u)] = (
                engine.chain(u).to_dict()
            )
        return {
            "circuit": key,
            "output": output,
            "version": self._versions[key],
            "chains": chains,
        }

    def _op_sweep(self, params: Dict[str, Any]) -> Dict[str, Any]:
        key, circuit = self._resolve_circuit(params)
        outputs = params.get("outputs")
        if outputs is None:
            outputs = circuit.outputs
        elif not isinstance(outputs, list):
            raise ProtocolError("params.outputs must be a list or null")
        bad = [o for o in outputs if o not in circuit.outputs]
        if bad:
            raise ProtocolError(
                f"unknown outputs: {bad}", code=404, reason="unknown_output"
            )
        cone_jobs = [(str(o), None) for o in outputs]
        start = time.perf_counter()
        results, dispatch = self._run_cone_jobs(key, circuit, cone_jobs)
        wall = time.perf_counter() - start
        cones = [
            {
                "output": output,
                "chains": len(chains),
                "pairs": sum(
                    pairs_in_chain_dict(c) for c in chains.values()
                ),
                "wall": cone_wall,
            }
            for output, chains, cone_wall in results
        ]
        return {
            "circuit": key,
            "version": self._versions[key],
            "dispatch": dispatch,
            "wall": wall,
            "cones": cones,
            "total_pairs": sum(c["pairs"] for c in cones),
        }

    def _run_cone_jobs(self, key: str, circuit: Circuit, cone_jobs):
        """Run cone jobs on the worker pool; returns (results, dispatch).

        Results keep submission order: ``[(output, chains, wall), ...]``.
        """
        workers = self._worker_pool()
        if workers is None or len(cone_jobs) <= 1:
            results, snapshot = _chunk_entry(
                (circuit, cone_jobs, self.config.backend, self.config.kernels)
            )
            self.metrics.merge_snapshot(snapshot)
            return results, "inline"

        payload_circuit: Any = circuit
        dispatch = "pickle"
        if self._pool is not None:
            try:
                payload_circuit = self._pool.publish(circuit, key)
                dispatch = "shm"
            except SharedMemoryUnavailable:
                payload_circuit = circuit
        size = self.config.chunk_size
        chunks = [
            cone_jobs[i : i + size] for i in range(0, len(cone_jobs), size)
        ]
        futures = [
            workers.submit(
                _chunk_entry,
                (payload_circuit, chunk, self.config.backend, self.config.kernels),
            )
            for chunk in chunks
        ]
        results = []
        for chunk, future in zip(chunks, futures):
            try:
                chunk_results, snapshot = future.result()
            except Exception:
                # A dead worker must not kill the request: recompute the
                # chunk inline.
                self.metrics.inc("daemon.worker_failures")
                chunk_results, snapshot = _chunk_entry(
                    (circuit, chunk, self.config.backend, self.config.kernels)
                )
            self.metrics.merge_snapshot(snapshot)
            results.extend(chunk_results)
        return results, dispatch

    def _op_edit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        key, circuit = self._resolve_circuit(params)
        edit_dicts = params.get("edits")
        if not isinstance(edit_dicts, list) or not edit_dicts:
            raise ProtocolError("params.edits must be a non-empty list")
        try:
            edits = [edit_from_dict(d) for d in edit_dicts]
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad edit record: {exc}") from None

        # The source netlist first: if the edit script is invalid the
        # request fails here, before any engine state mutates.
        updated = _apply_edits_to_circuit(circuit, edits)

        output = params.get("output")
        touched: List[int] = []
        if output is not None:
            if output not in circuit.outputs:
                raise ProtocolError(
                    f"unknown output {output!r}",
                    code=404,
                    reason="unknown_output",
                )
            # Incremental path: the open engine applies the edits in
            # place (firing the shared-memory invalidation listener) and
            # keeps its region cache.
            touched = self._engine(key, str(output)).apply(*edits)

        with self._lock:
            self._circuits[key] = updated
            self._versions[key] += 1
            version = self._versions[key]
            # Engines of *other* cones were built from the pre-edit
            # netlist; drop them so the next query reopens fresh.
            for engine_key in list(self._engines):
                if engine_key[0] == key and engine_key[1] != output:
                    del self._engines[engine_key]
                    self.metrics.inc("daemon.engines_dropped")
        if self._pool is not None and output is None:
            # No engine applied the edit, so no listener fired; retire
            # the published segment explicitly.
            self._pool.invalidate(key)
        self.metrics.inc("daemon.edits_applied", len(edits))
        if output is not None:
            # The engine proves its maintained tree correct after every
            # edit batch; a failed certificate is an internal invariant
            # violation, so the broken engine is dropped (next query
            # reopens fresh) and the client gets a 500 — the netlist
            # itself is already updated above.
            violations = self._engine(key, str(output)).check_certificate()
            if violations:
                with self._lock:
                    self._engines.pop((key, str(output)), None)
                self.metrics.inc("daemon.certificate_failures")
                raise ProtocolError(
                    "low-high certificate failed after edit: "
                    + "; ".join(violations[:3]),
                    code=500,
                    reason="certificate_failed",
                )
        return {
            "circuit": key,
            "version": version,
            "edits": len(edits),
            "touched": len(touched),
            "nodes": len(updated),
        }

    def _op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        quantiles: Dict[str, Dict[str, float]] = {}
        for name, histogram in self.metrics.histograms().items():
            quantiles[name] = {
                "count": histogram.count,
                "p50": histogram.quantile(0.5),
                "p99": histogram.quantile(0.99),
            }
        with self._lock:
            circuits = {
                key: {
                    "name": c.name,
                    "nodes": len(c),
                    "version": self._versions[key],
                }
                for key, c in self._circuits.items()
            }
            engines = len(self._engines)
            # Aggregate the per-session counters of every warm engine,
            # the maintainer's update/fallback/certificate counts
            # included.
            engine_stats: Dict[str, int] = {}
            for session in self._engines.values():
                for stat_key, value in session.stats_dict().items():
                    if isinstance(value, int):
                        engine_stats[stat_key] = (
                            engine_stats.get(stat_key, 0) + value
                        )
        result: Dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
            "latency": quantiles,
            "admission": self.admission.as_dict(),
            "circuits": circuits,
            "engines": engines,
            "engine": IncrementalEngine.engine,
            "engine_stats": engine_stats,
            "jobs": self.config.jobs,
            "backend": self.config.backend,
            "shared_memory": (
                self._pool.stats() if self._pool is not None else None
            ),
        }
        return result

    def _op_shutdown(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.shutdown_requested.set()
        return {"stopping": True}


__all__ = ["DaemonService", "ServiceConfig"]

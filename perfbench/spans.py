"""Spans around the public entry points of each layer, recorded from outside.

A traced run replaces every entry point in :data:`LAYER_ENTRY_POINTS`
*as its caller looks it up* -- a module global such as
``repro.service.executor.cone_graph`` or a class attribute such as
``SharedConeIndex.extract_region`` -- with a wrapper that records one span
per call, and restores the originals afterwards.  The program under test
is never edited, and an untraced run executes none of this code.

Each span records its name, start, end, parent span and op id.  Spans stay
in memory until the run ends and are written out then.  A layer's self
time is the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

# span record slots
_SEQ, _NAME, _PARENT, _OP, _START, _END, _CHILD, _VALUE = range(8)


def _graph_size(graph) -> int:
    return graph.n


def _region_size(result) -> int:
    return len(result[1])


def _cut_found_pair(result) -> int:
    return 1 if result.flow == 2 and result.cut is not None else 0


def _handle_name(args) -> str:
    return f"daemon.handle.{args[1].op}"


def _handle_op(args) -> Optional[str]:
    return args[1].id


#: ``(module, class or None, attribute, span name, extras)``: one row per
#: entry point, in the form its callers look it up.  ``extras`` may carry
#: ``value`` (a number taken from the result), ``name_of``/``op_of`` (span
#: name and op id taken from the arguments), ``generator`` (the entry point
#: returns an iterator; the span covers draining it) and ``classmethod``.
LAYER_ENTRY_POINTS = [
    ("repro.parsers.bench", None, "loads", "parsers.loads", {}),
    ("repro.service.executor", None, "cone_graph", "graph.cone_graph",
     {"value": _graph_size}),
    ("repro.dominators.shared", None, "cone_graph", "graph.cone_graph",
     {"value": _graph_size}),
    ("repro.graph.indexed", "IndexedGraph", "from_circuit",
     "graph.from_circuit", {"value": _graph_size, "classmethod": True}),
    ("repro.dominators.shared", None, "topo_cone_idoms", "dominators.tree",
     {}),
    ("repro.dominators.shared", None, "circuit_dominator_tree",
     "dominators.tree", {}),
    ("repro.core.algorithm", None, "circuit_dominator_tree",
     "dominators.tree", {}),
    ("repro.incremental.engine", None, "circuit_dominator_tree",
     "dominators.tree", {}),
    ("repro.dominators.shared", "SharedConeIndex", "__init__",
     "dominators.index", {}),
    ("repro.dominators.shared", "SharedConeIndex", "extract_region",
     "dominators.region", {"value": _region_size}),
    ("repro.dominators.kernels", None, "kernel_expand_region",
     "dominators.kernel", {}),
    ("repro.core.algorithm", None, "RegionCutSolver", "flow.cut_setup", {}),
    ("repro.flow.vertex_cut", "RegionCutSolver", "min_cut", "flow.cut",
     {"value": _cut_found_pair}),
    ("repro.core.algorithm", None, "expand_pair", "core.match", {}),
    ("repro.core.algorithm", None, "RegionMatcher", "core.match_setup", {}),
    ("repro.core.algorithm", None, "region_chain_pairs", "core.linear",
     {"generator": True}),
    ("repro.core.algorithm", "ChainComputer", "chain", "core.chain", {}),
    ("repro.core.chain", "DominatorChain", "to_dict", "core.serialize", {}),
    ("repro.incremental.engine", "IncrementalEngine", "apply",
     "incremental.apply", {}),
    ("repro.incremental.engine", "IncrementalEngine", "flush",
     "incremental.flush", {}),
    ("repro.incremental.engine", None, "update_idoms",
     "incremental.idom_update", {}),
    ("repro.incremental.engine", None, "invalidate_dirty",
     "incremental.invalidate", {}),
    ("repro.service.executor", "ParallelExecutor", "sweep_circuit",
     "service.sweep", {}),
    ("repro.service.executor", None, "circuit_fingerprint",
     "service.fingerprint", {}),
    ("repro.daemon.service", None, "circuit_fingerprint",
     "service.fingerprint", {}),
    ("repro.daemon.service", "DaemonService", "handle", "daemon.handle",
     {"name_of": _handle_name, "op_of": _handle_op}),
    ("repro.daemon.shm", "SharedCircuitPool", "publish",
     "daemon.shm_publish", {}),
]


class LayerTotals:
    """Roll-up of one span name: calls, inclusive and self seconds, value."""

    __slots__ = ("calls", "busy", "self", "value")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.value = 0


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.engines: Dict[int, tuple] = {}
        self._seq = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self._suspended = False

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op_id) -> None:
        """Tag the spans this thread records next with ``op_id``."""
        self._local.op = op_id

    def call(self, name: str, fn: Callable, *args, value=None, **kwargs):
        """Run ``fn`` under one span; ``value`` maps its result to a number."""
        if self._suspended:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [
            next(self._seq),
            name,
            parent[_SEQ] if parent is not None else 0,
            getattr(self._local, "op", None),
            0.0,
            0.0,
            0.0,
            0,
        ]
        stack.append(record)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if value is not None:
                record[_VALUE] = value(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            record[_START] = start
            record[_END] = end
            if parent is not None:
                parent[_CHILD] += end - start
            self.spans.append(record)

    def count(self, name: str) -> None:
        if self._suspended:
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def see_engine(self, engine) -> None:
        """Remember an incremental engine and its counters at first sight."""
        if self._suspended or id(engine) in self.engines:
            return
        with self._lock:
            self.engines.setdefault(id(engine), (engine, engine.stats_dict()))

    @contextmanager
    def suspended(self):
        """Record nothing inside the block (correctness checks mid-run)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_path, owner_name, attr, name, extras in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            self._patch(owner, attr, self._wrapper(owner, attr, name, extras))
        self._install_counters()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrapper(self, owner, attr: str, name: str, extras: Dict[str, Any]):
        tracer = self
        value = extras.get("value")
        name_of = extras.get("name_of")
        op_of = extras.get("op_of")
        func = _raw(owner, attr)
        if extras.get("classmethod"):
            func = func.__func__

            @functools.wraps(func)
            def class_wrapper(cls, *args, **kwargs):
                return tracer.call(name, func, cls, *args, value=value, **kwargs)

            return classmethod(class_wrapper)
        if extras.get("generator"):

            def drained(*args, **kwargs):
                return list(func(*args, **kwargs))

            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                return iter(tracer.call(name, drained, *args, **kwargs))

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if op_of is not None:
                tracer.set_op(op_of(args))
            span = name_of(args) if name_of is not None else name
            return tracer.call(span, func, *args, value=value, **kwargs)

        return wrapper

    def _install_counters(self) -> None:
        """Count-only boundaries: region-cache lookups, engine queries."""
        from repro.core.region_cache import RegionCache
        from repro.incremental.engine import IncrementalEngine

        tracer = self
        lookup = RegionCache.__dict__["lookup"]
        engine_chain = IncrementalEngine.__dict__["chain"]
        flush = IncrementalEngine.__dict__["flush"]  # the span wrapper

        @functools.wraps(lookup)
        def counted_lookup(cache, start, sink):
            result = lookup(cache, start, sink)
            tracer.count(
                "core.region_cache_misses"
                if result is None
                else "core.region_cache_hits"
            )
            return result

        @functools.wraps(engine_chain)
        def counted_chain(engine, u):
            tracer.count("incremental.chain_calls")
            return engine_chain(engine, u)

        @functools.wraps(flush)
        def seen_flush(engine):
            tracer.see_engine(engine)
            return flush(engine)

        self._patch(RegionCache, "lookup", counted_lookup)
        self._patch(IncrementalEngine, "chain", counted_chain)
        self._patch(IncrementalEngine, "flush", seen_flush)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, LayerTotals]:
        """Calls, inclusive seconds and self seconds per span name."""
        out: Dict[str, LayerTotals] = {}
        for record in self.spans:
            totals = out.get(record[_NAME])
            if totals is None:
                totals = out[record[_NAME]] = LayerTotals()
            duration = record[_END] - record[_START]
            totals.calls += 1
            totals.busy += duration
            totals.self += duration - record[_CHILD]
            totals.value += record[_VALUE]
        return out

    def durations_by_op(self, name_prefix: str) -> Dict[Any, float]:
        """Inclusive seconds per op id of the spans named ``name_prefix*``."""
        out: Dict[Any, float] = {}
        for record in self.spans:
            if record[_NAME].startswith(name_prefix):
                out[record[_OP]] = out.get(record[_OP], 0.0) + (
                    record[_END] - record[_START]
                )
        return out

    def engine_deltas(self) -> Dict[str, int]:
        """Counter growth of every incremental engine seen while traced."""
        out: Dict[str, int] = {}
        for engine, before in self.engines.values():
            for key, value in engine.stats_dict().items():
                if isinstance(value, int) and isinstance(before.get(key), int):
                    out[key] = out.get(key, 0) + value - before[key]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(["seq", "name", "parent", "op", "start", "end"])
                + "\n"
            )
            for record in sorted(self.spans, key=lambda r: r[_SEQ]):
                handle.write(json.dumps(record[:_CHILD]) + "\n")


def _raw(owner, attr: str):
    """The attribute as stored: class attributes unbound, descriptors kept."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)

"""The incremental dominator engine — stateful sessions over a mutating cone.

The paper closes by noting the algorithm's speed "makes it suitable for
running in an incremental manner during logic synthesis".
:class:`IncrementalEngine` is that serving layer: it owns a live
:class:`~repro.graph.indexed.IndexedGraph`, applies typed edits
(:mod:`repro.incremental.edits`) **in place** (vertex indices of
untouched gates never move), and keeps a cross-edit
:class:`~repro.core.region_cache.RegionCache` of expanded search
regions.  Queries between edits recompute only the regions the edits
could have affected:

* edits are applied eagerly to the graph but dominator state is lazy —
  the dirty set accumulates until the next query ("flush");
* a flush refreshes the single-vertex dominator tree — patched inside
  the edit's affected cone (:mod:`repro.incremental.idom_update`) when
  the cone is small, rebuilt from scratch otherwise — and runs the
  dirty-cone invalidation of :mod:`repro.incremental.invalidate` over
  the region cache (the expensive max-flow expansions are the entries
  being preserved);
* chain queries then run through a regular
  :class:`~repro.core.algorithm.ChainComputer` bound to the surviving
  cache — untouched regions are cache hits, dirty ones recompute.

A failed edit (unknown name, cycle, removing the root) raises before or
mid-way through a batch; already-applied elementary operations of that
batch stay applied — replay scripts should be validated with
``dry_run`` if all-or-nothing behaviour matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Union

from ..core.algorithm import ChainComputer
from ..core.chain import DominatorChain
from ..core.region_cache import CacheStats, RegionCache
from ..dominators.dynamic import (
    EDGE_ADD,
    EDGE_REMOVE,
    VERTEX_ADD,
    VERTEX_REMOVE,
    DynamicDominators,
    certify_tree,
    validate_engine,
)
from ..dominators.shared import DEFAULT_BACKEND, validate_backend
from ..dominators.single import circuit_dominator_tree
from ..dominators.tree import DominatorTree
from ..errors import CircuitError
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from .edits import AddGate, Edit, RemoveGate, ReplaceSubgraph, Rewire
from .idom_update import affected_cone, downstream_of, update_idoms
from .invalidate import invalidate_dirty


@dataclass
class EngineStats:
    """Session counters, cheap enough to read at any time.

    ``cache`` aliases the live :class:`CacheStats` of the region cache,
    so hit/miss counts are always current.
    """

    edits: int = 0  # edit records applied (a ReplaceSubgraph counts once)
    operations: int = 0  # elementary graph mutations
    flushes: int = 0  # dominator-state refreshes (one per dirty query)
    tree_patches: int = 0  # flushes served by the dirty-cone idom update
    tree_rebuilds: int = 0  # flushes that fell back to a full rebuild
    dynamic_updates: int = 0  # flushes served by the dynamic maintainer
    dynamic_fallbacks: int = 0  # dynamic flushes over the region threshold
    certificate_checks: int = 0  # low-high certificate runs
    evictions: int = 0  # cache entries dropped by edit invalidation
    chain_hits: int = 0  # queries served by an already-assembled chain
    cache: CacheStats = field(default_factory=CacheStats)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "edits": self.edits,
            "operations": self.operations,
            "flushes": self.flushes,
            "tree_patches": self.tree_patches,
            "tree_rebuilds": self.tree_rebuilds,
            "dynamic_updates": self.dynamic_updates,
            "dynamic_fallbacks": self.dynamic_fallbacks,
            "certificate_checks": self.certificate_checks,
            "evictions": self.evictions,
            "chain_hits": self.chain_hits,
        }
        data.update(self.cache.as_dict())
        return data


class IncrementalEngine:
    """A stateful dominator-chain session over one output cone.

    Parameters
    ----------
    graph:
        The cone to serve.  The engine edits this object **in place**;
        hand it a private copy if the original must stay pristine.
    algorithm:
        Single-dominator algorithm for tree rebuilds (``"lt"``,
        ``"iterative"`` or ``"naive"``).
    backend:
        Chain-construction backend handed to every
        :class:`~repro.core.algorithm.ChainComputer` the engine builds
        (``"linear"`` default, ``"shared"`` max-flow, ``"legacy"`` for
        the reference path).  Cached region entries are
        backend-agnostic — every backend produces identical member
        orderings — so a session's cache survives any choice.
    engine:
        Dominator-maintenance strategy for flushes.  ``"patch"``
        (default) is the original dirty-cone idom patch with
        full-rebuild fallback; ``"dynamic"`` keeps a
        :class:`~repro.dominators.dynamic.DynamicDominators` maintainer
        updated in place from the edit stream — no full-graph pass per
        flush — with a static rebuild only when the affected region
        exceeds its threshold.  Both engines serve bit-identical chains.
    metrics:
        Optional :class:`repro.service.metrics.MetricsRegistry`.  The
        dynamic engine counts ``dynamic.updates``,
        ``dynamic.fallback_rebuilds`` and ``dynamic.certificate_checks``
        and observes ``dynamic.affected_region_size`` per batch.

    Examples
    --------
    >>> from repro.circuits.figures import figure2_circuit
    >>> from repro.incremental import IncrementalEngine, Rewire
    >>> engine = IncrementalEngine.from_circuit(figure2_circuit())
    >>> chain = engine.chain("u")          # cold query, fills the cache
    >>> engine.apply(Rewire("k", ("e", "h")))
    >>> engine.chain("u").num_dominators() >= 0   # re-query after the edit
    True
    """

    def __init__(
        self,
        graph: IndexedGraph,
        algorithm: str = "lt",
        backend: str = DEFAULT_BACKEND,
        engine: str = "patch",
        metrics=None,
    ):
        self.graph = graph
        self.algorithm = algorithm
        self.backend = validate_backend(backend)
        self.engine = validate_engine(engine)
        self.metrics = metrics
        self.cache = RegionCache()
        self.gate_types: Dict[str, str] = {}
        self.log: List[Edit] = []
        #: Callbacks fired once per successful :meth:`apply` call that
        #: touched the graph — the hook external caches key on.  The
        #: service layer registers
        #: ``ArtifactStore.listener_for(circuit_key)`` here so on-disk
        #: artifacts version-invalidate in step with edits.
        self._edit_listeners: List = []
        self.stats = EngineStats(cache=self.cache.stats)
        self._dirty: Set[int] = set()
        self._computer: Optional[ChainComputer] = None
        self._tree = None  # DominatorTree (patch) or DynamicTree (dynamic)
        # Dynamic engine state: the maintainer is built lazily on the
        # first flush; elementary edge/vertex deltas queue up between
        # flushes and are folded in as one coalesced batch per cone.
        self._maintainer: Optional[DynamicDominators] = None
        self._deltas: List[tuple] = []
        self._record_deltas = self.engine == "dynamic"
        # assembled-chain cache: u -> (chain, its region cells at assembly
        # time).  A cell is (start, RegionEntry-identity); the chain is
        # valid while the tree chain visits the same cells and every cell
        # still holds the very same entry object (entries are immutable
        # and replaced wholesale, so identity is a validity token).  A
        # single-fanout cell is never expanded (ChainComputer skips it),
        # so it is recorded with entry ``None`` and stays valid while its
        # start still has exactly one fanout.
        self._chains: Dict[int, tuple] = {}

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        output: Optional[str] = None,
        algorithm: str = "lt",
        backend: str = DEFAULT_BACKEND,
        engine: str = "patch",
        metrics=None,
    ) -> "IncrementalEngine":
        """Open a session on one output cone of a netlist."""
        graph = IndexedGraph.from_circuit(circuit, output)
        engine = cls(graph, algorithm, backend=backend, engine=engine, metrics=metrics)
        for name in graph.names:
            if name is not None and name in circuit:
                engine.gate_types[name] = circuit.node(name).type.value
        return engine

    # ------------------------------------------------------------------
    # edits
    # ------------------------------------------------------------------
    def apply(self, *edits: Edit) -> List[int]:
        """Apply edit records in order; returns the touched vertex indices.

        Dominator state is not recomputed here — the next query pays one
        tree rebuild plus recomputation of the invalidated regions only.

        A failing edit mid-batch leaves the earlier edits applied (see
        the module docstring); the vertices they touched are still folded
        into the dirty set before the exception propagates, so subsequent
        queries never serve dominator state computed for the pre-batch
        graph.
        """
        touched: Set[int] = set()
        try:
            for edit in edits:
                self._apply_one(edit, touched)
                self.log.append(edit)
                self.stats.edits += 1
        finally:
            if touched:
                self._dirty |= touched
                self._computer = None
                for listener in self._edit_listeners:
                    listener()
        return sorted(touched)

    def add_edit_listener(self, callback) -> None:
        """Register a zero-argument callback fired after mutating edits.

        Listeners run after the graph changed but before any dominator
        state is refreshed; exceptions propagate to the ``apply``
        caller.  Used by :class:`repro.service.ArtifactStore` to bump
        its version counter for this circuit.
        """
        self._edit_listeners.append(callback)

    def _apply_one(self, edit: Edit, touched: Set[int]) -> None:
        graph = self.graph
        record = self._deltas.append if self._record_deltas else None
        if isinstance(edit, AddGate):
            fanins = [graph.index_of(f) for f in edit.fanins]
            v = graph.add_vertex(edit.name)
            if record is not None:
                record((VERTEX_ADD, v))
            for f in fanins:
                graph.add_edge(f, v)
                if record is not None:
                    record((EDGE_ADD, f, v))
            touched.add(v)
            touched.update(fanins)
            self.gate_types[edit.name] = edit.gate_type
            self.stats.operations += 1 + len(fanins)
        elif isinstance(edit, RemoveGate):
            v = graph.index_of(edit.name)
            old_preds = list(graph.pred[v]) if record is not None else ()
            old_succs = list(graph.succ[v]) if record is not None else ()
            touched.update(graph.kill_vertex(v))
            if record is not None:  # only after the kill succeeded
                for p in old_preds:
                    record((EDGE_REMOVE, p, v))
                for s in old_succs:
                    record((EDGE_REMOVE, v, s))
                record((VERTEX_REMOVE, v))
            self.gate_types.pop(edit.name, None)
            self.stats.operations += 1
        elif isinstance(edit, Rewire):
            v = graph.index_of(edit.name)
            fanins = [graph.index_of(f) for f in edit.fanins]
            old_preds = list(graph.pred[v]) if record is not None else ()
            touched.update(graph.set_fanins(v, fanins))
            if record is not None:  # only after the rewire succeeded
                for p in old_preds:
                    record((EDGE_REMOVE, p, v))
                for f in fanins:
                    record((EDGE_ADD, f, v))
            if edit.gate_type is not None:
                self.gate_types[edit.name] = edit.gate_type
            self.stats.operations += 1
        elif isinstance(edit, ReplaceSubgraph):
            # Sub-edits share this record's log entry and dirty set.
            for name in edit.remove:
                self._apply_one(RemoveGate(name), touched)
            for gate in edit.add:
                self._apply_one(gate, touched)
            for rewire in edit.rewire:
                self._apply_one(rewire, touched)
        else:
            raise CircuitError(f"not an edit: {edit!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Refresh dominator state now (queries do this automatically)."""
        if self._computer is not None and not self._dirty:
            return
        if self.engine == "dynamic":
            self._flush_dynamic()
            return
        tree: Optional[DominatorTree] = None
        cone = downstream = None
        if self._dirty:
            cone = affected_cone(self.graph, self._dirty)
            downstream = downstream_of(self.graph, self._dirty)
            if self._tree is not None:
                idoms = update_idoms(
                    self.graph, self._tree.idom, self._dirty, cone=cone
                )
                if idoms is not None:
                    tree = DominatorTree(idoms, self.graph.root)
                    self.stats.tree_patches += 1
        if tree is None:
            tree = circuit_dominator_tree(self.graph, self.algorithm)
            self.stats.tree_rebuilds += 1
        if self._dirty:
            self.stats.evictions += invalidate_dirty(
                self.cache, self.graph, tree, self._dirty, cone, downstream
            )
            self._dirty.clear()
        self._tree = tree
        self._computer = ChainComputer(
            self.graph,
            self.algorithm,
            tree=tree,
            region_cache=self.cache,
            backend=self.backend,
        )
        self.stats.flushes += 1

    def _flush_dynamic(self) -> None:
        """Dynamic-engine flush: fold queued deltas into the maintainer.

        Unlike the patch path this never pays a full-graph pass when the
        affected region is small: the maintainer updates its arrays in
        place, the live :class:`~repro.dominators.dynamic.DynamicTree`
        view is reused as-is, and the :class:`ChainComputer` is built
        with ``shared_index=False`` so no per-version cone index is
        rebuilt either.  The region the maintainer reports doubles as
        the invalidation cone for the region cache.
        """
        deltas, self._deltas = self._deltas, []
        cone = None
        if self._maintainer is None:
            # First flush: one static build over the current graph
            # (any edits queued before it are already in the graph).
            self._maintainer = DynamicDominators(self.graph)
            self.stats.tree_rebuilds += 1
        elif deltas:
            cone = self._maintainer.apply_batch(deltas)
            if cone is None:
                self.stats.dynamic_fallbacks += 1
                self.stats.tree_rebuilds += 1
                if self.metrics is not None:
                    self.metrics.inc("dynamic.fallback_rebuilds")
            else:
                self.stats.dynamic_updates += 1
                if self.metrics is not None:
                    self.metrics.inc("dynamic.updates")
                    self.metrics.observe(
                        "dynamic.affected_region_size", len(cone)
                    )
        elif self._dirty:
            # Dirty vertices with no recorded deltas means the graph was
            # mutated behind the engine's back; resync defensively.
            self._maintainer.rebuild()
            self.stats.dynamic_fallbacks += 1
            self.stats.tree_rebuilds += 1
        tree = self._maintainer.tree
        if self._dirty:
            downstream = downstream_of(self.graph, self._dirty)
            self.stats.evictions += invalidate_dirty(
                self.cache, self.graph, tree, self._dirty, cone, downstream
            )
            self._dirty.clear()
        self._tree = tree
        self._computer = ChainComputer(
            self.graph,
            self.algorithm,
            tree=tree,
            region_cache=self.cache,
            backend=self.backend,
            shared_index=False,
        )
        self.stats.flushes += 1

    def check_certificate(self) -> List[str]:
        """Run the O(n + m) low-high certificate on the current tree.

        Builds a low-high order of the flushed dominator tree and
        verifies the ancestor property, exact reachability span and the
        low-high condition (:mod:`repro.dominators.dynamic.lowhigh`).
        An empty list *proves* the tree is the dominator tree of the
        live graph, regardless of which engine maintained it — this is
        the fourth :mod:`repro.check` oracle, run after every edit
        batch in the fuzzer's incremental cases and the daemon's edit
        path.
        """
        self.flush()
        assert self._computer is not None
        if self._maintainer is not None:
            violations = self._maintainer.certificate()
        else:
            violations = certify_tree(self.graph, self._computer.tree.idom)
        self.stats.certificate_checks += 1
        if self.metrics is not None:
            self.metrics.inc("dynamic.certificate_checks")
            if violations:
                self.metrics.inc("dynamic.certificate_failures")
        return violations

    def stats_dict(self) -> Dict[str, object]:
        """Engine counters plus maintainer counters, one flat dict."""
        data = self.stats.as_dict()
        data["engine"] = self.engine
        if self._maintainer is not None:
            data.update(self._maintainer.stats.as_dict())
        return data

    @property
    def tree(self):
        """The current dominator tree (flushes if stale).

        A :class:`~repro.dominators.tree.DominatorTree` under
        ``engine="patch"``; the live
        :class:`~repro.dominators.dynamic.DynamicTree` view under
        ``engine="dynamic"`` (same query surface).
        """
        self.flush()
        assert self._computer is not None
        return self._computer.tree

    def resolve(self, u: Union[int, str]) -> int:
        """Vertex index of ``u`` (name or index)."""
        return self.graph.index_of(u) if isinstance(u, str) else u

    def chain(self, u: Union[int, str]) -> DominatorChain:
        """The dominator chain ``D(u)`` on the current circuit state.

        Served from the assembled-chain cache when every region cell of
        the chain survived all edits since assembly; the returned object
        is shared between such queries and must be treated as read-only.
        """
        self.flush()
        assert self._computer is not None
        u = self.resolve(u)
        cells = self._computer.tree.chain(u)
        succ = self.graph.succ
        entry_for = self.cache.entry_for
        cached = self._chains.get(u)
        if cached is not None:
            chain, deps = cached
            if len(deps) == len(cells) - 1 and all(
                start == cell
                and (
                    len(succ[start]) == 1
                    if entry is None
                    else entry_for(start) is entry
                )
                for (start, entry), cell in zip(deps, cells)
            ):
                self.stats.chain_hits += 1
                return chain
        chain = self._computer.chain(u)
        deps = tuple((s, entry_for(s)) for s in cells[:-1])
        self._chains[u] = (chain, deps)
        return chain

    def chains_for_sources(self) -> Dict[int, DominatorChain]:
        """Chains of every live, root-reaching primary input."""
        self.flush()
        assert self._computer is not None
        tree = self._computer.tree
        return {
            u: self.chain(u)
            for u in self.graph.sources()
            if tree.is_reachable(u)
        }

    def dominates(
        self, v1: Union[int, str], v2: Union[int, str], u: Union[int, str]
    ) -> bool:
        """O(1)-per-query check after the chain of ``u`` is (re)built."""
        return self.chain(u).dominates(self.resolve(v1), self.resolve(v2))

    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        alive = self.graph.n - len(self.graph.dead)
        return (
            f"IncrementalEngine(vertices={alive}, edits={self.stats.edits}, "
            f"cache_entries={len(self.cache)}, {self.cache.stats})"
        )

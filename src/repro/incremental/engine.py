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

* edits are applied eagerly to the graph and recorded as elementary
  edge/vertex deltas, but dominator state is lazy — the deltas
  accumulate until the next query ("flush");
* a flush folds the queued deltas into a
  :class:`~repro.dominators.dynamic.DynamicDominators` maintainer in one
  coalesced batch (:func:`update_idoms`), which re-folds the immediate
  dominators of the affected region in place and rebuilds statically
  only when that region exceeds its threshold;
* the region the maintainer reports doubles as the invalidation cone
  for the dirty-set eviction of :mod:`repro.incremental.invalidate`
  over the region cache;
* chain queries then run through a regular
  :class:`~repro.core.algorithm.ChainComputer` bound to the surviving
  cache — untouched regions are cache hits, dirty ones recompute.

:meth:`IncrementalEngine.check_certificate` proves the maintained tree
correct with the O(n + m) low-high certificate; the daemon runs it after
every served edit.

A failed edit (unknown name, cycle, removing the root) raises before or
mid-way through a batch; already-applied elementary operations of that
batch stay applied — replay scripts should be validated with
``dry_run`` if all-or-nothing behaviour matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from ..core.algorithm import ChainComputer
from ..core.chain import DominatorChain
from ..core.region_cache import CacheStats, RegionCache
from ..dominators.dynamic import (
    EDGE_ADD,
    EDGE_REMOVE,
    VERTEX_ADD,
    VERTEX_REMOVE,
    DynamicDominators,
)
from ..dominators.shared import DEFAULT_BACKEND, validate_backend

# Not called here since the engine maintains its tree dynamically; kept
# importable because the benchmark tracer (perfbench/spans.py) wraps
# ``repro.incremental.engine.circuit_dominator_tree`` by name.
from ..dominators.single import circuit_dominator_tree  # noqa: F401
from ..errors import CircuitError
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from .edits import AddGate, Edit, RemoveGate, ReplaceSubgraph, Rewire
from .invalidate import downstream_of, invalidate_dirty


def update_idoms(
    maintainer: DynamicDominators, deltas: Sequence[tuple]
) -> Optional[Set[int]]:
    """Fold one flush's queued deltas into the maintained dominator tree.

    The single step through which every flush after the first updates
    the tree.  Returns the affected region the maintainer re-folded — the
    invalidation cone for the region cache — or ``None`` when the region
    exceeded the maintainer's threshold and it rebuilt statically.
    """
    return maintainer.apply_batch(deltas)


@dataclass
class EngineStats:
    """Session counters, cheap enough to read at any time.

    ``cache`` aliases the live :class:`CacheStats` of the region cache,
    so hit/miss counts are always current.
    """

    edits: int = 0  # edit records applied (a ReplaceSubgraph counts once)
    operations: int = 0  # elementary graph mutations
    flushes: int = 0  # dominator-state refreshes (one per dirty query)
    tree_rebuilds: int = 0  # static builds: the first flush plus fallbacks
    dynamic_updates: int = 0  # flushes served by the in-place update
    dynamic_fallbacks: int = 0  # flushes over the region threshold
    certificate_checks: int = 0  # low-high certificate runs
    evictions: int = 0  # cache entries dropped by edit invalidation
    chain_hits: int = 0  # queries served by an already-assembled chain
    cache: CacheStats = field(default_factory=CacheStats)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "edits": self.edits,
            "operations": self.operations,
            "flushes": self.flushes,
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
    backend:
        Chain-construction backend handed to every
        :class:`~repro.core.algorithm.ChainComputer` the engine builds
        (``"linear"`` default, ``"shared"`` max-flow, ``"legacy"`` for
        the reference path).  Cached region entries are
        backend-agnostic — every backend produces identical member
        orderings — so a session's cache survives any choice.
    metrics:
        Optional :class:`repro.service.metrics.MetricsRegistry`.  The
        engine counts ``dynamic.updates``,
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

    #: The dominator-maintenance strategy, reported in :meth:`stats_dict`.
    #: Read-only: the dynamic maintainer is the only one.
    engine = "dynamic"

    def __init__(
        self,
        graph: IndexedGraph,
        backend: str = DEFAULT_BACKEND,
        metrics=None,
    ):
        self.graph = graph
        self.backend = validate_backend(backend)
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
        # The maintainer is built lazily on the first flush; elementary
        # edge/vertex deltas queue up between flushes and are folded in
        # as one coalesced batch per cone.
        self._maintainer: Optional[DynamicDominators] = None
        self._deltas: List[tuple] = []
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
        backend: str = DEFAULT_BACKEND,
        metrics=None,
    ) -> "IncrementalEngine":
        """Open a session on one output cone of a netlist."""
        graph = IndexedGraph.from_circuit(circuit, output)
        engine = cls(graph, backend=backend, metrics=metrics)
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
        tree update plus recomputation of the invalidated regions only.

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
        record = self._deltas.append
        if isinstance(edit, AddGate):
            fanins = [graph.index_of(f) for f in edit.fanins]
            v = graph.add_vertex(edit.name)
            record((VERTEX_ADD, v))
            for f in fanins:
                graph.add_edge(f, v)
                record((EDGE_ADD, f, v))
            touched.add(v)
            touched.update(fanins)
            self.gate_types[edit.name] = edit.gate_type
            self.stats.operations += 1 + len(fanins)
        elif isinstance(edit, RemoveGate):
            v = graph.index_of(edit.name)
            old_preds = list(graph.pred[v])
            old_succs = list(graph.succ[v])
            touched.update(graph.kill_vertex(v))
            # Recorded only after the kill succeeded.
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
            old_preds = list(graph.pred[v])
            touched.update(graph.set_fanins(v, fanins))
            # Recorded only after the rewire succeeded.
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
        """Refresh dominator state now (queries do this automatically).

        Folds the queued deltas into the maintainer, which updates its
        arrays in place: no full-graph pass when the affected region is
        small.  The live :class:`~repro.dominators.dynamic.DynamicTree`
        view is reused as-is, and the :class:`ChainComputer` is built
        with ``shared_index=False`` so no per-version cone index is
        rebuilt either.  The region the maintainer reports doubles as
        the invalidation cone for the region cache.
        """
        if self._computer is not None and not self._dirty:
            return
        deltas, self._deltas = self._deltas, []
        cone = None
        if self._maintainer is None:
            # First flush: one static build over the current graph
            # (any edits queued before it are already in the graph).
            self._maintainer = DynamicDominators(self.graph)
            self.stats.tree_rebuilds += 1
        elif deltas:
            cone = update_idoms(self._maintainer, deltas)
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
        self._computer = ChainComputer(
            self.graph,
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
        live graph — this is the fourth :mod:`repro.check` oracle, run
        after every edit batch in the fuzzer's incremental cases and
        after every served edit in the daemon.
        """
        self.flush()
        assert self._maintainer is not None
        violations = self._maintainer.certificate()
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

        The maintainer's live
        :class:`~repro.dominators.dynamic.DynamicTree` view, with the
        query surface of :class:`~repro.dominators.tree.DominatorTree`.
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

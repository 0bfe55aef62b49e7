"""DOMINATORCHAIN — the paper's main algorithm (Figure 3).

The driver walks the single-dominator chain of the target *u* (outer
while-loop), and inside each search region repeatedly calls DOUBLEIDOM to
find the next immediate pair, expands it to the full ``{V_1k, V_2k}``
vectors (:mod:`repro.core.matching`), re-seeds the flow search with the
pair's last elements, and finally assembles the
:class:`~repro.core.chain.DominatorChain` with globally numbered indices.

:class:`ChainComputer` additionally caches per-region results: a search
region depends only on its entry vertex (a single dominator of *u*), not on
*u* itself, so when chains are computed for *all* primary inputs of a cone
(the paper's Table 1 workload) each region is expanded exactly once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..dominators import kernels as _kernels
from ..dominators.linear import ConeScratch, region_chain_pairs
from ..dominators.shared import (
    DEFAULT_BACKEND,
    ConeView,
    RegionMatcher,
    SharedConeIndex,
    validate_backend,
)
from ..dominators.single import circuit_dominator_tree
from ..dominators.tree import DominatorTree
from ..flow.vertex_cut import RegionCutSolver
from ..graph.indexed import IndexedGraph
from .chain import ChainPair, DominatorChain, RegionRecord, check_region_pairs
from .double_idom import double_idom
from .matching import expand_pair
from ..graph.transform import region_between
from .region_cache import CacheStats, RegionCache, RegionPair
from .regions import SearchRegion


def _expand_region(
    region: SearchRegion,
    algorithm: str,
    backend: str = "legacy",
) -> List[RegionPair]:
    """All chain pairs inside one search region, in chain order.

    The DOUBLEIDOM loop of the ``shared`` and ``legacy`` backends; the
    ``linear`` backend never extracts a region and calls
    :func:`~repro.dominators.linear.region_chain_pairs` on the cone
    instead.
    """
    if region.is_trivial:
        # Fewer than two interior vertices: no size-two cut can exist, so
        # the region contributes no pairs.  ChainComputer already skips
        # the single-fanout edge regions; this catches the rest.
        return []
    results: List[RegionPair] = []
    sources = [region.local_start]
    if backend == "shared":
        solver = RegionCutSolver(region.graph, limit=3)
        matcher = RegionMatcher(region.graph)
    else:
        solver = None
        matcher = None
    while True:
        if solver is not None:
            # One split network per region, reused across DOUBLEIDOM
            # calls; same deterministic source-nearest cut as double_idom.
            result = solver.min_cut(sources)
            immediate = (
                tuple(result.cut)
                if result.flow == 2 and result.cut is not None
                else None
            )
        else:
            immediate = double_idom(region.graph, sources)
        if immediate is None:
            break
        expanded = expand_pair(
            region.graph,
            immediate[0],
            immediate[1],
            algorithm,
            backend,
            matcher=matcher,
        )
        side1 = [region.orig_of[x] for x in expanded.side1]
        side2 = [region.orig_of[x] for x in expanded.side2]
        intervals = {
            region.orig_of[x]: interval
            for x, interval in expanded.intervals.items()
        }
        results.append((side1, side2, intervals))
        sources = [expanded.side1[-1], expanded.side2[-1]]
    return results


class ChainComputer:
    """Computes dominator chains for many targets of one cone.

    Parameters
    ----------
    graph:
        Single-output cone in signal orientation: an
        :class:`~repro.graph.indexed.IndexedGraph`, or a
        :class:`~repro.dominators.shared.ConeView` of a whole circuit's
        arrays.  Over a view, targets and chains are in cone-local ids
        (the same ids and the same chains as over the materialized
        cone); the linear pass runs on circuit ids, each region record
        comes from the view's sweep-wide ``(entry, sink)`` table, and a
        record is renumbered into cone-local ids once per cone.  A view
        takes only the defaults of ``backend``, ``kernels``,
        ``cache_regions``, ``region_cache``, ``tree`` and
        ``shared_index``.
    algorithm:
        Single-dominator algorithm used internally (``"lt"``,
        ``"iterative"`` or ``"naive"``).
    cache_regions:
        Reuse expanded regions across targets.  A region is identified by
        its entry vertex; disabling the cache re-runs the flow search for
        every target exactly as a literal reading of Figure 3 would.
    region_cache:
        An external :class:`~repro.core.region_cache.RegionCache` to use
        instead of a private one.  This is the incremental-engine hook:
        the cache can outlive this computer (and the dominator tree it
        was built against), so expansions survive circuit edits until
        explicitly invalidated.  Ignored when ``cache_regions`` is false.
    metrics:
        Optional :class:`repro.service.metrics.MetricsRegistry` (any
        object with ``inc(name)``/``observe(name, value)``).  When set,
        every :meth:`chain` call observes its wall time under
        ``core.chain_seconds`` and counts ``core.chains_computed`` and
        ``core.region_expansions`` (over a view: distinct regions of the
        sweep) — the serving layer's view into the algorithmic hot path.
    backend:
        ``"linear"`` (default, the production path) builds every pair
        of a region in one linear pass over the cone's own arrays
        (:mod:`repro.dominators.linear`), with no region extraction;
        ``"shared"`` extracts regions from one per-version array index
        (:mod:`repro.dominators.shared`) and runs per-pair max-flow and
        per-element restricted-graph ``C − v`` chains over them;
        ``"legacy"`` keeps the original per-call subgraph copies.  All
        three produce identical chains (the differential oracle
        cross-checks them) — legacy exists as the reference
        implementation.
    shared_index:
        Set ``False`` to skip building the per-version
        :class:`~repro.dominators.shared.SharedConeIndex` (identical
        chains, no O(n + m) setup): ``linear`` then runs its pass with a
        scratch of this computer's own, the other backends extract each
        region on demand — the mode the dynamic incremental engine runs
        in, where the graph version changes every flush.  Requires
        ``tree`` to be supplied for the shared/linear backends to stay
        O(1) to build.
    kernels:
        ``"python"`` (default) keeps every pass on the pure-python hot
        path; ``"numpy"`` switches the cone tree pass to the metered
        sweep and regions at least
        :data:`repro.dominators.kernels.MIN_KERNEL_REGION` wide to the
        flat-array kernels (:mod:`repro.dominators.kernels`) — region
        extraction, min cut and matching vectors all vectorized —
        whichever of ``shared``/``linear`` handles the narrow ones.
        Chains are bit-identical either way; the differential oracle
        cross-checks them.  Requires the shared index (and numpy).
    """

    #: Cone pre-filter, reported by the benchmark's config line.
    #: Read-only: every chain is computed, with no pre-filter.
    prefilter = "none"

    def __init__(
        self,
        graph: IndexedGraph,
        algorithm: str = "lt",
        cache_regions: bool = True,
        tree: Optional[DominatorTree] = None,
        region_cache: Optional[RegionCache] = None,
        metrics=None,
        backend: str = DEFAULT_BACKEND,
        shared_index: bool = True,
        kernels: str = "python",
    ):
        self.graph = graph
        self.algorithm = algorithm
        self.cache_regions = cache_regions
        self.metrics = metrics
        self.backend = validate_backend(backend)
        self.kernels = _kernels.validate_kernels(kernels)
        #: Over a view: start -> this cone's renumbered region record
        #: (``None`` for a region without pairs).
        self._records: Optional[Dict[int, Optional[RegionRecord]]] = None
        if isinstance(graph, ConeView):
            if (
                backend != "linear"
                or kernels != "python"
                or not cache_regions
                or region_cache is not None
                or tree is not None
                or not shared_index
            ):
                raise ValueError(
                    "a cone view runs the linear pass on python with its "
                    "sweep's region table; pass no other options"
                )
            self._records = {}
            self._index = None
            self._scratch = graph.work.scratch
            self._tree = None
            self.region_cache = None
            return
        if kernels == "numpy":
            _kernels.require_numpy()
            if not shared_index or backend not in ("shared", "linear"):
                raise ValueError(
                    "kernels='numpy' needs the shared cone index "
                    "(shared_index=True and backend 'shared' or "
                    "'linear')"
                )
        # The linear backend reuses the shared index for the cone
        # dominator tree and the cone's scratch arrays; its regions are
        # never extracted.  ``shared_index=False`` skips the index: it is
        # an O(n + m) build keyed on the graph version, which the dynamic
        # incremental engine cannot afford once per flush.  The other
        # backends then extract regions per query with
        # ``region_between``, the linear pass walks the cone with a
        # scratch of the computer's own.  Every path orders ties by cone
        # id, so chains stay bit-identical.
        self._index = (
            SharedConeIndex.for_graph(graph, algorithm, kernels)
            if shared_index and backend in ("shared", "linear")
            else None
        )
        self._scratch: Optional[ConeScratch] = None
        if backend == "linear":
            self._scratch = (
                self._index.scratch
                if self._index is not None
                else ConeScratch()
            )
        if tree is not None:
            self._tree: Optional[DominatorTree] = tree
        elif self._index is not None:
            self._tree = self._index.tree
        else:
            self._tree = None  # built on first access
        self.region_cache: Optional[RegionCache] = (
            (region_cache if region_cache is not None else RegionCache())
            if cache_regions
            else None
        )

    @property
    def tree(self) -> DominatorTree:
        """The cone's dominator tree (built lazily without an index)."""
        if self._tree is None:
            if self._records is not None:
                self._tree = self.graph.tree()
            else:
                self._tree = circuit_dominator_tree(
                    self.graph, self.algorithm
                )
        return self._tree

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/invalidation counters of the region cache.

        With ``cache_regions=False`` a fresh all-zero record is returned.
        """
        if self.region_cache is None:
            return CacheStats()
        return self.region_cache.stats

    @property
    def _region_cache(self) -> Dict[int, List[ChainPair]]:
        """Legacy ``{start: pairs}`` view of the cache (read-only)."""
        if self.region_cache is None:
            return {}
        return self.region_cache.pairs_by_start()

    def chain(self, u: int) -> DominatorChain:
        """The dominator chain ``D(u)`` (empty for the root)."""
        if self.metrics is None:
            return self._chain(u)
        start = time.perf_counter()
        result = self._chain(u)
        self.metrics.observe("core.chain_seconds", time.perf_counter() - start)
        self.metrics.inc("core.chains_computed")
        return result

    def _chain(self, u: int) -> DominatorChain:
        if self._records is not None:
            return self._view_chain(u)
        chain_vertices = self.tree.chain(u)
        succ = self.graph.succ
        cache = self.region_cache
        regions: List[RegionRecord] = []
        for start, sink in zip(chain_vertices, chain_vertices[1:]):
            if len(succ[start]) == 1:
                # Single fanout: the only successor lies on every path to
                # the root, so it is ``sink``.  The region is the bare
                # start→sink edge and holds no pair; skip it before any
                # cache lookup or extraction.
                continue
            if cache is not None:
                entry = cache.lookup(start, sink)
                if entry is not None:
                    if entry.pairs:
                        regions.append((entry.pairs, entry.intervals))
                    continue
            members, expanded = self._expand(start, sink)
            # Every fresh region is checked once, before it is stored or
            # used; chains composed from checked regions need only the
            # cross-region count check of ``from_regions``.
            pairs, intervals = check_region_pairs(expanded)
            if self.metrics is not None:
                self.metrics.inc("core.region_expansions")
            if cache is not None:
                cache.store(start, sink, members, pairs, intervals)
            if pairs:
                regions.append((pairs, intervals))
        return DominatorChain.from_regions(u, regions)

    def _view_chain(self, u: int) -> DominatorChain:
        """``D(u)`` over a cone view: the idom walk of :meth:`_chain` in
        circuit ids, composed from this cone's renumbered records."""
        view = self.graph
        view.require_current()
        work = view.work
        idom, outdeg = work.idom, work.outdeg
        records = self._records
        root = view.root
        regions: List[RegionRecord] = []
        start = view.members[u]
        while start != root:
            sink = idom[start]
            # Single fanout in the cone: the bare start→sink edge.
            if outdeg[start] != 1:
                record = records.get(start, False)
                if record is False:
                    record = records[start] = self._view_record(start, sink)
                if record is not None:
                    regions.append(record)
            start = sink
        return DominatorChain.from_regions(u, regions)

    def _view_record(self, start: int, sink: int) -> Optional[RegionRecord]:
        """The region ``start → sink`` in cone-local ids, or ``None``.

        The circuit-id record is computed and checked once per sweep;
        every cone that holds the region renumbers the shared record.
        """
        view = self.graph
        table = view.work.regions
        key = (start, sink)
        record = table.get(key)
        if record is None:
            _members, expanded = region_chain_pairs(
                view, start, sink, self._scratch
            )
            record = table[key] = check_region_pairs(expanded)
            if self.metrics is not None:
                self.metrics.inc("core.region_expansions")
        pairs, intervals = record
        if not pairs:
            return None
        local = view.work.local
        return (
            tuple(
                ChainPair(
                    tuple([local[v] for v in pair.side1]),
                    tuple([local[v] for v in pair.side2]),
                )
                for pair in pairs
            ),
            {local[v]: interval for v, interval in intervals.items()},
        )

    def _expand(self, start: int, sink: int):
        """``(members, pairs)`` of the region ``start → sink``, unchecked."""
        if self.kernels == "numpy":
            expanded = self._kernel_region(start, sink)
            if expanded is not None:
                if self.metrics is not None:
                    self.metrics.inc("core.kernel_regions")
                return expanded
        if self._scratch is not None:
            return region_chain_pairs(self.graph, start, sink, self._scratch)
        if self._index is not None:
            view, members, local_start = self._index.extract_region(start, sink)
            region = SearchRegion(
                start=start,
                sink=sink,
                graph=view,
                orig_of=members,
                local_start=local_start,
            )
        else:
            sub, members = region_between(self.graph, start, sink)
            region = SearchRegion(
                start=start,
                sink=sink,
                graph=sub,
                orig_of=members,
                local_start=members.index(start),
            )
        return members, _expand_region(region, self.algorithm, self.backend)

    def _kernel_region(self, start: int, sink: int):
        """Expand one region on the numpy kernels, or ``None`` to punt.

        The cheap pre-check uses the original-id window: ids are
        topological, so the region is confined to ``[start, sink]`` and
        a window below ``MIN_KERNEL_REGION`` cannot contain a region
        worth vectorizing — crucially, deciding this needs *no* kernel
        index, so cones whose chain regions are all narrow never build
        one.  Past it, the precise level-order window gates the
        expensive path, and a mean level width below
        ``MIN_KERNEL_LEVEL_WIDTH`` punts deep-and-narrow regions back
        to the interpreter (the bitset byte cap, by contrast, is the
        matcher's own concern — it degrades to its sweep engine, not
        to python).
        Returned pairs are in cone ids and bit-identical to the python
        expansion.
        """
        if sink - start + 1 < _kernels.MIN_KERNEL_REGION:
            return None
        index = self._index.kernel_index()
        window = index.window(start, sink)
        if window < _kernels.MIN_KERNEL_REGION:
            return None
        if _kernels.MIN_KERNEL_REGION and (
            window
            < _kernels.MIN_KERNEL_LEVEL_WIDTH * index.level_span(start, sink)
        ):
            # Deep and narrow: the level sweeps would pay one numpy
            # call per level for a handful of vertices each — the
            # interpreter path is faster on this shape.  Disabled
            # together with the size floor under
            # ``forced_region_threshold(0)`` so tests still force
            # kernel coverage on tiny regions.
            return None
        region = index.region(start, sink)
        if region is None:
            return None
        return region.members_sorted(), _kernels.kernel_expand_region(
            region, start
        )

    def chains_for_sources(self) -> Dict[int, DominatorChain]:
        """Chains of every primary input of the cone (Table 1 workload)."""
        return {u: self.chain(u) for u in self.graph.sources()}

    def invalidate(self, vertices) -> int:
        """Drop cached regions touching any of ``vertices``.

        Incremental-synthesis hook ("suitable for running in an
        incremental manner", Section 7): after a local rewrite confined
        to the given vertices, only the regions containing them need
        recomputation — every other cached region is still valid provided
        the single-dominator structure outside them is unchanged.  The
        caller is responsible for rebuilding the :class:`ChainComputer`
        (graph and tree) when the edit moves single dominators;
        :class:`repro.incremental.IncrementalEngine` automates both.

        Eviction tests the full region member set, so edits to interior
        region vertices that appear on no chain are caught too.

        Returns the number of evicted regions.
        """
        if self.region_cache is None:
            return 0
        return self.region_cache.invalidate_touching(vertices)


def dominator_chain(
    graph: IndexedGraph,
    u: int,
    algorithm: str = "lt",
    tree: Optional[DominatorTree] = None,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> DominatorChain:
    """Compute ``D(u)`` for a single target — the paper's entry point.

    Examples
    --------
    >>> from repro.circuits.figures import figure2_circuit
    >>> from repro.graph import IndexedGraph
    >>> g = IndexedGraph.from_circuit(figure2_circuit())
    >>> chain = dominator_chain(g, g.index_of("u"))
    >>> chain.dominates(g.index_of("d"), g.index_of("h"))
    True
    """
    return ChainComputer(
        graph, algorithm, tree=tree, backend=backend, kernels=kernels
    ).chain(u)

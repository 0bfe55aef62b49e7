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

from typing import Dict, List, Optional, Tuple

from ..dominators import kernels as _kernels
from ..dominators.linear import LinearScratch, region_chain_pairs
from ..dominators.shared import (
    DEFAULT_BACKEND,
    RegionMatcher,
    SharedConeIndex,
    validate_backend,
)
from ..dominators.single import circuit_dominator_tree
from ..dominators.tree import DominatorTree
from ..flow.vertex_cut import RegionCutSolver
from ..graph.indexed import IndexedGraph
from .chain import ChainPair, DominatorChain
from .double_idom import double_idom
from .matching import expand_pair
from ..graph.transform import region_between
from .region_cache import CacheStats, RegionCache, RegionPair
from .regions import SearchRegion


def _expand_region(
    region: SearchRegion,
    algorithm: str,
    backend: str = "legacy",
    scratch=None,
) -> List[RegionPair]:
    """All chain pairs inside one search region, in chain order."""
    if region.is_trivial:
        # Fewer than two interior vertices: no size-two cut can exist, so
        # the region contributes no pairs.  ChainComputer already skips
        # the single-fanout edge regions; this catches the rest.
        return []
    results: List[RegionPair] = []
    if backend == "linear":
        # One flow-of-two + residual-SCC pass yields every pair of the
        # region at once (repro.dominators.linear) — no per-pair
        # DOUBLEIDOM restarts, no per-element C − v idom chains.  The
        # caller's LinearScratch (if any) is reused across regions.
        for side1, side2, intervals in region_chain_pairs(
            region.graph, region.local_start, scratch
        ):
            results.append(
                (
                    [region.orig_of[x] for x in side1],
                    [region.orig_of[x] for x in side2],
                    {
                        region.orig_of[x]: interval
                        for x, interval in intervals.items()
                    },
                )
            )
        return results
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


def _assemble(
    target: int, region_pair_lists: List[List[RegionPair]]
) -> DominatorChain:
    """Concatenate per-region pairs into one chain with global indices."""
    pairs: List[ChainPair] = []
    intervals: Dict[int, Tuple[int, int]] = {}
    offset = [0, 0]  # flattened length of each side so far (last_index)
    for region_pairs in region_pair_lists:
        for side1, side2, local_intervals in region_pairs:
            for v in side1:
                lo, hi = local_intervals[v]
                intervals[v] = (offset[1] + lo, offset[1] + hi)
            for v in side2:
                lo, hi = local_intervals[v]
                intervals[v] = (offset[0] + lo, offset[0] + hi)
            pairs.append(ChainPair(tuple(side1), tuple(side2)))
            offset[0] += len(side1)
            offset[1] += len(side2)
    return DominatorChain(target, pairs, intervals)


class ChainComputer:
    """Computes dominator chains for many targets of one cone.

    Parameters
    ----------
    graph:
        Single-output cone in signal orientation.
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
        ``core.region_expansions`` — the serving layer's view into the
        algorithmic hot path.
    backend:
        ``"linear"`` (default, the production path) extracts regions
        from one per-version array index
        (:mod:`repro.dominators.shared`) and builds every pair of a
        region in one linear pass (:mod:`repro.dominators.linear`);
        ``"shared"`` runs per-pair max-flow and per-element
        restricted-graph ``C − v`` chains over the same index;
        ``"legacy"`` keeps the original per-call subgraph copies.  All
        three produce identical chains (the differential oracle
        cross-checks them) — legacy exists as the reference
        implementation.
    shared_index:
        Set ``False`` to skip building the per-version
        :class:`~repro.dominators.shared.SharedConeIndex` and extract
        each region on demand (identical chains, no O(n + m) setup) —
        the mode the dynamic incremental engine runs in, where the
        graph version changes every flush.  Requires ``tree`` to be
        supplied for the shared/linear backends to stay O(1) to build.
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
    prefilter:
        ``"none"`` (default) computes every chain; ``"biconn"`` runs
        Schmidt's chain-decomposition test
        (:func:`repro.analysis.biconnectivity.has_no_double_dominator`)
        on the cone once, and — when the undirected skeleton is a tree,
        which certifies that *no* vertex has a double dominator — skips
        the shared-index build entirely and answers every :meth:`chain`
        call with an empty chain in O(1).  Sound but one-sided: an
        uncertified cone is computed exactly as with ``"none"``, and
        certified answers are bit-identical to the computed ones (the
        differential oracle cross-checks this).
    """

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
        prefilter: str = "none",
    ):
        from ..analysis.biconnectivity import (
            has_no_double_dominator,
            validate_prefilter,
        )

        self.graph = graph
        self.algorithm = algorithm
        self.cache_regions = cache_regions
        self.metrics = metrics
        self.backend = validate_backend(backend)
        self.kernels = _kernels.validate_kernels(kernels)
        self.prefilter = validate_prefilter(prefilter)
        #: True when the pre-filter certified the whole cone pair-free.
        self.certified_empty = (
            self.prefilter == "biconn" and has_no_double_dominator(graph)
        )
        if self.certified_empty and self.metrics is not None:
            self.metrics.inc("core.prefilter_certified")
        if kernels == "numpy":
            _kernels.require_numpy()
            if not shared_index or backend not in ("shared", "linear"):
                raise ValueError(
                    "kernels='numpy' needs the shared cone index "
                    "(shared_index=True and backend 'shared' or "
                    "'linear')"
                )
        # The linear backend reuses the shared index for region
        # extraction and the cone dominator tree; only the per-region
        # pair construction differs.  ``shared_index=False`` skips the
        # index and extracts regions per query with ``region_between``
        # instead: the index is an O(n + m) build keyed on the graph
        # version, which the dynamic incremental engine cannot afford
        # once per flush.  Both extractions assign region-local ids in
        # ascending original-id order, so chains stay bit-identical.
        self._index = (
            SharedConeIndex.for_graph(graph, algorithm, kernels)
            if shared_index
            and backend in ("shared", "linear")
            and not self.certified_empty
            else None
        )
        # One epoch-stamped scratch shared by every linear-backend
        # region expansion of this computer (grown to the largest
        # region, never cleared — see LinearScratch).
        self._scratch = LinearScratch() if backend == "linear" else None
        if tree is not None:
            self._tree: Optional[DominatorTree] = tree
        elif self._index is not None:
            self._tree = self._index.tree
        else:
            # Built on first access; a pre-filter-certified cone never
            # needs it, so the skip saves the whole O(n alpha) pass.
            self._tree = None
        self.region_cache: Optional[RegionCache] = (
            (region_cache if region_cache is not None else RegionCache())
            if cache_regions
            else None
        )

    @property
    def tree(self) -> DominatorTree:
        """The cone's dominator tree (built lazily when pre-filtered)."""
        if self._tree is None:
            self._tree = circuit_dominator_tree(self.graph, self.algorithm)
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
    def _region_cache(self) -> Dict[int, List[RegionPair]]:
        """Legacy ``{start: pairs}`` view of the cache (read-only)."""
        if self.region_cache is None:
            return {}
        return self.region_cache.pairs_by_start()

    def chain(self, u: int) -> DominatorChain:
        """The dominator chain ``D(u)`` (empty for the root)."""
        if self.certified_empty:
            if self.metrics is not None:
                self.metrics.inc("core.chains_computed")
                self.metrics.inc("core.prefilter_skipped")
            return DominatorChain(u, [], {})
        if self.metrics is None:
            return self._chain(u)
        import time

        start = time.perf_counter()
        result = self._chain(u)
        self.metrics.observe("core.chain_seconds", time.perf_counter() - start)
        self.metrics.inc("core.chains_computed")
        return result

    def _chain(self, u: int) -> DominatorChain:
        chain_vertices = self.tree.chain(u)
        succ = self.graph.succ
        region_lists: List[List[RegionPair]] = []
        for start, sink in zip(chain_vertices, chain_vertices[1:]):
            if len(succ[start]) == 1:
                # Single fanout: the only successor lies on every path to
                # the root, so it is ``sink``.  The region is the bare
                # start→sink edge and holds no pair; skip it before any
                # cache lookup or extraction.
                continue
            if self.region_cache is not None:
                cached = self.region_cache.lookup(start, sink)
                if cached is not None:
                    region_lists.append(cached)
                    continue
            if self.kernels == "numpy":
                expanded = self._kernel_region(start, sink)
                if expanded is not None:
                    members, pairs = expanded
                    if self.metrics is not None:
                        self.metrics.inc("core.region_expansions")
                        self.metrics.inc("core.kernel_regions")
                    if self.region_cache is not None:
                        self.region_cache.store(start, sink, members, pairs)
                    region_lists.append(pairs)
                    continue
            if self._index is not None:
                view, orig_of, local_start = self._index.extract_region(
                    start, sink
                )
                region = SearchRegion(
                    start=start,
                    sink=sink,
                    graph=view,
                    orig_of=orig_of,
                    local_start=local_start,
                )
            else:
                sub, orig_of = region_between(self.graph, start, sink)
                local_of = {orig: i for i, orig in enumerate(orig_of)}
                region = SearchRegion(
                    start=start,
                    sink=sink,
                    graph=sub,
                    orig_of=orig_of,
                    local_start=local_of[start],
                )
            expanded = _expand_region(
                region, self.algorithm, self.backend, self._scratch
            )
            if self.metrics is not None:
                self.metrics.inc("core.region_expansions")
            if self.region_cache is not None:
                self.region_cache.store(start, sink, orig_of, expanded)
            region_lists.append(expanded)
        return _assemble(u, region_lists)

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

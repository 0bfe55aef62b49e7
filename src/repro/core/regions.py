"""Search-region decomposition along the single-dominator chain.

The outer while-loop of DOMINATORCHAIN "partitions the circuit graph into
regions using single-vertex dominators of u as cut points.  Double-vertex
dominators of u are searched within these regions."

Why no double-vertex dominator straddles a region boundary: let ``s`` be a
single dominator of *u* and suppose ``{a, b}`` dominates *u* with *a*
before ``s`` and *b* after.  In a DAG any u→s path concatenates with any
s→root path, so if some u→s path avoided *a* and some s→root path avoided
*b*, their concatenation would avoid the pair — hence either *a* dominates
every u→s path (making *a* a single dominator, so ``{a, b}`` is redundant
by condition 2) or *b* dominates every s→root path (same argument).  Both
contradict Definition 1, so each pair lies strictly inside one region.
The same concatenation argument shows that the pairs of *u* inside the
region entered at chain vertex ``v`` coincide with the pairs of ``v``
itself in that region — which is why the algorithm may restart its flow
search from ``S = {v}`` at every region boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..dominators.tree import DominatorTree
from ..graph.indexed import IndexedGraph
from ..graph.transform import region_between


@dataclass(frozen=True)
class SearchRegion:
    """One region of the dominator-chain search.

    Attributes
    ----------
    start:
        The region's entry — a vertex of the idom chain of the target
        (original graph index).
    sink:
        ``idom(start)`` — the region's exit (original graph index).
    graph:
        The induced subgraph of vertices on start→sink paths, rooted at
        the sink (local indices).
    orig_of:
        Maps local indices of ``graph`` back to original indices.
    local_start:
        Local index of ``start`` inside ``graph``.
    """

    start: int
    sink: int
    graph: IndexedGraph
    orig_of: List[int]
    local_start: int

    @property
    def local_sink(self) -> int:
        return self.graph.root

    @property
    def interior_size(self) -> int:
        """Number of region vertices other than ``start`` and ``sink``."""
        return self.graph.n - 2

    @property
    def is_trivial(self) -> bool:
        """True when the region cannot possibly contain a dominator pair.

        A pair is a size-two cut of *interior* vertices (neither the
        region's entry nor its sink may be part of it), so regions with
        fewer than two interior vertices — in particular the degenerate
        ``start → sink`` edge region, where ``start``'s immediate
        dominator is its direct successor — are decided without running
        the flow machinery at all.  This also keeps degenerate regions
        trivially deterministic.

        The edge region has an O(1) test that needs no extraction: when
        ``start`` has exactly one fanout, that fanout is on every path
        to the root, so it is ``idom(start)`` and the region is the
        bare edge.  :class:`~repro.core.algorithm.ChainComputer` skips
        such cells before any cache lookup; :func:`search_regions`
        still yields them, so the reference walk checks the shortcut.
        """
        return self.interior_size < 2


def search_regions(
    graph: IndexedGraph, u: int, tree: DominatorTree
) -> Iterator[SearchRegion]:
    """Yield the search regions of *u* in chain order (u upward to root).

    ``tree`` is the dominator tree of ``graph`` (paper orientation); the
    regions are delimited by consecutive elements of ``tree.chain(u)``.
    """
    chain = tree.chain(u)
    for start, sink in zip(chain, chain[1:]):
        sub, orig_of = region_between(graph, start, sink)
        local_of = {orig: i for i, orig in enumerate(orig_of)}
        yield SearchRegion(
            start=start,
            sink=sink,
            graph=sub,
            orig_of=orig_of,
            local_start=local_of[start],
        )

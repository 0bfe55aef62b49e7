"""Edit-driven invalidation of cached search regions.

A cached region entry ``(start, sink, members, pairs)`` stays valid
exactly when the induced subgraph of start→sink paths is unchanged
(``core/regions.py``: the expansion depends on nothing else).  After an
edit batch with *dirty set* ``D`` (every vertex whose fanin or fanout
list changed, plus added and removed vertices), the entry is kept only
if it passes three checks against the **post-edit** graph and dominator
tree:

1. **boundary** — ``start`` is alive, reaches the root, and
   ``idom(start) == sink``: the region is still a cell of the chain
   decomposition;
2. **old members** — ``members ∩ D = ∅``: no path that *existed* can
   have been destroyed, because a destroyed start→sink path must have
   used a removed edge, whose endpoints lay on that path — i.e. inside
   ``members`` — and are in ``D``;
3. **new members** — no ``d ∈ D`` lies on a start→sink path of the
   edited graph: no path can have been *created*, because a new path
   must use an added edge, whose endpoints lie on it and are in ``D``.

Checks 2+3 together also freeze the region's interior edges (a changed
edge inside the region has its endpoints in the old or new member set),
so surviving entries are byte-identical to what recomputation would
produce — the equivalence the property suite fuzzes
(``tests/property/test_incremental_engine.py``).

Check 3 is implemented with the *union* cone: evict when ``start`` can
reach some dirty vertex **and** some dirty vertex can reach ``sink``.
That is a superset of the exact per-``d`` test (for a single-vertex
dirty set they coincide), so it stays sound, and it needs at most two
whole-graph BFS passes.  The engine's flush passes the maintainer's
affected region in as the upstream cone — it holds every vertex that
reaches the source of a changed edge, and a created path runs through
the source of its added edge — so only the downstream pass is paid
there.

Cost: O(E) for the two reachability passes plus O(entries) bookkeeping —
independent of how expensive the cached flow expansions were, which is
the whole point.

This is the circuit-DAG analogue of the edit-localized invalidation
that Georgiadis et al.'s dynamic-dominator study found to dominate
recomputation; the dominator tree is maintained in place by
:mod:`repro.dominators.dynamic`, and the region expansions are the
entries worth preserving.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from ..core.region_cache import RegionCache, RegionEntry
from ..dominators.tree import DominatorTree
from ..graph.indexed import IndexedGraph


def affected_cone(graph: IndexedGraph, dirty: Iterable[int]) -> Set[int]:
    """Vertices that can reach a dirty vertex (the dirty set included)."""
    seen: Set[int] = {d for d in dirty if 0 <= d < graph.n}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for p in graph.pred[v]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def downstream_of(graph: IndexedGraph, dirty: Iterable[int]) -> Set[int]:
    """Vertices reachable from a dirty vertex (the dirty set included)."""
    seen: Set[int] = {d for d in dirty if 0 <= d < graph.n}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in graph.succ[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _boundary_ok(
    entry: RegionEntry, graph: IndexedGraph, tree: DominatorTree
) -> bool:
    start = entry.start
    if not graph.is_alive(start) or not tree.is_reachable(start):
        return False
    if start == tree.root:
        return False
    return tree.idom[start] == entry.sink


def invalidate_dirty(
    cache: RegionCache,
    graph: IndexedGraph,
    tree: DominatorTree,
    dirty: Iterable[int],
    cone: Optional[Set[int]] = None,
    downstream: Optional[Set[int]] = None,
) -> int:
    """Evict every cache entry an edit with dirty set ``dirty`` may affect.

    ``graph`` and ``tree`` must be the **post-edit** graph and its
    refreshed dominator tree.  ``cone``/``downstream`` may pass in the
    precomputed :func:`affected_cone` / :func:`downstream_of` of the
    live dirty vertices (or any superset) to share work with the tree
    update.  Returns the number of evictions.
    """
    dirty_set = frozenset(dirty)
    live_dirty = [d for d in dirty_set if 0 <= d < graph.n and graph.is_alive(d)]
    if cone is None:
        cone = affected_cone(graph, live_dirty)
    if downstream is None:
        downstream = downstream_of(graph, live_dirty)
    evicted = 0
    for entry in cache.entries():
        if (
            not _boundary_ok(entry, graph, tree)
            or not dirty_set.isdisjoint(entry.members)
            or (entry.start in cone and entry.sink in downstream)
        ):
            cache.evict(entry.start)
            evicted += 1
    return evicted

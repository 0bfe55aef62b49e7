"""Dynamic dominator maintenance for circuit cones.

:class:`DynamicDominators` keeps the immediate-dominator array, tree
depths and child lists of one :class:`~repro.graph.indexed.IndexedGraph`
correct across in-place edits **without** rebuilding from scratch.  It
implements the practical dynamic-dominators recipe of Georgiadis et
al. ("An Experimental Study of Dynamic Dominators", arXiv:1604.02711),
specialised to DAGs in the paper's reversed orientation (flow
predecessors of ``v`` are ``graph.succ[v]``, flow successors are
``graph.pred[v]``, the flow entry is the circuit output):

* **Depth-based insertion search** — a batch that nets out to one
  inserted edge recomputes placements only along the propagation front
  below the edge's flow head: a vertex is re-examined only when a flow
  predecessor is *dirty* (it, or a dominator-tree ancestor of it,
  moved this sweep), and each re-examination is a depth-guided NCA
  fold.  Vertices with only clean predecessors are skipped outright —
  their folds' NCA climbs visit no vertex that moved, so the old
  answer provably stands.  Dirtiness propagates along the maintained
  ``idom`` links, which keeps the pruning sound for deletions too,
  where a vertex can re-parent laterally at unchanged depth.
* **Affected-region recomputation** — any batch (deletions, gate
  kills, multi-edge rewires) recomputes immediate dominators inside the
  *affected region*: the flow-reachable closure of the changed edges'
  heads on the post-batch graph.  Because the region is closed under
  flow successors, a single local topological sweep with NCA folding
  over (final) predecessor dominators is exact — the DAG version of the
  DSU/semi-NCA recompute, with no full-graph pass — and the same
  change-propagation pruning applies.
* **Fallback policy** — only when the affected region exceeds a
  configurable fraction of the live graph does the maintainer fall back
  to one static rebuild (:func:`repro.dominators.dsu.compute_idoms`,
  the DSU algorithm).

Batches are the unit of work: the caller applies edits eagerly to the
graph, queues the edge/vertex deltas, and hands the whole batch over in
one :meth:`apply_batch` — opposite inserts and deletes cancel, and one
region sweep covers everything.  Correctness is *certifiable*: the
companion :mod:`.lowhigh` module verifies the maintained tree with an
O(n + m) low-high order check after any batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lengauer_tarjan import UNREACHABLE
from ..single import circuit_idoms
from .lowhigh import certify_tree

__all__ = [
    "DynamicDominators",
    "DynamicStats",
    "DynamicTree",
    "EDGE_ADD",
    "EDGE_REMOVE",
    "VERTEX_ADD",
    "VERTEX_REMOVE",
]

#: Delta records, signal orientation: ``(EDGE_ADD, source, target)``
#: mirrors ``graph.add_edge(source, target)``; vertex records carry the
#: vertex index only.
EDGE_ADD = "edge+"
EDGE_REMOVE = "edge-"
VERTEX_ADD = "vertex+"
VERTEX_REMOVE = "vertex-"

Delta = Tuple


@dataclass
class DynamicStats:
    """Counters of one maintainer (exported via engine and daemon stats)."""

    batches: int = 0  # apply_batch calls that had any net change
    dbs_insertions: int = 0  # batches served by depth-based search
    region_updates: int = 0  # batches served by the local region sweep
    fallback_rebuilds: int = 0  # batches that exceeded the region threshold
    certificates: int = 0  # low-high certificate runs
    # Running aggregate of per-batch affected-region sizes — O(1) state,
    # safe for long-lived daemon tenants (the full distribution lives in
    # the ``dynamic.affected_region_size`` metrics histogram).
    region_size_sum: int = 0
    region_size_max: int = 0

    def observe_region(self, size: int) -> None:
        self.region_size_sum += size
        if size > self.region_size_max:
            self.region_size_max = size

    def as_dict(self) -> Dict[str, int]:
        return {
            "dynamic_batches": self.batches,
            "dynamic_dbs_insertions": self.dbs_insertions,
            "dynamic_region_updates": self.region_updates,
            "dynamic_fallback_rebuilds": self.fallback_rebuilds,
            "dynamic_certificates": self.certificates,
            "dynamic_region_size_sum": self.region_size_sum,
            "dynamic_region_size_max": self.region_size_max,
        }


class DynamicTree:
    """Live dominator-tree view over a maintainer's arrays.

    Duck-compatible with the subset of
    :class:`~repro.dominators.tree.DominatorTree` the serving layer uses
    (``idom``/``root``/``n``/``is_reachable``/``chain``/``depth``/
    ``children``/``dominates``) but **mutable**: it reads the
    maintainer's arrays directly, so a flush never pays the O(n) DFS
    that constructing a ``DominatorTree`` does.  Dominance queries climb
    by depth instead of comparing DFS intervals — O(depth), which is
    what the incremental engine's chain walks do anyway.
    """

    __slots__ = ("_m",)

    def __init__(self, maintainer: "DynamicDominators"):
        self._m = maintainer

    @property
    def idom(self) -> List[int]:
        return self._m.idom

    @property
    def root(self) -> int:
        return self._m.graph.root

    @property
    def n(self) -> int:
        return len(self._m.idom)

    def is_reachable(self, v: int) -> bool:
        return self._m.idom[v] != UNREACHABLE

    def depth(self, v: int) -> int:
        self._require(v)
        return self._m.depth[v]

    def children(self, v: int) -> List[int]:
        return sorted(self._m.children[v])

    def chain(self, v: int) -> List[int]:
        self._require(v)
        idom = self._m.idom
        root = self.root
        out = [v]
        while v != root:
            v = idom[v]
            out.append(v)
        return out

    def dominates(self, a: int, b: int) -> bool:
        """True iff ``a`` dominates ``b`` (reflexively)."""
        self._require(a)
        self._require(b)
        idom, depth = self._m.idom, self._m.depth
        while depth[b] > depth[a]:
            b = idom[b]
        return a == b

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)

    def iter_reachable(self):
        idom = self._m.idom
        return (v for v in range(len(idom)) if v == self.root or idom[v] != UNREACHABLE)

    def _require(self, v: int) -> None:
        if self._m.idom[v] == UNREACHABLE:
            from ...errors import UnreachableVertexError

            raise UnreachableVertexError(
                f"vertex {v} cannot reach the root of this dominator tree"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        reach = sum(1 for d in self._m.idom if d != UNREACHABLE)
        return f"DynamicTree(root={self.root}, reachable={reach}/{self.n})"


class DynamicDominators:
    """Maintains ``idom``/``depth``/``children`` of one cone under edits.

    Parameters
    ----------
    graph:
        The live cone (the maintainer reads it, never mutates it).
    algorithm:
        Static algorithm for the initial build (default the DSU/SNCA
        one — full rebuilds are this maintainer's fallback, so the
        fastest static path is the right default).
    max_region_fraction:
        Fallback threshold: a batch whose affected region exceeds this
        fraction of the live vertex count triggers one static rebuild
        instead of the local sweep.  Small regions are always swept.
    """

    #: Regions at or below this many vertices never trigger the
    #: fractional fallback (tiny graphs would otherwise thrash).
    MIN_REGION = 64

    def __init__(
        self,
        graph,
        algorithm: str = "dsu",
        max_region_fraction: float = 0.75,
    ):
        self.graph = graph
        self.algorithm = algorithm
        self.max_region_fraction = max_region_fraction
        self.stats = DynamicStats()
        self.idom: List[int] = []
        self.depth: List[int] = []
        self.children: List[Set[int]] = []
        self._tree = DynamicTree(self)
        self.rebuild()

    # ------------------------------------------------------------------
    # construction / fallback
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute everything from scratch with the static algorithm."""
        graph = self.graph
        self.idom = circuit_idoms(graph, self.algorithm)
        n = graph.n
        self.depth = [UNREACHABLE] * n
        self.children = [set() for _ in range(n)]
        root = graph.root
        for v, p in enumerate(self.idom):
            if v != root and p != UNREACHABLE:
                self.children[p].add(v)
        self.depth[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            d = self.depth[v] + 1
            for c in self.children[v]:
                self.depth[c] = d
                queue.append(c)

    @property
    def tree(self) -> DynamicTree:
        """The live tree view (one object, always current)."""
        return self._tree

    def is_reachable(self, v: int) -> bool:
        return self.idom[v] != UNREACHABLE

    def nca(self, a: int, b: int) -> int:
        """Nearest common ancestor of two reachable vertices, by depth."""
        idom, depth = self.idom, self.depth
        while a != b:
            if depth[a] < depth[b]:
                b = idom[b]
            else:
                a = idom[a]
        return a

    def certificate(self) -> List[str]:
        """Run the low-high certificate; empty list means certified."""
        self.stats.certificates += 1
        return certify_tree(self.graph, self.idom)

    # ------------------------------------------------------------------
    # batched updates
    # ------------------------------------------------------------------
    def apply_batch(self, deltas: Sequence[Delta]) -> Optional[Set[int]]:
        """Fold one batch of already-applied graph deltas into the tree.

        ``deltas`` lists the elementary mutations (:data:`EDGE_ADD` /
        :data:`EDGE_REMOVE` / :data:`VERTEX_ADD` / :data:`VERTEX_REMOVE`
        records, in application order) that turned the previously-seen
        graph into the current ``self.graph``.  Opposite edge records
        cancel before any work happens.

        Returns the affected region — the set of vertices whose
        dominator facts (or root paths) the batch could have changed, a
        sound invalidation cone for region caches — or ``None`` when
        the region exceeded the fallback threshold and a full static
        rebuild was performed instead (callers must then treat every
        vertex as potentially affected).
        """
        graph = self.graph
        n = graph.n
        # New vertices appended by the batch.
        while len(self.idom) < n:
            self.idom.append(UNREACHABLE)
            self.depth.append(UNREACHABLE)
            self.children.append(set())

        net: Dict[Tuple[int, int], int] = {}
        vertex_seeds: Set[int] = set()
        for delta in deltas:
            kind = delta[0]
            if kind == EDGE_ADD:
                key = (delta[1], delta[2])
                net[key] = net.get(key, 0) + 1
            elif kind == EDGE_REMOVE:
                key = (delta[1], delta[2])
                net[key] = net.get(key, 0) - 1
            elif kind in (VERTEX_ADD, VERTEX_REMOVE):
                vertex_seeds.add(delta[1])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown delta record {delta!r}")
        added = [edge for edge, count in net.items() if count > 0]
        removed = [edge for edge, count in net.items() if count < 0]
        if not added and not removed and not vertex_seeds:
            return set()
        self.stats.batches += 1

        # Seeds: signal sources of every changed edge plus added/killed
        # vertices.  Any vertex whose root paths changed flow-reaches a
        # seed on the final graph (induction over the first changed edge
        # of a path), so the flow closure of the seeds bounds the
        # affected region.
        seeds = set(vertex_seeds)
        seeds.update(v for v, _ in added)
        seeds.update(v for v, _ in removed)
        region = self._flow_closure(seeds)
        self.stats.observe_region(len(region))

        alive = n - len(graph.dead)
        if len(region) > max(self.MIN_REGION, self.max_region_fraction * alive):
            self.rebuild()
            self.stats.fallback_rebuilds += 1
            return None

        single_insert = not removed and not vertex_seeds and len(added) == 1
        if single_insert and not self.is_reachable(added[0][1]):
            # Flow edge with an unreachable tail: the new edge lies on
            # no root path, so no dominator fact moves anywhere.
            return region
        self._region_update(region, seeds)
        if single_insert:
            self.stats.dbs_insertions += 1
        else:
            self.stats.region_updates += 1
        return region

    # ------------------------------------------------------------------
    def _flow_closure(self, seeds: Set[int]) -> Set[int]:
        """Vertices flow-reachable from ``seeds`` on the current graph.

        Flow successors are signal fanins, so this is the union of the
        seeds' upstream cones — the same direction
        :func:`repro.incremental.invalidate.affected_cone` walks.
        """
        graph = self.graph
        region = set(seeds)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            for w in graph.pred[v]:
                if w not in region:
                    region.add(w)
                    stack.append(w)
        return region

    def _region_update(self, region: Set[int], seeds: Set[int]) -> None:
        """Recompute idoms inside a flow-closed region, one pruned sweep.

        The region contains every vertex whose dominator facts the
        batch may have changed *and* is closed under flow successors,
        so (a) boundary vertices keep their (correct) old idoms and (b)
        a vertex's immediate dominator — the depth-based NCA fold of
        its reachable flow predecessors — only references state that is
        final by the time a local topological sweep reaches it.

        The sweep is *pruned* by ancestor-dirtiness: a vertex is
        re-folded only when its own predecessor list changed (it is a
        seed) or some flow predecessor is *dirty* — it, or any of its
        dominator-tree ancestors, changed its ``(idom, depth)`` pair
        this sweep.  The fold's NCA climbs only ever visit tree
        ancestors of the flow predecessors, so when none of those moved
        the climbs are byte-identical to the pre-batch state and the
        old answer stands.  Dirtiness propagates along the (already
        final) ``idom`` links in the same topological pass, which also
        makes it reach vertices whose parent re-parented *laterally* at
        unchanged depth — a deletion/rewire case where the subtree's
        own ``(idom, depth)`` pairs stay intact while downstream NCA
        folds change (direct-predecessor pruning alone is unsound
        there).  Insertions still touch only the vertices the classic
        depth-based search would.
        """
        graph = self.graph
        idom, depth, children = self.idom, self.depth, self.children
        root = graph.root

        # Local Kahn order, flow orientation (predecessors first).
        indeg = {
            v: sum(1 for u in graph.succ[v] if u in region) for v in region
        }
        queue = deque(v for v, d in indeg.items() if d == 0)
        # dirty[v]: v or a dominator-tree ancestor of v changed placement.
        # Vertices outside the region never change, and no tree ancestor
        # of an outside vertex lies inside the region (the region is
        # flow-closed, ancestors flow-precede their descendants), so a
        # missing key soundly reads as clean.
        dirty: Dict[int, bool] = {}
        processed = 0
        while queue:
            v = queue.popleft()
            processed += 1
            pair_changed = False
            if v != root and (
                v in seeds
                or any(dirty.get(u, False) for u in graph.succ[v])
            ):
                acc: Optional[int] = None
                for u in graph.succ[v]:  # flow predecessors
                    if idom[u] == UNREACHABLE:
                        continue  # unreachable predecessors contribute nothing
                    acc = u if acc is None else self.nca(acc, u)
                old = idom[v]
                old_depth = depth[v]
                new = acc if acc is not None else UNREACHABLE
                if new != old:
                    if old != UNREACHABLE:
                        children[old].discard(v)
                    if new != UNREACHABLE:
                        children[new].add(v)
                    idom[v] = new
                depth[v] = depth[new] + 1 if new != UNREACHABLE else UNREACHABLE
                pair_changed = idom[v] != old or depth[v] != old_depth
            # idom[v] flow-precedes v, so its dirty flag is final here.
            parent = idom[v]
            dirty[v] = pair_changed or (
                v != root
                and parent != UNREACHABLE
                and dirty.get(parent, False)
            )
            for w in graph.pred[v]:  # flow successors
                if w in region:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        if processed != len(region):  # pragma: no cover - defensive
            raise ValueError("cycle inside the affected region")

"""Shared dominator-tree backend: one array index per circuit version.

The legacy chain-construction path rebuilds graph state from scratch for
every search region and every restricted graph ``C − v``: each
:func:`~repro.graph.transform.region_between` call allocates two fresh
boolean arrays and a brand-new :class:`~repro.graph.indexed.IndexedGraph`
(adjacency copies, name lists, a dict mapping back to original ids), and
each FINDMATCHINGVECTOR call does the same again via ``remove_vertex``
before running Lengauer–Tarjan on the copy.  Profiling the Table-1 sweep
shows those copies — not the dominator arithmetic — are where the time
goes.

This module replaces the copies with **views over shared arrays**:

* :class:`SharedConeIndex` is built once per ``(graph, version,
  algorithm)`` — cached on the graph itself and invalidated by the
  graph's monotone edit counter — and owns the cone's epoch-stamped
  :class:`~repro.dominators.linear.ConeScratch`, so that extracting a
  search region is a stack walk over the existing adjacency with
  *zero* per-region allocation proportional to the cone;
* :class:`RegionView` is the resulting lightweight region graph — plain
  ``succ``/``pred``/``root`` arrays in region-local ids, duck-compatible
  with ``IndexedGraph`` for every read-only algorithm (max-flow,
  dominators);
* restricted-graph ``C − v`` idom chains never materialize a subgraph at
  all: the exclude-capable algorithms (``lt``, ``dsu``/``snca``) simply
  skip the removed vertex during their DFS, which is equivalent to
  deleting it;
* a :class:`ConeView` is one output cone of a multi-output circuit as
  an epoch-stamped mark on the circuit's own int arrays
  (:class:`~repro.graph.circuit.CircuitArrays`): the service sweep runs
  every cone of a netlist there, with no per-cone copy, and shares each
  region record between the cones that hold it
  (:class:`CircuitScratch`).

Region-local vertex ids are assigned in **ascending original-id order**,
exactly like ``IndexedGraph.subgraph`` — this keeps every downstream
tie-break (the ascending-id ordering of a min-cut pair, the layout of
assembled chains, the member lists stored in ``RegionCache``) identical
between the legacy and shared backends, which is what lets the
differential oracle compare them vector-for-vector.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ChainConstructionError, CircuitError, UnknownNodeError
from ..graph.circuit import Circuit, CircuitArrays
from ..graph.indexed import IndexedGraph
from . import dsu
from .linear import ConeScratch
from .single import circuit_dominator_tree
from .tree import DominatorTree

#: Valid values of the public ``backend=`` parameter.
#:
#: * ``shared`` — region views over one per-version array index, with
#:   max-flow DOUBLEIDOM and scratch-reusing restricted-idom matching
#:   (this module);
#: * ``legacy`` — the original per-call subgraph copies (reference);
#: * ``linear`` — the follow-up paper's linear-time construction
#:   (:mod:`repro.dominators.linear`): one flow-of-two + residual-label
#:   pass per region over the cone's own arrays instead of region
#:   extraction, per-pair max-flow and per-element ``C − v`` idom walks.
BACKENDS = ("shared", "legacy", "linear")

#: The production backend: every public entry point that takes
#: ``backend=`` defaults to it.  ``linear`` beats ``shared`` on every
#: circuit of BENCH_linear_backend.json; all three produce identical
#: chains.
DEFAULT_BACKEND = "linear"


def validate_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


class RegionView:
    """A search region as plain arrays in region-local vertex ids.

    Duck-compatible with the read-only surface of
    :class:`~repro.graph.indexed.IndexedGraph` (``n``/``succ``/``pred``/
    ``root``/``names``/``name_of``) — enough for the max-flow split
    network and the dominator algorithms, without carrying the edit
    machinery, tombstones or name index of the full class.
    """

    __slots__ = ("n", "succ", "_pred", "root", "names")

    def __init__(
        self,
        succ: List[List[int]],
        pred: Optional[List[List[int]]] = None,
        root: int = 0,
        names: Optional[List[Optional[str]]] = None,
    ):
        self.n = len(succ)
        self.succ = succ
        self._pred = pred
        self.root = root
        self.names = names if names is not None else [None] * self.n

    @property
    def pred(self) -> List[List[int]]:
        """Reverse adjacency, derived from ``succ`` on first access.

        The shared fast paths (the split flow network, the topological
        matcher) only read ``succ``, so regions usually never pay for
        this.
        """
        if self._pred is None:
            pred: List[List[int]] = [[] for _ in range(self.n)]
            for v, ws in enumerate(self.succ):
                for w in ws:
                    pred[w].append(v)
            self._pred = pred
        return self._pred

    def name_of(self, v: int) -> str:
        name = self.names[v]
        return name if name is not None else f"#{v}"

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionView(n={self.n}, e={self.edge_count()}, root={self.root})"


def matching_compute(algorithm: str) -> Callable:
    """The exclude-capable ``compute_idoms`` used for ``C − v`` chains.

    Matching vectors only need *some* correct idom computation — idoms
    are unique, so every algorithm returns the same answer — which frees
    the shared backend to always use the fastest exclude-capable
    variant: the SNCA/DSU path-compression algorithm
    (:mod:`repro.dominators.dsu`), about twice as fast as Lengauer–
    Tarjan on region-sized graphs.  The ``algorithm`` parameter still
    selects the cone-level dominator tree; ``backend="legacy"`` honors
    it end-to-end for differential runs.
    """
    del algorithm  # see docstring: shared matching is always SNCA
    return dsu.compute_idoms


#: NCA steps per cone edge that the topological idom sweep may take
#: before a deep cascade sends it to a near-linear algorithm.
TREE_BUDGET_FACTOR = 8


def topo_cone_idoms(
    graph, budget_factor: int = TREE_BUDGET_FACTOR
) -> Optional[List[int]]:
    """Cone idoms (paper orientation) by one topological sweep.

    Works when vertex ids are a topological order of the cone and every
    vertex reaches the root — the invariants of
    ``IndexedGraph.from_circuit`` — and returns ``None`` whenever either
    is violated (edited graphs, tombstoned vertices), letting the caller
    fall back to a general algorithm.  On a DAG the Cooper–Harvey–
    Kennedy recurrence is exact after a single reverse-topological pass:
    each vertex's idom is the NCA of its successors' already-final
    idoms.  Idoms are unique, so the result equals any other
    algorithm's.

    The sweep's worst case is a deep chain of reconvergent blocks: every
    NCA intersection can walk the whole idom chain below it, and the
    pass degenerates toward O(E·depth) — two minutes at a quarter
    million cascade stages.  The walks are therefore metered against a
    ``budget_factor * edges`` step budget; past it the pass switches to
    the flat-array SNCA of :func:`repro.dominators.dsu.compute_idoms`,
    which is near-linear regardless of depth.
    """
    n = graph.n
    succ = graph.succ
    root = graph.root
    if n == 0 or root != n - 1:
        return None
    # Cheap invariant pre-pass: topological ids + nonempty out-degree
    # below the root together guarantee every vertex reaches the root
    # (induction from high ids down), so the SNCA fallback can start
    # without re-discovering a violation mid-sweep.  ``min(adj) <= v``
    # is one C call per vertex instead of a python loop per edge.
    edges = 0
    for v in range(n - 1):
        adj = succ[v]
        if not adj or min(adj) <= v:
            return None
        edges += len(adj)
    budget = budget_factor * max(edges, 1)
    idom = [0] * n
    idom[root] = root
    for v in range(n - 2, -1, -1):
        a = -1
        for w in succ[v]:
            if a == -1:
                a = w
            elif a != w:
                b = w
                while a != b:
                    if a < b:
                        a = idom[a]
                    else:
                        b = idom[b]
                    budget -= 1
                if budget < 0:
                    # Reversed orientation, exactly as circuit_idoms:
                    # forward reach to the root (verified above) equals
                    # backward reach from it, so no vertex comes back
                    # unreachable and the idoms match the sweep's.
                    return dsu.compute_idoms(
                        n, graph.pred, root, pred=succ
                    )
        idom[v] = a
    return idom


class RegionMatcher:
    """Scratch-reusing FINDMATCHINGVECTOR engine for one search region.

    The pair-expansion loop computes one restricted-graph idom chain per
    chain element — hundreds of calls per region on the Table-1 sweep —
    and each :func:`repro.dominators.dsu.compute_idoms` call allocates
    seven arrays plus the dense idom output that the caller immediately
    re-walks into a short chain.  This class serves the same queries out
    of preallocated epoch-stamped arrays, with two engines:

    * **Topological single pass** (the usual case): when region-local ids
      are a topological order (every edge ascends — guaranteed for
      regions extracted from a ``from_circuit`` cone, whose vertex ids
      are topological), the region is a DAG whose reverse orientation is
      processed root-first in one descending sweep, computing each
      ``idom`` as the nearest common ancestor of the already-final idoms
      of its successors (the Cooper–Harvey–Kennedy recurrence, which
      needs no iteration on acyclic graphs).  No DFS, no semidominators;
      the sweep also stops at ``w_start`` since idoms of
      lower-numbered vertices cannot appear on its chain.
    * **Inlined SNCA fallback**: graphs whose ids are not topological
      (e.g. cones edited in place by the incremental engine) run the
      same semi-NCA computation as :mod:`repro.dominators.dsu` over the
      reused scratch arrays.

    Idoms are unique, so the vectors are identical to what any
    ``compute_idoms(..., exclude=v)`` call would produce, whichever
    engine answers.
    """

    __slots__ = (
        "region",
        "_topo",
        "_epoch",
        "_stamp",
        "_dfn",
        "_vertex",
        "_parent",
        "_semi",
        "_label",
        "_anc",
        "_idom",
        "_iota",
        "_neg",
    )

    def __init__(self, region):
        self.region = region
        n = region.n
        succ = region.succ
        self._topo = region.root == n - 1 and all(
            w > v for v in range(n) for w in succ[v]
        )
        self._epoch = 0
        self._stamp = [0] * n
        self._idom = [0] * n
        if not self._topo:
            self._dfn = [0] * n
            self._vertex = [0] * n
            self._parent = [0] * n
            self._semi = [0] * n
            self._label = [0] * n
            self._anc = [0] * n
            self._iota = list(range(n))
            self._neg = [-1] * n

    def matching_vector(self, excl: int, w_start: int) -> List[int]:
        """Idom chain of ``w_start`` in the region minus ``excl``.

        Returns ``[w_start, idom(w_start), ...]`` up to but excluding the
        region root, in region-local ids — the exact contract of
        :func:`repro.core.matching.find_matching_vector`.
        """
        if not self._topo:
            return self._matching_vector_snca(excl, w_start)
        region = self.region
        succ = region.succ
        root = region.root
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        idom = self._idom
        stamp[root] = epoch
        idom[root] = root
        # Reverse-orientation topological sweep: descending local ids
        # visit every vertex after all its successors, so each NCA
        # intersection runs over final idom values.  A stamped vertex is
        # one that still reaches the root with ``excl`` removed.
        for v in range(region.n - 2, w_start - 1, -1):
            if v == excl:
                continue
            a = -1
            for w in succ[v]:
                if w == excl or stamp[w] != epoch:
                    continue
                if a == -1:
                    a = w
                elif a != w:
                    b = w
                    while a != b:
                        if a < b:
                            a = idom[a]
                        else:
                            b = idom[b]
            if a != -1:
                stamp[v] = epoch
                idom[v] = a
        if stamp[w_start] != epoch:
            raise ChainConstructionError(
                f"partner {w_start} vanished from the region after "
                f"removing {excl}"
            )
        out: List[int] = []
        x = w_start
        while x != root:
            out.append(x)
            x = idom[x]
        return out

    def _matching_vector_snca(self, excl: int, w_start: int) -> List[int]:
        region = self.region
        succ = region.pred  # dominator orientation: root toward leaves
        pred = region.succ
        root = region.root
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        dfn = self._dfn
        vertex = self._vertex
        parent = self._parent

        # Genuine DFS preorder (iterator stack, like repro.dominators.dsu)
        # — the semidominator theory needs a real DFS tree, not just any
        # discovery order.
        stamp[root] = epoch
        dfn[root] = 0
        vertex[0] = root
        parent[0] = 0
        count = 1
        iter_stack = [(0, iter(succ[root]))]
        while iter_stack:
            pv, it = iter_stack[-1]
            advanced = False
            for w in it:
                if w != excl and stamp[w] != epoch:
                    stamp[w] = epoch
                    dfn[w] = count
                    vertex[count] = w
                    parent[count] = pv
                    iter_stack.append((count, iter(succ[w])))
                    count += 1
                    advanced = True
                    break
            if not advanced:
                iter_stack.pop()
        if stamp[w_start] != epoch:
            raise ChainConstructionError(
                f"partner {w_start} vanished from the region after "
                f"removing {excl}"
            )

        r = count
        semi = self._semi
        label = self._label
        anc = self._anc
        semi[:r] = self._iota[:r]
        label[:r] = self._iota[:r]
        anc[:r] = self._neg[:r]
        # Semidominators in DFS-number space with inlined one-array
        # path-compression eval (same recurrence as repro.dominators.dsu).
        for i in range(r - 1, 0, -1):
            w = vertex[i]
            best = semi[i]
            for u in pred[w]:
                if stamp[u] != epoch:
                    continue
                pu = dfn[u]
                a = anc[pu]
                if a != -1 and anc[a] != -1:
                    chain = [pu]
                    x = a
                    while anc[anc[x]] != -1:
                        chain.append(x)
                        x = anc[x]
                    for c in reversed(chain):
                        ca = anc[c]
                        la = label[ca]
                        if semi[la] < semi[label[c]]:
                            label[c] = la
                        anc[c] = anc[ca]
                s = semi[label[pu]]
                if s < best:
                    best = s
            semi[i] = best
            anc[i] = parent[i]
        idom = self._idom
        idom[0] = 0
        for i in range(1, r):
            j = parent[i]
            s = semi[i]
            while j > s:
                j = idom[j]
            idom[i] = j

        out: List[int] = []
        x = dfn[w_start]
        while x:
            out.append(vertex[x])
            x = idom[x]
        return out


class SharedConeIndex:
    """Immutable per-version index of one cone, shared across queries.

    Owns the cone's :class:`~repro.dominators.linear.ConeScratch`: the
    epoch-stamped arrays behind both the linear pass and
    :meth:`extract_region`, validated against a monotone epoch counter
    instead of being cleared between regions (and only allocated once a
    region is first walked).
    """

    __slots__ = (
        "graph",
        "version",
        "algorithm",
        "kernels",
        "scratch",
        "_tree",
        "_kernel_index",
    )

    def __init__(
        self,
        graph: IndexedGraph,
        algorithm: str = "lt",
        kernels: str = "python",
    ):
        from .kernels import require_numpy, validate_kernels

        validate_kernels(kernels)
        if kernels == "numpy":
            require_numpy()
        self.graph = graph
        self.version = graph.version
        self.algorithm = algorithm
        self.kernels = kernels
        self.scratch = ConeScratch()
        self._tree: Optional[DominatorTree] = None
        self._kernel_index = None

    @classmethod
    def for_graph(
        cls,
        graph: IndexedGraph,
        algorithm: str = "lt",
        kernels: str = "python",
    ) -> "SharedConeIndex":
        """The cached index of ``graph`` at its current version.

        Indexes are cached per ``(algorithm, kernels)`` key, so
        alternating configurations on the same graph version (the
        oracle's cross-checks, interleaved service queries) reuse both
        indexes instead of rebuilding on every switch.  An edit bumps
        ``graph.version`` and drops the whole cache at once.
        """
        cached = graph._shared_index
        if not isinstance(cached, dict) or cached.get("version") != graph.version:
            cached = {"version": graph.version}
            graph._shared_index = cached
        key = (algorithm, kernels)
        index = cached.get(key)
        if index is None:
            index = cls(graph, algorithm, kernels)
            cached[key] = index
        return index

    @property
    def tree(self) -> DominatorTree:
        """Cone dominator tree, computed once per graph version.

        Uses the single-pass topological sweep when the graph's ids are
        topological (idoms are unique, so the tree is identical to what
        ``self.algorithm`` would build); otherwise defers to the
        configured algorithm.  The sweep meters its NCA walks and
        escapes to SNCA on deep chains (same idoms, bounded worst
        case), so both kernels settings share one tree pass.
        """
        if self._tree is None:
            idoms = topo_cone_idoms(self.graph)
            if idoms is not None:
                self._tree = DominatorTree(idoms, self.graph.root)
            else:
                self._tree = circuit_dominator_tree(
                    self.graph, self.algorithm
                )
        return self._tree

    def kernel_index(self):
        """The cone's :class:`~repro.dominators.kernels.KernelConeIndex`.

        Built lazily on the first region wide enough to clear
        ``MIN_KERNEL_REGION`` — a cone whose chain regions are all
        narrow (the common case for deep, skinny circuits) never pays
        for the level sort or the CSR build.
        """
        self._check_fresh()
        if self._kernel_index is None:
            from .kernels import KernelConeIndex

            self._kernel_index = KernelConeIndex(self.graph)
        return self._kernel_index

    def _check_fresh(self) -> None:
        if self.graph.version != self.version:
            raise CircuitError(
                "shared index is stale: the graph was edited after the "
                "index was built (rebuild via SharedConeIndex.for_graph)"
            )

    def extract_region(self, start: int, sink: int):
        """The search region between ``start`` and ``sink`` as a view.

        Returns ``(view, orig_of, local_start)`` where ``view`` is a
        :class:`RegionView` rooted at ``sink`` and ``orig_of`` maps
        ascending region-local ids back to cone ids — the same contract
        (and the same ordering) as ``region_between`` + ``subgraph``.
        """
        self._check_fresh()
        graph = self.graph
        scratch = self.scratch
        members, epoch = scratch.region(graph, start, sink, dominated=False)
        members.sort()
        mark = scratch.mark
        local = scratch.flow  # free until the next walk: local ids here
        for i, v in enumerate(members):
            local[v] = i
        succ = graph.succ
        names = graph.names
        succ_local = [
            [local[w] for w in succ[v] if mark[w] == epoch]
            for v in members
        ]
        view = RegionView(
            succ_local,
            root=local[sink],
            names=[names[v] for v in members],
        )
        return view, members, local[start]


# ----------------------------------------------------------------------
# cones as views of the circuit's arrays (service layer)
# ----------------------------------------------------------------------
class CircuitScratch:
    """Circuit-sized work arrays and region table of one sweep.

    ``index`` is the circuit's :class:`~repro.graph.circuit.CircuitArrays`
    (``circuit.arrays()``), read as it is: ascending ids are a
    topological order.

    Every :class:`ConeView` of one circuit that a sweep builds reuses
    these arrays: the :class:`~repro.dominators.linear.ConeScratch` of
    the linear pass (whose ``mark`` also holds the cone), the cone-local
    id and in-cone out-degree of each member, and the cone's idoms.

    ``regions`` maps ``(entry, sink)`` in circuit ids to the checked
    region record.  A cone is fanin-closed, so the region ``{w : entry ⇝
    w avoiding sink, w ⇝ sink}`` is the same vertex set in every cone
    that holds both vertices, and so is its record: a cone whose idom
    of ``entry`` is a different sink asks for a different key.
    """

    __slots__ = ("index", "scratch", "local", "outdeg", "idom", "regions")

    def __init__(self, index: CircuitArrays):
        n = len(index.order)
        self.index = index
        self.scratch = ConeScratch()
        self.scratch.ensure(n)
        self.local = [0] * n  # circuit id -> cone-local id (members)
        self.outdeg = [0] * n  # in-cone fanout count (members)
        self.idom = [0] * n  # cone idom in circuit ids (members)
        self.regions: Dict[Tuple[int, int], tuple] = {}

    def _walk(self, output: str):
        """Stamp the cone of ``output``: ``(root, members, edges)``.

        One backward walk stamps the members with a fresh epoch, the
        scratch's new floor, and counts each member's in-cone fanouts;
        ``members`` is sorted, and ``local`` numbers them by rank.
        Ascending circuit ids are a topological order of the cone, the
        numbering ``IndexedGraph.from_circuit`` gives it.
        """
        index = self.index
        try:
            root = index.index[output]
        except KeyError:
            raise UnknownNodeError(f"no node named {output!r}") from None
        scratch = self.scratch
        scratch.epoch += 1
        floor = scratch.floor = scratch.epoch
        mark, outdeg, idom = scratch.mark, self.outdeg, self.idom
        pred = index.pred
        mark[root] = floor
        outdeg[root] = 0
        idom[root] = root
        members = [root]
        stack = [root]
        edges = 0
        while stack:
            ds = pred[stack.pop()]
            edges += len(ds)
            for d in ds:
                if mark[d] == floor:
                    outdeg[d] += 1
                else:
                    mark[d] = floor
                    outdeg[d] = 1
                    idom[d] = -1  # no fanout folded in yet
                    members.append(d)
                    stack.append(d)
        members.sort()
        local = self.local
        for i, v in enumerate(members):
            local[v] = i
        return root, members, edges

    def view(self, output: str) -> Optional["ConeView"]:
        """The cone of ``output`` as a view, overwriting the previous one.

        After the walk, the cone's idoms follow from the topological
        sweep of :func:`topo_cone_idoms` run over fanins: in descending
        id order each member's idom is already final and is folded into
        each of its fanins' running NCA, so no fanout leaving the cone
        is ever read.  The sweep is metered the same way: past
        :data:`TREE_BUDGET_FACTOR` steps per edge it returns ``None``,
        and the caller materializes the cone instead.
        """
        root, members, edges = self._walk(output)
        idom, pred = self.idom, self.index.pred
        budget = TREE_BUDGET_FACTOR * max(edges, 1)
        for i in range(len(members) - 1, -1, -1):
            v = members[i]
            # idom[v] is final: every fanout of v has a higher id.  The
            # NCA walks below stay at ids >= v, all final too.
            for d in pred[v]:
                a = idom[d]
                if a == -1:
                    idom[d] = v
                elif a != v:
                    b = v
                    while a != b:
                        if a < b:
                            a = idom[a]
                        else:
                            b = idom[b]
                        budget -= 1
                    if budget < 0:
                        return None
                    idom[d] = a
        return ConeView(self, root, members, self.scratch.floor)


class ConeView:
    """One output cone of a circuit's arrays, as marks.

    Vertex ids are circuit ids; ``succ``/``pred`` are the circuit's own
    lists, and the scratch's floor keeps every region walk inside the
    cone.  Cone-local id ``i`` is ``members[i]``, the ascending order
    that :meth:`IndexedGraph.from_circuit` numbers its graph by, so
    every ascending-id tie-break reads the same in both.  Chains
    over a view (:class:`~repro.core.algorithm.ChainComputer`) speak
    cone-local ids.

    A view does not outlive its cone: the next :meth:`CircuitScratch.view`
    overwrites the member marks, local ids and idoms it reads, and
    :meth:`require_current` raises.
    """

    __slots__ = ("work", "n", "succ", "pred", "root", "members", "floor")

    def __init__(
        self, work: CircuitScratch, root: int, members: List[int], floor: int
    ):
        self.work = work
        self.n = len(work.index.order)
        self.succ = work.index.succ
        self.pred = work.index.pred
        self.root = root
        self.members = members
        self.floor = floor

    def require_current(self) -> None:
        """Raise unless this is still the latest view of its scratch."""
        if self.work.scratch.floor != self.floor:
            raise CircuitError(
                "cone view is stale: a later view of the same scratch "
                "overwrote its arrays"
            )

    def sources(self) -> List[int]:
        """Cone-local ids of the primary inputs, ascending."""
        pred = self.pred
        return [i for i, v in enumerate(self.members) if not pred[v]]

    def index_of(self, name: str) -> int:
        """Cone-local id of a named member."""
        self.require_current()
        v = self.work.index.index.get(name)
        if v is None or self.work.scratch.mark[v] < self.floor:
            raise UnknownNodeError(f"no vertex named {name!r}")
        return self.work.local[v]

    def name_of(self, u: int) -> str:
        return self.work.index.order[self.members[u]]

    def tree(self) -> DominatorTree:
        """The cone's dominator tree in cone-local ids."""
        self.require_current()
        local, idom = self.work.local, self.work.idom
        return DominatorTree(
            [local[idom[v]] for v in self.members], local[self.root]
        )


def cone_graph(circuit: Circuit, output: Optional[str] = None) -> IndexedGraph:
    """The cone of ``output`` as its own ``IndexedGraph``.

    The materialized-cone entry point of a sweep: one walk over the
    circuit's arrays (:meth:`IndexedGraph.from_circuit`).
    """
    return IndexedGraph.from_circuit(circuit, output)


__all__ = [
    "BACKENDS",
    "CircuitScratch",
    "ConeView",
    "RegionMatcher",
    "RegionView",
    "SharedConeIndex",
    "cone_graph",
    "matching_compute",
    "topo_cone_idoms",
    "validate_backend",
]

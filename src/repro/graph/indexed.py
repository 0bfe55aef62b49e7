"""Integer-indexed DAG view used by all dominator / flow algorithms.

The :class:`~repro.graph.circuit.Circuit` netlist is convenient for
construction and I/O but slow to traverse (string keys).  Every algorithm in
:mod:`repro.dominators`, :mod:`repro.flow` and :mod:`repro.core` instead
operates on an :class:`IndexedGraph`: vertices are ``0..n-1``, adjacency is
plain ``list[list[int]]`` in **signal direction** (``succ[v]`` are the
vertices *v* drives, i.e. the direction of "paths from u to root" in the
paper), and a single designated ``root`` vertex is the circuit output.

Single-output graphs are obtained from multi-output circuits through
:meth:`IndexedGraph.cone`, which extracts the transitive fanin cone of one
primary output — exactly how the paper treats "every output as a separate
function" in its evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import CircuitError, UnknownNodeError
from .circuit import Circuit


class IndexedGraph:
    """A single-root DAG over integer vertices.

    Attributes
    ----------
    n:
        Number of vertices.
    succ:
        ``succ[v]`` — vertices driven by *v* (edges toward the root).
    pred:
        ``pred[v]`` — fanins of *v*.
    root:
        The designated output vertex; every vertex of a well-formed cone
        can reach ``root`` along ``succ`` edges.
    names:
        Optional vertex names (``None`` entries allowed for synthetic
        vertices such as the fake super-source of Section 4).
    """

    __slots__ = (
        "n",
        "succ",
        "pred",
        "root",
        "names",
        "dead",
        "version",
        "_name_index",
        "_shared_index",
    )

    def __init__(
        self,
        succ: Sequence[Sequence[int]],
        root: int,
        names: Optional[Sequence[Optional[str]]] = None,
    ):
        self.n = len(succ)
        if not (0 <= root < self.n):
            raise CircuitError(f"root {root} out of range for n={self.n}")
        self.succ: List[List[int]] = [list(adj) for adj in succ]
        self.pred: List[List[int]] = [[] for _ in range(self.n)]
        for v, adj in enumerate(self.succ):
            for w in adj:
                if not (0 <= w < self.n):
                    raise CircuitError(f"edge {v}->{w} out of range")
                self.pred[w].append(v)
        self.root = root
        if names is not None and len(names) != self.n:
            raise CircuitError("names length must equal vertex count")
        self.names: List[Optional[str]] = (
            list(names) if names is not None else [None] * self.n
        )
        #: Tombstoned vertices (see :meth:`kill_vertex`).  Indices are
        #: never reused, so edits keep every live vertex's index stable.
        self.dead: set = set()
        #: Monotone edit counter: every in-place mutation bumps it, so
        #: derived structures (the shared dominator index, on-disk
        #: artifacts) can cheaply detect staleness without hashing.
        self.version = 0
        self._name_index: Optional[Dict[str, int]] = None
        #: Cache slot for :class:`repro.dominators.shared.SharedConeIndex`
        #: — ``(version, algorithm) -> index``; managed by that module.
        self._shared_index: Optional[dict] = None

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def index_of(self, name: str) -> int:
        """Vertex index of a named node."""
        try:
            return self._ensure_name_index()[name]
        except KeyError:
            raise UnknownNodeError(f"no vertex named {name!r}") from None

    def name_of(self, v: int) -> str:
        """Name of vertex *v* (falls back to ``#<v>`` for unnamed)."""
        name = self.names[v]
        return name if name is not None else f"#{v}"

    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.succ)

    def sources(self) -> List[int]:
        """Vertices with no fanin (primary inputs of the cone)."""
        return [
            v
            for v in range(self.n)
            if not self.pred[v] and v not in self.dead
        ]

    # ------------------------------------------------------------------
    # construction from circuits
    # ------------------------------------------------------------------
    @classmethod
    def from_circuit(
        cls, circuit: Circuit, output: Optional[str] = None
    ) -> "IndexedGraph":
        """Build the cone of one output of ``circuit``.

        Parameters
        ----------
        circuit:
            Source netlist; must be a valid DAG.
        output:
            Output name whose transitive fanin cone to extract.  If omitted
            the circuit must have exactly one primary output.
        """
        if output is None:
            outs = circuit.outputs
            if len(outs) != 1:
                raise CircuitError(
                    f"circuit {circuit.name!r} has {len(outs)} outputs; "
                    "specify which cone to extract"
                )
            output = outs[0]
        arrays = circuit.arrays()
        members = arrays.cone_members(output)
        local = dict(zip(members, range(len(members))))
        succ, order = arrays.succ, arrays.order
        return cls(
            [[local[w] for w in succ[v] if w in local] for v in members],
            root=local[arrays.index[output]],
            names=[order[v] for v in members],
        )

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def reachable_from(self, start: int, exclude: Optional[int] = None) -> List[bool]:
        """Vertices reachable from ``start`` along ``succ`` edges.

        ``start`` itself is marked reachable.  If ``exclude`` is given,
        paths may not pass through that vertex (it is never marked and
        never expanded) — this realizes the paper's restriction ``C - v``.
        """
        mark = [False] * self.n
        if start == exclude:
            return mark
        mark[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in self.succ[v]:
                if not mark[w] and w != exclude:
                    mark[w] = True
                    stack.append(w)
        return mark

    def coreachable_to(self, target: int, exclude: Optional[int] = None) -> List[bool]:
        """Vertices that can reach ``target`` along ``succ`` edges."""
        mark = [False] * self.n
        if target == exclude:
            return mark
        mark[target] = True
        stack = [target]
        while stack:
            v = stack.pop()
            for w in self.pred[v]:
                if not mark[w] and w != exclude:
                    mark[w] = True
                    stack.append(w)
        return mark

    def topological_order(self) -> List[int]:
        """Vertices in an order where every edge goes forward."""
        indeg = [len(self.pred[v]) for v in range(self.n)]
        ready = [v for v in range(self.n) if indeg[v] == 0]
        order: List[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in self.succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != self.n:
            raise CircuitError("graph is not acyclic")
        return order

    # ------------------------------------------------------------------
    # in-place editing (incremental-engine substrate)
    # ------------------------------------------------------------------
    # All edits preserve the indices of untouched vertices: new vertices
    # take fresh indices at the end, removed vertices become tombstones
    # (``dead``) with no incident edges.  That stability is what lets a
    # cross-edit region cache keyed by vertex index survive edits
    # (:mod:`repro.incremental`) without any re-indexing pass.

    def is_alive(self, v: int) -> bool:
        """True while *v* exists (has not been :meth:`kill_vertex`-ed)."""
        return 0 <= v < self.n and v not in self.dead

    def _require_alive(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise CircuitError(f"vertex {v} out of range for n={self.n}")
        if v in self.dead:
            raise CircuitError(f"vertex {v} has been removed")

    def add_vertex(self, name: Optional[str] = None) -> int:
        """Append an isolated vertex; returns its (fresh) index.

        The vertex starts with no edges — it joins the cone once
        :meth:`add_edge` connects it toward the root.
        """
        if name is not None:
            index = self._ensure_name_index()
            if name in index:
                raise CircuitError(f"a vertex named {name!r} already exists")
        v = self.n
        self.n += 1
        self.version += 1
        self.succ.append([])
        self.pred.append([])
        self.names.append(name)
        if name is not None and self._name_index is not None:
            self._name_index[name] = v
        return v

    def add_edge(self, v: int, w: int) -> None:
        """Insert the edge ``v -> w`` (signal direction), keeping the DAG.

        Parallel edges are allowed (a gate may list the same driver
        twice, e.g. ``NAND(x, x)`` as an inverter).  Raises
        :class:`CircuitError` if the edge would close a cycle.
        """
        self._require_alive(v)
        self._require_alive(w)
        if v == w or self.reachable_from(w)[v]:
            raise CircuitError(
                f"edge {v}->{w} would create a cycle"
            )
        self.succ[v].append(w)
        self.pred[w].append(v)
        self.version += 1

    def remove_edge(self, v: int, w: int) -> None:
        """Remove one occurrence of the edge ``v -> w``."""
        self._require_alive(v)
        self._require_alive(w)
        try:
            self.succ[v].remove(w)
            self.pred[w].remove(v)
        except ValueError:
            raise CircuitError(f"no edge {v}->{w} to remove") from None
        self.version += 1

    def set_fanins(self, v: int, fanins: Sequence[int]) -> List[int]:
        """Replace the fanin list of *v* (a rewire edit).

        Returns the structurally touched vertices: *v* plus the old and
        new fanins.  Raises :class:`CircuitError` if any new fanin is
        reachable from *v* (cycle) or is dead.
        """
        self._require_alive(v)
        new = list(fanins)
        for p in new:
            self._require_alive(p)
        reach = self.reachable_from(v)
        for p in new:
            if reach[p]:
                raise CircuitError(
                    f"fanin {p} of {v} is in {v}'s fanout cone (cycle)"
                )
        old = list(self.pred[v])
        for p in old:
            self.succ[p].remove(v)
        self.pred[v] = new
        for p in new:
            self.succ[p].append(v)
        self.version += 1
        return [v] + old + new

    def kill_vertex(self, v: int) -> List[int]:
        """Tombstone *v*: drop it and every incident edge.

        The index is never reused; the vertex simply stops participating
        in traversals (and loses its name, freeing it for re-use).
        Returns the structurally touched vertices: *v* plus its former
        neighbours.  The root cannot be removed.
        """
        self._require_alive(v)
        if v == self.root:
            raise CircuitError("cannot remove the root vertex")
        touched = [v] + self.pred[v] + self.succ[v]
        for p in list(self.pred[v]):
            self.succ[p] = [w for w in self.succ[p] if w != v]
        for w in list(self.succ[v]):
            self.pred[w] = [p for p in self.pred[w] if p != v]
        self.pred[v] = []
        self.succ[v] = []
        self.dead.add(v)
        self.version += 1
        name = self.names[v]
        if name is not None:
            self.names[v] = None
            if self._name_index is not None:
                self._name_index.pop(name, None)
        return touched

    def _ensure_name_index(self) -> Dict[str, int]:
        if self._name_index is None:
            self._name_index = {
                nm: i for i, nm in enumerate(self.names) if nm is not None
            }
        return self._name_index

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(
        self, keep: Sequence[bool], root: int
    ) -> Tuple["IndexedGraph", List[int]]:
        """Induced subgraph over vertices with ``keep[v]`` true.

        Returns the new graph plus ``orig_of`` mapping new indices back to
        indices of *this* graph.  ``root`` is an index of this graph and
        must be kept.
        """
        if not keep[root]:
            raise CircuitError("subgraph root must be kept")
        orig_of = [v for v in range(self.n) if keep[v]]
        new_of = {v: i for i, v in enumerate(orig_of)}
        succ = [
            [new_of[w] for w in self.succ[v] if keep[w]] for v in orig_of
        ]
        names = [self.names[v] for v in orig_of]
        sub = IndexedGraph(succ, root=new_of[root], names=names)
        return sub, orig_of

    def with_fake_source(self, targets: Iterable[int]) -> "IndexedGraph":
        """Add a fake super-source feeding ``targets`` (paper Section 4).

        The fake vertex gets index ``n`` of the new graph and no name; the
        returned graph shares vertex indices ``0..n-1`` with this one, so
        dominator results translate back directly.
        """
        succ = [list(adj) for adj in self.succ] + [sorted(set(targets))]
        names = list(self.names) + [None]
        return IndexedGraph(succ, root=self.root, names=names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedGraph(n={self.n}, e={self.edge_count()}, root={self.root})"

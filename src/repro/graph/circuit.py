"""The :class:`Circuit` netlist — the central data model of the library.

A circuit is a named, directed acyclic graph whose vertices are primary
inputs and gates, following the paper's model ``C = (V, E, root)``: *V*
represents the set of gates and primary inputs, *E* describes the nets, and
edges are oriented in **signal direction** (from a gate's fanins toward the
gate).  A "path from *u* to *root*" in the paper is therefore a directed
path following fanout edges toward a primary output.

The netlist itself is a :class:`CircuitArrays`: names, gate types and
fanin/fanout id lists with ids in one topological order, plus the
name -> id map.  The ``.bench`` loader writes it directly, and the sweep,
the shared-memory codec and cone extraction read it.  :class:`Circuit` is
the façade over it: a circuit built with :meth:`Circuit.add_gate` keeps
:class:`Node` records and compiles its arrays once, on the first derived
query; a parsed circuit materializes its records only when someone asks
for them.  A mutation drops the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    CircuitError,
    DuplicateNodeError,
    NotADagError,
    UnknownNodeError,
)
from .node import MAX_FANIN, MIN_FANIN, NodeType


@dataclass
class Node:
    """A single vertex of the circuit graph.

    Attributes
    ----------
    name:
        Unique identifier within the circuit.
    type:
        Gate kind (:class:`~repro.graph.node.NodeType`).
    fanins:
        Names of driver nodes, in order (order matters for MUX).
    """

    name: str
    type: NodeType
    fanins: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        lo = MIN_FANIN[self.type]
        hi = MAX_FANIN[self.type]
        if len(self.fanins) < lo or (hi is not None and len(self.fanins) > hi):
            raise CircuitError(
                f"node {self.name!r}: {self.type.value} gate cannot take "
                f"{len(self.fanins)} fanins"
            )


class CircuitArrays:
    """A netlist as int arrays; the form every derived query reads.

    Ids number the nodes in the order of Kahn's algorithm over insertion
    order with a LIFO ready list (see :func:`sort_netlist`), so ids are
    a topological order and every fanin has a lower id than its gate.
    Cone-local vertex ids, and with them every ascending-id tie-break
    and every chain's JSON, are ranks in this numbering.

    Attributes
    ----------
    order, types:
        Name and gate type of each id.
    pred:
        ``pred[i]`` — fanin ids in declared order (order matters for
        MUX); a repeated fanin appears twice.
    succ:
        ``succ[i]`` — ids driven by ``i``, ascending, with the same
        multiplicity.
    index:
        Name -> id.
    insertion:
        Ids in insertion order (the order of the netlist's text).

    The lists are shared between copies of a circuit and never edited in
    place.
    """

    __slots__ = ("order", "types", "pred", "succ", "index", "insertion")

    def __init__(
        self,
        order: List[str],
        types: List[NodeType],
        pred: List[List[int]],
        insertion: List[int],
        succ: Optional[List[List[int]]] = None,
    ):
        self.order = order
        self.types = types
        self.pred = pred
        if succ is None:
            succ = [[] for _ in order]
            for i, drivers in enumerate(pred):
                for d in drivers:
                    succ[d].append(i)
        self.succ = succ
        self.index: Dict[str, int] = dict(zip(order, range(len(order))))
        self.insertion = insertion

    def __getstate__(self):
        return self.order, self.types, self.pred, self.insertion

    def __setstate__(self, state) -> None:
        self.__init__(*state)

    def cone_members(self, output: str) -> List[int]:
        """Ids of ``output``'s transitive fanin, itself included, ascending.

        Ascending ids are a topological order of the cone.
        """
        try:
            root = self.index[output]
        except KeyError:
            raise UnknownNodeError(f"no node named {output!r}") from None
        pred = self.pred
        seen = {root}
        stack = [root]
        while stack:
            for d in pred[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return sorted(seen)


def sort_netlist(
    circuit_name: str,
    names: List[str],
    types: List[NodeType],
    fanins: Sequence[Sequence[str]],
    position: Optional[Dict[str, int]] = None,
) -> CircuitArrays:
    """Number a netlist given in insertion order topologically.

    ``fanins`` names each node's drivers and ``position`` maps a name to
    its insertion index (derived from ``names`` when omitted).  Kahn's
    algorithm starts from the sources in insertion order, pops the ready
    list LIFO and releases a gate's fanouts in insertion order; position
    in that order is the id.

    Raises
    ------
    UnknownNodeError
        For the first node, in insertion order, with an undefined fanin.
    NotADagError
        If the netlist contains a combinational cycle.
    """
    n = len(names)
    if position is None:
        position = dict(zip(names, range(n)))
    released: List[List[int]] = [[] for _ in range(n)]
    try:
        for k, drivers in enumerate(fanins):
            for d in drivers:
                released[position[d]].append(k)
    except KeyError:
        k, driver = next(
            (k, d)
            for k, drivers in enumerate(fanins)
            for d in drivers
            if d not in position
        )
        raise UnknownNodeError(
            f"node {names[k]!r} references undefined fanin {driver!r}"
        ) from None
    indegree = list(map(len, fanins))
    ready = [k for k in range(n) if not indegree[k]]
    # A node pops after all its drivers, so its fanins are renumbered and
    # its fanout entries appended, in ascending id order, on the spot.
    rank = [0] * n
    order: List[int] = []
    pred: List[List[int]] = []
    succ: List[List[int]] = [[] for _ in range(n)]
    pop, push, emit, emit_pred = ready.pop, ready.append, order.append, pred.append
    i = 0
    while ready:
        k = pop()
        emit(k)
        rank[k] = i
        drivers = [rank[position[d]] for d in fanins[k]]
        emit_pred(drivers)
        for d in drivers:
            succ[d].append(i)
        i += 1
        for s in released[k]:
            indegree[s] -= 1
            if not indegree[s]:
                push(s)
    if i != n:
        cyclic = sorted(names[k] for k in range(n) if indegree[k] > 0)
        raise NotADagError(
            f"circuit {circuit_name!r} has a combinational cycle "
            f"involving {cyclic[:5]}..."
        )
    return CircuitArrays(
        [names[k] for k in order], [types[k] for k in order], pred, rank, succ
    )


class Circuit:
    """A combinational circuit netlist.

    Parameters
    ----------
    name:
        Human-readable circuit name (benchmark name).

    Examples
    --------
    >>> c = Circuit("half_adder")
    >>> c.add_input("a")
    'a'
    >>> c.add_input("b")
    'b'
    >>> c.add_gate("sum", NodeType.XOR, ["a", "b"])
    'sum'
    >>> c.add_gate("carry", NodeType.AND, ["a", "b"])
    'carry'
    >>> c.set_outputs(["sum", "carry"])
    >>> sorted(c.inputs)
    ['a', 'b']
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        # At least one of the two forms is present.  When both are, they
        # describe the same netlist; the records are authoritative while
        # the arrays are absent.
        self._records: Optional[Dict[str, Node]] = {}
        self._arrays: Optional[CircuitArrays] = None
        self._inputs: List[str] = []
        self._outputs: List[str] = []

    @classmethod
    def from_arrays(
        cls,
        name: str,
        arrays: CircuitArrays,
        inputs: List[str],
        outputs: List[str],
    ) -> "Circuit":
        """A circuit over already-sorted arrays (loaders and codecs).

        ``inputs`` and ``outputs`` are taken as given: the caller has
        checked that they name nodes of ``arrays`` and that ``outputs``
        holds no duplicate.
        """
        circuit = cls.__new__(cls)
        circuit.name = name
        circuit._records = None
        circuit._arrays = arrays
        circuit._inputs = inputs
        circuit._outputs = outputs
        return circuit

    def __getstate__(self):
        state = dict(self.__dict__)
        if state["_arrays"] is not None:
            state["_records"] = None  # pickles carry the arrays only
        return state

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input. Returns the name for chaining."""
        self._insert(Node(name, NodeType.INPUT))
        self._inputs.append(name)
        return name

    def add_gate(
        self, name: str, node_type: NodeType, fanins: Sequence[str]
    ) -> str:
        """Add a gate driven by already-known or later-defined nodes.

        Fanins may reference names that have not been defined yet; the
        reference is resolved when the circuit is validated or when a
        derived structure is first requested.
        """
        if node_type.is_input:
            raise CircuitError("use add_input() to declare primary inputs")
        self._insert(Node(name, node_type, tuple(fanins)))
        return name

    def add_constant(self, name: str, value: int) -> str:
        """Add a constant-0 or constant-1 driver."""
        node_type = NodeType.CONST1 if value else NodeType.CONST0
        self._insert(Node(name, node_type))
        return name

    def set_outputs(self, names: Iterable[str]) -> None:
        """Declare the primary outputs (order preserved, duplicates merged)."""
        self._outputs = list(dict.fromkeys(names))

    def add_output(self, name: str) -> None:
        """Append one primary output if not already present."""
        if name not in self._outputs:
            self._outputs.append(name)

    def _insert(self, node: Node) -> None:
        records = self._nodes
        if node.name in records:
            raise DuplicateNodeError(f"node {node.name!r} already defined")
        records[node.name] = node

    @property
    def _nodes(self) -> Dict[str, Node]:
        """The name -> :class:`Node` table, for code that edits it.

        The arrays no longer describe the circuit after an edit, so they
        are dropped here and recompiled on the next derived query.
        """
        records = self._node_records()
        self._arrays = None
        return records

    def _node_records(self) -> Dict[str, Node]:
        records = self._records
        if records is None:
            arrays = self._arrays
            names, types, pred = arrays.order, arrays.types, arrays.pred
            records = {}
            for i in arrays.insertion:
                name = names[i]
                records[name] = Node(
                    name, types[i], tuple([names[d] for d in pred[i]])
                )
            # One assignment publishes the complete table to other threads.
            self._records = records
        return records

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        """Primary input names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[str]:
        """Primary output names, in declaration order."""
        return list(self._outputs)

    def node(self, name: str) -> Node:
        """Look up a node by name (raises :class:`UnknownNodeError`)."""
        try:
            return self._node_records()[name]
        except KeyError:
            raise UnknownNodeError(f"no node named {name!r}") from None

    def __contains__(self, name: object) -> bool:
        records = self._records
        if records is not None:
            return name in records
        return name in self._arrays.index

    def __len__(self) -> int:
        records = self._records
        if records is not None:
            return len(records)
        return len(self._arrays.order)

    def __iter__(self) -> Iterator[str]:
        records = self._records
        if records is not None:
            return iter(records)
        return map(self._arrays.order.__getitem__, self._arrays.insertion)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all :class:`Node` records in insertion order."""
        return iter(self._node_records().values())

    def fanins(self, name: str) -> Tuple[str, ...]:
        """Driver names of ``name``."""
        return self.node(name).fanins

    def fanouts(self, name: str) -> List[str]:
        """Names of nodes driven by ``name``, in topological order."""
        arrays = self.arrays()
        names = arrays.order
        return [names[j] for j in arrays.succ[arrays.index[name]]]

    def fanout_degree(self, name: str) -> int:
        """Number of gates driven by ``name`` (the paper's ``Fanout(v)``)."""
        arrays = self.arrays()
        return len(arrays.succ[arrays.index[name]])

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def arrays(self) -> CircuitArrays:
        """The netlist as :class:`CircuitArrays`, compiled on first use.

        Compiling is the circuit's one topological sort.

        Raises
        ------
        UnknownNodeError
            If a gate references an undefined fanin.
        NotADagError
            If the netlist contains a combinational cycle.
        """
        arrays = self._arrays
        if arrays is None:
            records = self._records
            arrays = self._arrays = sort_netlist(
                self.name,
                list(records),
                [node.type for node in records.values()],
                [node.fanins for node in records.values()],
            )
        return arrays

    def topological_order(self) -> List[str]:
        """Node names ordered so every fanin precedes its gate.

        Raises
        ------
        NotADagError
            If the netlist contains a combinational cycle.
        """
        return list(self.arrays().order)

    def validate(self) -> None:
        """Check structural well-formedness, raising :class:`CircuitError`.

        Verifies that all fanin references resolve, the graph is acyclic,
        and every declared output exists.
        """
        arrays = self.arrays()
        for out in self._outputs:
            if out not in arrays.index:
                raise UnknownNodeError(f"declared output {out!r} is undefined")
        for inp in self._inputs:
            if arrays.types[arrays.index[inp]] is not NodeType.INPUT:
                raise CircuitError(f"input list entry {inp!r} is not an INPUT node")

    def gate_count(self) -> int:
        """Number of non-input, non-constant nodes."""
        records = self._records
        types = (
            self._arrays.types
            if records is None
            else [node.type for node in records.values()]
        )
        return sum(1 for node_type in types if node_type.is_gate)

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy (records are immutable and arrays are never edited
        in place, so sharing both is safe)."""
        dup = Circuit(name or self.name)
        dup._records = None if self._records is None else dict(self._records)
        dup._arrays = self._arrays
        dup._inputs = list(self._inputs)
        dup._outputs = list(self._outputs)
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, nodes={len(self)}, "
            f"inputs={len(self._inputs)}, outputs={len(self._outputs)})"
        )

"""High-level, name-based API over circuits.

Everything in :mod:`repro.core` below this module speaks integer vertex
ids of a single-output :class:`~repro.graph.indexed.IndexedGraph`; this
module is the user-facing layer that speaks node *names* and multi-output
:class:`~repro.graph.circuit.Circuit` netlists, and implements the paper's
evaluation counters (Table 1, Columns 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..dominators.shared import DEFAULT_BACKEND
from ..dominators.single import (
    circuit_dominator_tree,
    pi_dominator_vertices,
)
from ..graph.circuit import Circuit
from ..graph.indexed import IndexedGraph
from .algorithm import ChainComputer, dominator_chain
from .baseline import baseline_double_dominators
from .chain import DominatorChain


class NamedDominatorChain:
    """A dominator chain whose queries use node names.

    Thin adapter pairing a :class:`DominatorChain` with the cone it was
    computed on.
    """

    def __init__(self, chain: DominatorChain, graph: IndexedGraph):
        self.chain = chain
        self.graph = graph

    def dominates(self, name1: str, name2: str) -> bool:
        """O(1): is ``{name1, name2}`` a double-vertex dominator?"""
        return self.chain.dominates(
            self.graph.index_of(name1), self.graph.index_of(name2)
        )

    def immediate(self) -> Optional[Tuple[str, str]]:
        """The immediate double-vertex dominator, as names."""
        pair = self.chain.immediate()
        if pair is None:
            return None
        return (self.graph.name_of(pair[0]), self.graph.name_of(pair[1]))

    def pairs(self) -> List[Tuple[str, str]]:
        """Every dominator pair, as names, in chain order."""
        return [
            (self.graph.name_of(v), self.graph.name_of(w))
            for v, w in self.chain.iter_dominator_pairs()
        ]

    def matching_vector(self, name: str) -> List[str]:
        """All partners of ``name``, in chain order."""
        v = self.graph.index_of(name)
        return [self.graph.name_of(w) for w in self.chain.matching_vector(v)]

    def format(self) -> str:
        """Paper-style rendering, e.g. ``<{<a,e,h>, <b,c,d,g>}, ...>``."""
        return self.chain.format(self.graph.name_of)

    def __len__(self) -> int:
        return len(self.chain)


def chain_of(
    circuit: Circuit,
    node: str,
    output: Optional[str] = None,
    algorithm: str = "lt",
    backend: str = DEFAULT_BACKEND,
) -> NamedDominatorChain:
    """Dominator chain of one node within one output cone.

    Examples
    --------
    >>> from repro.circuits.figures import figure2_circuit
    >>> chain_of(figure2_circuit(), "u").dominates("d", "h")
    True
    """
    graph = IndexedGraph.from_circuit(circuit, output)
    chain = dominator_chain(
        graph, graph.index_of(node), algorithm, backend=backend
    )
    return NamedDominatorChain(chain, graph)


@dataclass(frozen=True)
class DominatorCounts:
    """The evaluation counters of Table 1 for one circuit.

    ``single`` / ``double`` are summed over output cones; inside each cone
    dominators common to several primary inputs are counted once, exactly
    as the paper specifies.
    """

    single: int
    double: int


def count_single_dominators(circuit: Circuit, algorithm: str = "lt") -> int:
    """Table 1, Column 4: vertices dominating ≥1 PI, summed over outputs."""
    total = 0
    for out in circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, out)
        tree = circuit_dominator_tree(graph, algorithm)
        total += len(pi_dominator_vertices(tree, graph.sources()))
    return total


def count_double_dominators(
    circuit: Circuit,
    algorithm: str = "lt",
    cache_regions: bool = True,
    backend: str = DEFAULT_BACKEND,
    kernels: str = "python",
) -> int:
    """Table 1, Column 5 with the paper's algorithm.

    For every output cone, computes the dominator chain of every primary
    input and counts the union of their dominator pairs.
    """
    total = 0
    for out in circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, out)
        computer = ChainComputer(
            graph,
            algorithm,
            cache_regions=cache_regions,
            backend=backend,
            kernels=kernels,
        )
        pairs: Set[FrozenSet[int]] = set()
        for u in graph.sources():
            pairs |= computer.chain(u).pair_set()
        total += len(pairs)
    return total


def count_double_dominators_baseline(
    circuit: Circuit, algorithm: str = "lt"
) -> int:
    """Table 1, Column 5 with the baseline algorithm [11]."""
    total = 0
    for out in circuit.outputs:
        graph = IndexedGraph.from_circuit(circuit, out)
        per_target = baseline_double_dominators(graph, algorithm=algorithm)
        pairs: Set[FrozenSet[int]] = set()
        for pair_set in per_target.values():
            pairs |= pair_set
        total += len(pairs)
    return total


def dominator_counts(
    circuit: Circuit, algorithm: str = "lt", backend: str = DEFAULT_BACKEND
) -> DominatorCounts:
    """Columns 4 and 5 of Table 1 for one circuit (new algorithm)."""
    return DominatorCounts(
        single=count_single_dominators(circuit, algorithm),
        double=count_double_dominators(circuit, algorithm, backend=backend),
    )


def all_pi_chains(
    circuit: Circuit,
    output: Optional[str] = None,
    algorithm: str = "lt",
    backend: str = DEFAULT_BACKEND,
) -> Dict[str, NamedDominatorChain]:
    """Chains of every primary input of one cone, keyed by input name."""
    graph = IndexedGraph.from_circuit(circuit, output)
    computer = ChainComputer(graph, algorithm, backend=backend)
    return {
        graph.name_of(u): NamedDominatorChain(computer.chain(u), graph)
        for u in graph.sources()
    }

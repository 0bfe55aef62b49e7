"""Property tests: brute force == baseline [11] == dominator chain.

The edge cases the worked examples never hit are pinned explicitly —
single-gate cones, PI-only cones, multi-fanout roots, fanout-free chains
— then hypothesis sweeps random netlists through the full differential
oracle (which cross-checks construction backends on every target), and
random edit scripts through incremental-vs-scratch.  Backend equivalence
is additionally asserted directly: shared, legacy and linear chains must
agree not just on pair sets but on pair vectors and intervals.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    check_circuit,
    check_cone,
    check_incremental,
    diff_chains,
)
from repro.check.fuzzer import _draw_edits
from repro.circuits.generators import random_circuit
from repro.core.algorithm import ChainComputer
from repro.core.bruteforce import all_double_dominators
from repro.graph import IndexedGraph, NodeType
from repro.graph.circuit import Circuit

from .strategies import small_circuits

_MULTI_INPUT_GATES = [
    NodeType.AND,
    NodeType.OR,
    NodeType.NAND,
    NodeType.NOR,
    NodeType.XOR,
    NodeType.XNOR,
]


class TestDegenerateCones:
    @given(
        st.integers(2, 5),
        st.sampled_from(_MULTI_INPUT_GATES),
    )
    def test_single_gate_cone(self, arity, gate):
        c = Circuit("one_gate")
        fanins = [c.add_input(f"i{k}") for k in range(arity)]
        c.add_gate("g", gate, fanins)
        c.set_outputs(["g"])
        report = check_circuit(c)
        assert report.ok, report.mismatches

    def test_pi_only_cone(self):
        c = Circuit("pi_only")
        c.add_input("a")
        c.add_input("b")
        c.set_outputs(["a"])
        report = check_circuit(c)
        assert report.ok, report.mismatches

    def test_fanout_free_chain(self):
        c = Circuit("chain")
        sig = c.add_input("i0")
        for k in range(5):
            sig = c.add_gate(f"b{k}", NodeType.BUF, [sig])
        c.set_outputs([sig])
        report = check_circuit(c)
        assert report.ok, report.mismatches

    def test_multi_fanout_root(self):
        c = Circuit("mf_root")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_gate("l", NodeType.AND, [a, b])
        c.add_gate("r", NodeType.OR, [a, b])
        c.add_gate("root", NodeType.XOR, ["l", "r"])
        c.set_outputs(["root"])
        report = check_circuit(c)
        assert report.ok, report.mismatches
        # Every PI must be checkable as a target, not just the first.
        graph = IndexedGraph.from_circuit(c)
        assert check_cone(graph, targets=list(graph.sources())) == []


class TestRandomCones:
    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_three_way_agreement(self, circuit):
        report = check_circuit(circuit, brute_limit=64)
        assert report.ok, [str(m) for m in report.mismatches]
        assert report.brute_confirmed == report.targets


class TestBackendEquivalence:
    """The shared array-index backend and the linear one-pass backend
    must be indistinguishable from the legacy per-call-subgraph backend
    — identical pair vectors and intervals for every target, not merely
    the same pair set."""

    @given(small_circuits())
    @settings(max_examples=40, deadline=None)
    def test_chains_identical_across_backends(self, circuit):
        for out in circuit.outputs:
            graph = IndexedGraph.from_circuit(circuit, out)
            shared = ChainComputer(graph, backend="shared")
            for u in graph.sources():
                reference = shared.chain(u)
                for backend in ("legacy", "linear"):
                    other = ChainComputer(graph, backend=backend)
                    divergence = diff_chains(reference, other.chain(u))
                    assert divergence is None, (
                        f"{out}/{u} vs {backend}: {divergence}"
                    )

    @given(st.integers(2, 5), st.sampled_from(_MULTI_INPUT_GATES))
    def test_single_gate_cone_all_backends(self, arity, gate):
        # The whole cone is one search region with no interior vertex,
        # so every backend must return an empty chain for every PI.
        c = Circuit("one_gate_backends")
        fanins = [c.add_input(f"i{k}") for k in range(arity)]
        c.add_gate("g", gate, fanins)
        c.set_outputs(["g"])
        graph = IndexedGraph.from_circuit(c)
        for backend in ("shared", "legacy", "linear"):
            computer = ChainComputer(graph, backend=backend)
            for u in graph.sources():
                chain = computer.chain(u)
                assert chain.pair_set() == set(), backend
                assert diff_chains(
                    chain, ChainComputer(graph, backend="legacy").chain(u)
                ) is None

    @given(small_circuits())
    @settings(max_examples=25, deadline=None)
    def test_linear_scratch_reuse_bit_identical(self, circuit):
        # One linear ChainComputer reuses its cone's epoch-stamped
        # scratch across every region of every target; a fresh computer
        # on a fresh cone index per target starts from a cold scratch.
        # The chains must be bit-identical (pair vectors, intervals,
        # grouping) either way.
        for out in circuit.outputs:
            graph = IndexedGraph.from_circuit(circuit, out)
            warm = ChainComputer(graph, backend="linear")
            for u in graph.sources():
                graph._shared_index = None
                cold = ChainComputer(graph, backend="linear")
                divergence = diff_chains(cold.chain(u), warm.chain(u))
                assert divergence is None, f"{out}/{u}: {divergence}"

    def test_straddling_dominator_pairs(self):
        # Two reconvergent diamonds stacked through a single dominator
        # ``s``: the chain of ``u`` is u -> s -> root with one pair in
        # each search region — {a, c} below s and {b, d} above it.  The
        # pairs straddle the region boundary, the shape where per-region
        # index bookkeeping (offsets, interval renumbering) can go wrong.
        c = Circuit("straddle")
        u = c.add_input("u")
        c.add_gate("a", NodeType.BUF, [u])
        c.add_gate("c", NodeType.NOT, [u])
        c.add_gate("s", NodeType.AND, ["a", "c"])
        c.add_gate("b", NodeType.BUF, ["s"])
        c.add_gate("d", NodeType.NOT, ["s"])
        c.add_gate("root", NodeType.OR, ["b", "d"])
        c.set_outputs(["root"])
        graph = IndexedGraph.from_circuit(c)
        target = graph.index_of("u")
        expected = {
            frozenset({graph.index_of("a"), graph.index_of("c")}),
            frozenset({graph.index_of("b"), graph.index_of("d")}),
        }
        assert all_double_dominators(graph, target) == expected
        chains = {
            backend: ChainComputer(graph, backend=backend).chain(target)
            for backend in ("shared", "legacy", "linear")
        }
        for backend, chain in chains.items():
            assert chain.pair_set() == expected, backend
        assert diff_chains(chains["shared"], chains["legacy"]) is None
        assert diff_chains(chains["shared"], chains["linear"]) is None
        report = check_circuit(c)
        assert report.ok, [str(m) for m in report.mismatches]


class TestIncrementalAgreement:
    @given(st.integers(0, 60))
    @settings(max_examples=25, deadline=None)
    def test_random_edit_sequences(self, seed):
        rng = random.Random(f"diff-inc:{seed}")
        circuit = random_circuit(
            num_inputs=rng.randint(2, 4),
            num_gates=rng.randint(3, 12),
            num_outputs=1,
            seed=rng.randrange(1 << 30),
            name=f"inc_{seed}",
        )
        edits = _draw_edits(rng, circuit, rng.randint(1, 4))
        mismatches = check_incremental(circuit, edits)
        assert mismatches == [], [str(m) for m in mismatches]

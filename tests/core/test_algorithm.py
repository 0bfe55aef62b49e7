"""Tests for the DOMINATORCHAIN driver (core.algorithm)."""

import pytest

from repro.circuits.generators import (
    cascade,
    dual_rail_parity,
    parity_tree,
    random_single_output,
)
from repro.core import (
    ChainComputer,
    all_double_dominators,
    baseline_double_dominators,
    dominator_chain,
)
from repro.errors import UnreachableVertexError
from repro.graph import IndexedGraph


def _graph(circuit):
    return IndexedGraph.from_circuit(circuit, circuit.outputs[0])


class TestBasics:
    def test_root_has_empty_chain(self, fig2_graph):
        chain = dominator_chain(fig2_graph, fig2_graph.root)
        assert not chain
        assert chain.num_dominators() == 0

    def test_tree_has_no_double_dominators(self):
        """Section 6: a tree-like circuit has zero double dominators."""
        graph = _graph(parity_tree(16))
        computer = ChainComputer(graph)
        for u in range(graph.n):
            if u == graph.root:
                continue
            assert computer.chain(u).num_dominators() == 0

    def test_dual_rail_parity_has_double_dominators(self):
        """Re-introducing reconvergence re-introduces pairs."""
        graph = _graph(dual_rail_parity(8))
        total = sum(
            ChainComputer(graph).chain(u).num_dominators()
            for u in graph.sources()
        )
        assert total > 0

    def test_unreachable_target_raises(self):
        graph = _graph(parity_tree(4))
        with pytest.raises(IndexError):
            dominator_chain(graph, graph.n + 5)

    def test_chain_target_recorded(self, fig2_graph):
        u = fig2_graph.index_of("u")
        assert dominator_chain(fig2_graph, u).target == u


class TestCacheEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_cached_equals_uncached(self, seed):
        graph = _graph(random_single_output(5, 40, seed=seed))
        cached = ChainComputer(graph, cache_regions=True)
        uncached = ChainComputer(graph, cache_regions=False)
        for u in graph.sources():
            a = cached.chain(u)
            b = uncached.chain(u)
            assert a.pair_set() == b.pair_set()
            assert [p.side1 for p in a.pairs] == [p.side1 for p in b.pairs]

    def test_cache_reused_across_targets(self):
        graph = _graph(cascade(depth=12, num_inputs=4, num_outputs=1))
        computer = ChainComputer(graph)
        for u in graph.sources():
            computer.chain(u)
        # Regions are keyed by entry vertex; every chain walk after the
        # first only adds its own first region.
        assert len(computer._region_cache) <= graph.n

    def test_chains_for_sources(self):
        graph = _graph(random_single_output(4, 25, seed=1))
        chains = ChainComputer(graph).chains_for_sources()
        assert set(chains) == set(graph.sources())


class TestAgainstReferences:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        graph = _graph(random_single_output(4, 18, seed=seed))
        computer = ChainComputer(graph)
        for u in graph.sources():
            assert computer.chain(u).pair_set() == all_double_dominators(
                graph, u
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_baseline_on_larger(self, seed):
        graph = _graph(random_single_output(6, 90, seed=seed + 100))
        base = baseline_double_dominators(graph)
        computer = ChainComputer(graph)
        for u in graph.sources():
            assert computer.chain(u).pair_set() == base[u]

    @pytest.mark.parametrize("engine", ["lt", "iterative", "naive"])
    def test_inner_engine_irrelevant(self, engine, fig2_graph):
        u = fig2_graph.index_of("u")
        chain = dominator_chain(fig2_graph, u, algorithm=engine)
        assert chain.num_dominators() == 12

    def test_internal_gate_targets(self):
        """Chains are defined for any vertex, not just primary inputs."""
        graph = _graph(random_single_output(4, 30, seed=7))
        computer = ChainComputer(graph)
        for u in range(graph.n):
            if u == graph.root:
                continue
            assert computer.chain(u).pair_set() == all_double_dominators(
                graph, u
            )


class TestChainShape:
    @pytest.mark.parametrize("seed", range(5))
    def test_pairs_link_via_common_dominator(self, seed):
        """Definition 3 property 2 (executable form): each pair's first
        elements form a *common* double-vertex dominator of the previous
        pair's last elements.

        Note the immediate common dominator of the last elements can lie
        outside D(u) entirely (the last elements need not be a dominator
        pair of u themselves, so their joint paths are a superset of u's),
        which is why membership — not equality with the immediate — is
        the invariant tested here; completeness of the chain against the
        brute-force enumeration is covered elsewhere.
        """
        from repro.core.common import common_chain

        graph = _graph(random_single_output(4, 30, seed=seed + 50))
        computer = ChainComputer(graph)
        for u in graph.sources():
            chain = computer.chain(u)
            for prev, nxt in zip(chain.pairs, chain.pairs[1:]):
                common = common_chain(graph, list(prev.last))
                assert common.dominates(nxt.first[0], nxt.first[1])
                assert not set(nxt.first) & set(prev.last)


class TestSingleFanoutShortcut:
    """Cells whose entry has one fanout are skipped before any lookup."""

    def test_default_backend_is_linear(self, fig2_graph):
        from repro.dominators.shared import DEFAULT_BACKEND

        assert DEFAULT_BACKEND == "linear"
        assert ChainComputer(fig2_graph).backend == "linear"

    def test_quick_suite_matches_every_backend_and_baseline(self):
        from repro.check.oracle import diff_chains
        from repro.circuits.suite import QUICK_SUBSET, table1_suite

        suite = table1_suite()
        for name in QUICK_SUBSET:
            circuit = suite[name].circuit(0.1)
            for out in circuit.outputs:
                graph = IndexedGraph.from_circuit(circuit, out)
                production = ChainComputer(graph)
                references = [
                    ChainComputer(graph, backend=b)
                    for b in ("legacy", "shared")
                ]
                sources = graph.sources()
                baseline = baseline_double_dominators(graph, sources)
                for u in sources:
                    chain = production.chain(u)
                    for ref in references:
                        divergence = diff_chains(chain, ref.chain(u))
                        assert divergence is None, (name, out, u, divergence)
                    assert chain.pair_set() == baseline[u], (name, out, u)

    def test_single_fanout_cells_never_reach_the_cache(self, fig2_graph):
        # Figure 2: e -> h -> t are single-fanout cells; only t's region
        # (the {k, m} x {l, n} ladder) is looked up and expanded.
        graph = fig2_graph
        computer = ChainComputer(graph)
        chain = computer.chain(graph.index_of("e"))
        stats = computer.cache_stats
        assert stats.lookups == 1 and stats.stores == 1
        assert set(computer._region_cache) == {graph.index_of("t")}
        assert chain.num_dominators() == 4

    def test_skip_covers_region_between_path(self, fig2_graph):
        graph = fig2_graph
        tree = ChainComputer(graph).tree
        indexed = ChainComputer(graph)
        on_demand = ChainComputer(graph, tree=tree, shared_index=False)
        for u in graph.sources():
            assert indexed.chain(u).pair_set() == on_demand.chain(u).pair_set()
        starts = set(on_demand._region_cache)
        assert all(len(graph.succ[s]) > 1 for s in starts)

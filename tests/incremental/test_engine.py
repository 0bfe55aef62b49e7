"""IncrementalEngine: laziness, invalidation precision, equivalence."""

import pytest

from repro.circuits.figures import figure2_circuit
from repro.circuits.generators import cascade
from repro.core import ChainComputer
from repro.errors import CircuitError, UnknownNodeError
from repro.graph import IndexedGraph
from repro.incremental import (
    AddGate,
    IncrementalEngine,
    RemoveGate,
    ReplaceSubgraph,
    Rewire,
    xor_to_nand_edit,
)


def assert_equivalent(engine):
    """Engine chains == from-scratch chains on the engine's live graph."""
    fresh = ChainComputer(engine.graph)
    tree = engine.tree
    for u in engine.graph.sources():
        if not tree.is_reachable(u):
            continue
        a, b = engine.chain(u), fresh.chain(u)
        assert a.pair_set() == b.pair_set()
        for v in a.vertices():
            assert a.matching_vector(v) == b.matching_vector(v)
            assert a.interval(v) == b.interval(v)


@pytest.fixture
def engine():
    return IncrementalEngine.from_circuit(figure2_circuit())


class TestSession:
    def test_cold_then_warm_queries(self, engine):
        first = engine.chain("u")
        stats = engine.cache_stats
        assert stats.misses > 0 and stats.hits == 0
        # warm query is served from the assembled-chain cache wholesale
        assert engine.chain("u") is first
        assert engine.stats.chain_hits == 1
        # no edits -> exactly one tree rebuild
        assert engine.stats.flushes == 1

    def test_region_cache_feeds_sibling_chains(self, engine):
        engine.chain("u")
        misses = engine.cache_stats.misses
        # a different PI shares upper chain cells -> region hits, no
        # chain hit (it was never assembled before)
        engine.chain("a")
        assert engine.cache_stats.hits > 0
        assert engine.cache_stats.misses >= misses
        assert engine.stats.chain_hits == 0

    def test_name_and_index_queries_agree(self, engine):
        by_name = engine.chain("u")
        by_index = engine.chain(engine.graph.index_of("u"))
        assert by_name.pair_set() == by_index.pair_set()

    def test_gate_types_recorded(self, engine):
        assert engine.gate_types["u"] == "input"
        engine.apply(AddGate("nb", ("d",), "buf"))
        assert engine.gate_types["nb"] == "buf"

    def test_edit_log(self, engine):
        edits = (AddGate("nb", ("d",), "buf"), RemoveGate("nb"))
        engine.apply(*edits)
        assert tuple(engine.log) == edits
        assert engine.stats.edits == 2

    def test_dominates_convenience(self, engine):
        assert engine.dominates("d", "h", "u")
        assert not engine.dominates("g", "a", "u")


class TestEquivalenceAfterEdits:
    def test_add_gate(self, engine):
        engine.chain("u")
        engine.apply(AddGate("nb", ("d", "g"), "and"))
        assert_equivalent(engine)

    def test_remove_gate(self, engine):
        engine.chain("u")
        engine.apply(RemoveGate("k"))
        assert_equivalent(engine)

    def test_rewire(self, engine):
        engine.chain("u")
        engine.apply(Rewire("k", ("e", "h")))
        assert_equivalent(engine)

    def test_replace_subgraph_buffer_insertion(self, engine):
        engine.chain("u")
        # insert a buffer on the d -> f net
        g = engine.graph
        f_fanins = [g.name_of(p) for p in g.pred[g.index_of("f")]]
        engine.apply(
            ReplaceSubgraph(
                add=(AddGate("dbuf", ("d",), "buf"),),
                rewire=(
                    Rewire(
                        "f",
                        tuple("dbuf" if n == "d" else n for n in f_fanins),
                    ),
                ),
            )
        )
        assert_equivalent(engine)

    def test_xor_expansion_rewrite(self):
        # an engine on a cone that contains an XOR gate
        from repro.graph import CircuitBuilder

        b = CircuitBuilder("xor_cone")
        a, c, d = b.inputs("a", "c", "d")
        x = b.xor(a, c, name="x")
        out = b.and_(x, d, name="out")
        engine = IncrementalEngine.from_circuit(b.finish([out]))
        before = engine.chain("a").pair_set()
        engine.apply(xor_to_nand_edit("x", "a", "c"))
        assert engine.gate_types["x"] == "nand"
        after = engine.chain("a")
        assert_equivalent(engine)
        # the expansion adds reconvergence; previous dominators survive
        assert before <= after.pair_set()

    def test_edit_stream_stays_equivalent(self, engine):
        engine.chains_for_sources()
        engine.apply(AddGate("s1", ("b", "c"), "or"))
        assert_equivalent(engine)
        engine.apply(Rewire("t", ("s1",)))
        assert_equivalent(engine)
        engine.apply(RemoveGate("m"))
        assert_equivalent(engine)


class TestInvalidationPrecision:
    def test_untouched_regions_survive_edits(self):
        graph = IndexedGraph.from_circuit(
            cascade(depth=20, num_inputs=4, num_outputs=1)
        )
        engine = IncrementalEngine(graph)
        engine.chains_for_sources()
        entries_before = len(engine.cache)
        assert entries_before > 5
        # a single-gate edit deep in the cascade dirties few regions
        gate = next(
            v
            for v in range(graph.n)
            if graph.pred[v] and len(graph.pred[v]) >= 2
        )
        fanins = list(graph.pred[gate])
        engine.apply(
            Rewire(graph.name_of(gate), tuple(graph.name_of(p) for p in fanins[::-1]))
        )
        engine.chains_for_sources()
        # most entries survived: far fewer evictions than entries
        assert engine.stats.evictions < entries_before / 2
        assert engine.cache_stats.hits > 0

    def test_noop_apply_keeps_computer(self, engine):
        engine.chain("u")
        flushes = engine.stats.flushes
        engine.apply()  # empty batch
        engine.chain("u")
        assert engine.stats.flushes == flushes

    def test_clear_eviction_counted(self, engine):
        engine.chain("u")
        entries = len(engine.cache)
        assert engine.cache.clear() == entries
        assert engine.cache_stats.invalidations >= entries


def deliver_as_patch(engine, edits):
    """All edits in one ``apply``: the next flush folds them together."""
    engine.apply(*edits)


def deliver_dynamically(engine, edits):
    """One ``apply`` and one flush per edit: the maintainer updates its
    tree once per edit."""
    for edit in edits:
        engine.apply(edit)
        engine.flush()


DELIVERY = {"patch": deliver_as_patch, "dynamic": deliver_dynamically}


class TestSingleFanoutCells:
    """Chains crossing never-expanded single-fanout cells (Figure 2:
    ``e -> h -> t`` each have one fanout), with the edits delivered as
    one batch (``patch``) or one flushed edit at a time (``dynamic``)."""

    @pytest.mark.parametrize("kind", sorted(DELIVERY))
    def test_requery_without_edits_hits(self, kind):
        engine = IncrementalEngine.from_circuit(figure2_circuit())
        # A buffer spliced into region 2 (k -> z -> m) leaves e, h and t
        # single-fanout, so e's chain still needs no cached region.
        DELIVERY[kind](
            engine, (AddGate("z", ("k",), "buf"), Rewire("m", ("z",)))
        )
        first = engine.chain("e")
        assert engine.cache.entry_for(engine.resolve("e")) is None
        assert engine.chain("e") is first
        assert engine.stats.chain_hits == 1
        assert_equivalent(engine)

    @pytest.mark.parametrize("kind", sorted(DELIVERY))
    def test_second_fanout_recomputes(self, kind):
        engine = IncrementalEngine.from_circuit(figure2_circuit())
        before = engine.chain("e")
        cells = engine.tree.chain(engine.resolve("e"))
        # e now fans out to x and y, which reconverge at h: the tree
        # chain keeps its cells, but {x, y} is a new pair of e.
        DELIVERY[kind](
            engine,
            (
                AddGate("x", ("e",), "buf"),
                AddGate("y", ("e",), "not"),
                Rewire("h", ("x", "y", "d")),
            ),
        )
        after = engine.chain("e")
        assert engine.tree.chain(engine.resolve("e")) == cells
        assert engine.stats.chain_hits == 0
        assert after is not before
        x, y = engine.resolve("x"), engine.resolve("y")
        assert frozenset((x, y)) in after.pair_set()
        assert_equivalent(engine)


class TestErrors:
    def test_unknown_fanin(self, engine):
        with pytest.raises(UnknownNodeError):
            engine.apply(AddGate("g9", ("nope",)))

    def test_duplicate_name(self, engine):
        with pytest.raises(CircuitError):
            engine.apply(AddGate("u", ("d",)))

    def test_cycle_rejected(self, engine):
        with pytest.raises(CircuitError):
            engine.apply(Rewire("a", ("f",)))  # f is downstream of a

    def test_root_removal_rejected(self, engine):
        root_name = engine.graph.name_of(engine.graph.root)
        with pytest.raises(CircuitError):
            engine.apply(RemoveGate(root_name))

    def test_not_an_edit(self, engine):
        with pytest.raises(CircuitError):
            engine.apply("rewire k")


class TestDisconnection:
    def test_orphaned_source_excluded(self, engine):
        # Rewiring every fanout of source u to drop it leaves u unable to
        # reach the root; it must silently vanish from the PI workload.
        g = engine.graph
        engine.chains_for_sources()
        u = g.index_of("u")
        for w in set(g.succ[u]):
            keep = tuple(
                g.name_of(p) for p in g.pred[w] if p != u
            )
            engine.apply(Rewire(g.name_of(w), keep))
        chains = engine.chains_for_sources()
        assert u not in chains
        assert_equivalent(engine)

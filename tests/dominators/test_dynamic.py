"""Unit tests for the dynamic dominator maintainer and low-high orders.

The maintainer's contract is exact equivalence with a static recompute
on the post-edit graph; the low-high module's contract is that an empty
verification *certifies* a tree and that corrupted trees are rejected.
"""

import random

import pytest

from repro.circuits.generators.random_dag import random_circuit
from repro.dominators.dynamic import (
    EDGE_ADD,
    EDGE_REMOVE,
    VERTEX_ADD,
    VERTEX_REMOVE,
    DynamicDominators,
    LowHighError,
    certify_tree,
    compute_low_high,
    verify_low_high,
)
from repro.dominators.lengauer_tarjan import UNREACHABLE
from repro.dominators.single import circuit_idoms
from repro.dominators.tree import DominatorTree
from repro.errors import UnreachableVertexError
from repro.graph.indexed import IndexedGraph


def _graph(seed, gates=40, inputs=6):
    circuit = random_circuit(num_inputs=inputs, num_gates=gates, seed=seed)
    return IndexedGraph.from_circuit(circuit)


def _assert_consistent(maintainer):
    """idom matches a static recompute; depths/children match idom."""
    graph = maintainer.graph
    expected = circuit_idoms(graph, "dsu")
    assert maintainer.idom == expected
    for v, p in enumerate(maintainer.idom):
        if v == graph.root or p == UNREACHABLE:
            continue
        assert maintainer.depth[v] == maintainer.depth[p] + 1
        assert v in maintainer.children[p]
    assert maintainer.certificate() == []


def _random_mutation(rng, graph, deltas, counter):
    """One valid in-place graph mutation, recording its deltas."""
    alive = [v for v in range(graph.n) if graph.is_alive(v) and v != graph.root]
    roll = rng.random()
    if roll < 0.3 and len(alive) > 6:
        for _ in range(10):
            v = rng.choice(alive)
            try:
                old_preds = list(graph.pred[v])
                old_succs = list(graph.succ[v])
                graph.kill_vertex(v)
            except Exception:
                continue
            for p in old_preds:
                deltas.append((EDGE_REMOVE, p, v))
            for s in old_succs:
                deltas.append((EDGE_REMOVE, v, s))
            deltas.append((VERTEX_REMOVE, v))
            return
    if roll < 0.6 and len(alive) > 4:
        for _ in range(10):
            v = rng.choice([u for u in alive if graph.pred[u]] or alive)
            pool = [u for u in alive if u != v]
            fanins = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            old_preds = list(graph.pred[v])
            try:
                graph.set_fanins(v, fanins)
            except Exception:
                continue
            for p in old_preds:
                deltas.append((EDGE_REMOVE, p, v))
            for f in fanins:
                deltas.append((EDGE_ADD, f, v))
            return
    fanins = rng.sample(alive, min(len(alive), rng.randint(1, 3)))
    v = graph.add_vertex(f"dyn_{counter}")
    deltas.append((VERTEX_ADD, v))
    for f in fanins:
        graph.add_edge(f, v)
        deltas.append((EDGE_ADD, f, v))


@pytest.mark.parametrize("seed", range(8))
def test_maintainer_matches_static_over_edit_stream(seed):
    rng = random.Random(seed)
    graph = _graph(seed)
    maintainer = DynamicDominators(graph)
    _assert_consistent(maintainer)
    for step in range(15):
        deltas = []
        for sub in range(rng.randint(1, 3)):  # coalesced batch
            _random_mutation(rng, graph, deltas, f"{seed}_{step}_{sub}")
        maintainer.apply_batch(deltas)
        _assert_consistent(maintainer)
    assert maintainer.stats.batches > 0


def test_lateral_reparent_batch_updates_downstream_nca():
    """Regression: same-depth re-parenting must reach dependent folds.

    One batch rewires vertex 1 onto 5 and vertex 2 onto 3: vertex 3
    re-parents *laterally* (idom 1 -> 2 at unchanged depth), leaving
    its subtree's ``(idom, depth)`` pairs intact while the NCA of the
    reconvergent sink 6 (flow preds 4 and 5) moves from 1 to the root.
    Pruning on direct predecessor ``(idom, depth)`` changes alone
    silently kept the stale ``idom[6] = 1`` here; the dirty-ancestor
    propagation must re-fold 6.
    """
    graph = IndexedGraph([[], [0], [0], [1], [3], [1], [4, 5]], root=0)
    maintainer = DynamicDominators(graph, max_region_fraction=1.0)
    maintainer.MIN_REGION = graph.n + 1  # never fall back to a rebuild
    assert maintainer.idom[6] == 1
    deltas = []
    for v, fanins in ((1, [5]), (2, [3])):
        old = list(graph.pred[v])
        graph.set_fanins(v, fanins)
        deltas.extend((EDGE_REMOVE, p, v) for p in old)
        deltas.extend((EDGE_ADD, f, v) for f in fanins)
    assert maintainer.apply_batch(deltas) is not None  # swept, no rebuild
    assert maintainer.idom[3] == 2  # the lateral re-parent itself
    assert maintainer.idom[6] == 0  # the downstream fold it must reach
    _assert_consistent(maintainer)


@pytest.mark.parametrize("seed", range(6))
def test_maintainer_matches_static_without_fallback(seed):
    """Deletion-heavy streams with the rebuild fallback disabled.

    The random-stream test above can mask sweep bugs behind threshold
    rebuilds; this variant forces every batch through the pruned region
    sweep, so any unsound pruning shows up as an idom mismatch.
    """
    rng = random.Random(1000 + seed)
    graph = _graph(seed, gates=30)
    maintainer = DynamicDominators(graph, max_region_fraction=1.0)
    maintainer.MIN_REGION = 10**9
    for step in range(12):
        deltas = []
        for sub in range(rng.randint(1, 4)):
            _random_mutation(rng, graph, deltas, f"nf_{seed}_{step}_{sub}")
        maintainer.apply_batch(deltas)
        _assert_consistent(maintainer)
    assert maintainer.stats.fallback_rebuilds == 0


def test_empty_batch_is_free():
    graph = _graph(1)
    maintainer = DynamicDominators(graph)
    assert maintainer.apply_batch([]) == set()
    # opposite records cancel before any work happens
    v, w = graph.root, next(iter(graph.pred[graph.root]))
    cancelling = [(EDGE_ADD, w, v), (EDGE_REMOVE, w, v)]
    assert maintainer.apply_batch(cancelling) == set()
    assert maintainer.stats.batches == 0


def test_single_insert_with_unreachable_tail_short_circuits():
    graph = _graph(2)
    maintainer = DynamicDominators(graph)
    # A fresh vertex with no fanout cannot reach the root: an edge INTO
    # it (signal target = flow tail) lies on no root path.
    orphan = graph.add_vertex("orphan")
    src = next(v for v in range(graph.n) if graph.is_alive(v) and v != orphan)
    maintainer.apply_batch([(VERTEX_ADD, orphan)])
    before = list(maintainer.idom)
    graph.add_edge(src, orphan)
    region = maintainer.apply_batch([(EDGE_ADD, src, orphan)])
    assert region is not None
    assert maintainer.idom == before
    assert maintainer.stats.dbs_insertions == 0 or maintainer.idom == before
    _assert_consistent(maintainer)


def test_fallback_rebuild_over_region_threshold():
    graph = _graph(3, gates=30)
    maintainer = DynamicDominators(graph, max_region_fraction=0.0)
    maintainer.MIN_REGION = 0  # force the fractional gate on a small cone
    rng = random.Random(3)
    deltas = []
    _random_mutation(rng, graph, deltas, "fb")
    assert maintainer.apply_batch(deltas) is None
    assert maintainer.stats.fallback_rebuilds == 1
    _assert_consistent(maintainer)


def test_dynamic_tree_matches_dominator_tree():
    graph = _graph(4)
    maintainer = DynamicDominators(graph)
    live = maintainer.tree
    static = DominatorTree(circuit_idoms(graph, "dsu"), graph.root)
    assert live.idom == static.idom
    assert live.root == static.root
    reachable = [v for v in range(graph.n) if static.is_reachable(v)]
    assert sorted(live.iter_reachable()) == reachable
    for v in reachable:
        assert live.is_reachable(v)
        assert live.chain(v) == static.chain(v)
        assert live.depth(v) == static.depth(v)
        assert live.children(v) == static.children(v)
    for a in reachable[:12]:
        for b in reachable[:12]:
            assert live.dominates(a, b) == static.dominates(a, b)
            assert live.strictly_dominates(a, b) == static.strictly_dominates(
                a, b
            )
    dead = next(
        (v for v in range(graph.n) if not static.is_reachable(v)), None
    )
    if dead is not None:
        with pytest.raises(UnreachableVertexError):
            live.chain(dead)


# ----------------------------------------------------------------------
# low-high orders
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_low_high_certifies_true_trees(seed):
    graph = _graph(seed, gates=35)
    idom = circuit_idoms(graph, "dsu")
    delta = compute_low_high(graph, idom)
    assert verify_low_high(graph, idom, delta) == []
    assert certify_tree(graph, idom) == []


@pytest.mark.parametrize("seed", range(10))
def test_low_high_rejects_corrupted_trees(seed):
    """Re-parenting any vertex yields a certificate failure.

    The dominator tree of a graph is unique, so *every* array that
    differs from the true tree must either break the construction or
    fail verification.
    """
    graph = _graph(seed, gates=35)
    idom = circuit_idoms(graph, "dsu")
    rng = random.Random(seed)
    deep = [
        v
        for v in range(graph.n)
        if v != graph.root
        and idom[v] != UNREACHABLE
        and idom[v] != graph.root
    ]
    if not deep:
        pytest.skip("no vertex below depth 1 in this draw")
    corrupted = 0
    for _ in range(5):
        v = rng.choice(deep)
        bad = list(idom)
        bad[v] = idom[idom[v]]  # hoist to the grandparent
        assert certify_tree(graph, bad) != []
        corrupted += 1
    assert corrupted == 5


def test_low_high_rejects_wrong_reachable_span():
    graph = _graph(11)
    idom = circuit_idoms(graph, "dsu")
    unreachable = next(
        (
            v
            for v in range(graph.n)
            if idom[v] == UNREACHABLE and graph.is_alive(v)
        ),
        None,
    )
    if unreachable is None:
        graph.add_vertex("floating")
        idom = circuit_idoms(graph, "dsu")
        unreachable = graph.n - 1
    bad = list(idom)
    bad[unreachable] = graph.root  # claims an unreachable vertex
    assert certify_tree(graph, bad) != []


def test_low_high_construction_rejects_broken_parents():
    graph = _graph(12)
    idom = circuit_idoms(graph, "dsu")
    bad = list(idom)
    bad[graph.root] = UNREACHABLE
    with pytest.raises(LowHighError):
        compute_low_high(graph, bad)
    assert certify_tree(graph, bad) != []


def test_low_high_construction_rejects_parent_cycle():
    """Regression: idom links forming a cycle off the root must raise a
    LowHighError, not leak a KeyError out of the placement pass."""
    graph = IndexedGraph(
        [[], [0], [1, 0], [1, 0], [3], [2], [3], [0, 5], [5]], root=0
    )
    bad = [0, 0, 0, 0, 3, 8, 8, 0, 5]  # 5 -> 8 -> 5 never reaches the root
    with pytest.raises(LowHighError, match="does not reach the root"):
        compute_low_high(graph, bad)
    assert certify_tree(graph, bad) != []


def test_low_high_construction_rejects_unplaced_derived_sibling():
    """Regression: a corrupted tree can ask for a derived sibling that
    is not placed yet; that must surface as a LowHighError (so
    certify_tree reports a violation) instead of a raw ValueError from
    ``placed.index``."""
    graph = IndexedGraph([[], [0], [1, 0], [0], [1, 3], [0], [3, 0]], root=0)
    bad = [0, 0, 0, 6, 0, 1, 0]  # true idom[3] is 0; 6 is topo-after 4
    with pytest.raises(LowHighError, match="is not placed before it"):
        compute_low_high(graph, bad)
    assert certify_tree(graph, bad) != []

"""Property: the fused linear pass equals the shared expansion per region.

:func:`repro.dominators.linear.region_chain_pairs` walks the cone's own
arrays — forward reach pruned at the sink, implicit vertex-split flow —
where the ``shared`` backend extracts a region copy and runs DOUBLEIDOM
plus matching on it.  For every ``(v, idom v)`` of a cone both must give
the same member set and the same pairs, vector for vector.  The cones
include edited ones from the dynamic engine, whose appended gates break
topological id order and may dangle (reachable, but not reaching the
root), and one scratch serves every cone and every graph version.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm import _expand_region
from repro.core.regions import SearchRegion
from repro.dominators.linear import ConeScratch, region_chain_pairs
from repro.dominators.shared import SharedConeIndex
from repro.dominators.single import circuit_dominator_tree
from repro.graph import IndexedGraph, region_between
from repro.incremental import IncrementalEngine

from .strategies import small_circuits
from .test_incremental_engine import draw_edit


def assert_pass_matches_shared(graph, scratch):
    """Every region of ``graph``: linear pass == shared expansion."""
    tree = circuit_dominator_tree(graph)
    index = SharedConeIndex(graph)
    for v in tree.iter_reachable():
        if v == graph.root:
            continue
        sink = tree.idom[v]
        members, pairs = region_chain_pairs(graph, v, sink, scratch)
        view, orig_of, local_start = index.extract_region(v, sink)
        region = SearchRegion(
            start=v,
            sink=sink,
            graph=view,
            orig_of=orig_of,
            local_start=local_start,
        )
        _, legacy_members = region_between(graph, v, sink)
        assert sorted(members) == legacy_members, (v, sink)
        assert pairs == _expand_region(region, "lt", "shared"), (v, sink)


@settings(max_examples=60, deadline=None)
@given(small_circuits(min_gates=2, max_gates=30))
def test_pass_matches_shared_on_random_cones(circuit):
    assert_pass_matches_shared(
        IndexedGraph.from_circuit(circuit), ConeScratch()
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pass_matches_shared_on_edited_cones(data):
    """One scratch across a growing, re-ordered graph and a bigger cone."""
    scratch = ConeScratch()
    small = data.draw(small_circuits(min_gates=4, max_gates=12))
    engine = IncrementalEngine.from_circuit(small)
    assert_pass_matches_shared(engine.graph, scratch)
    for i in range(data.draw(st.integers(1, 6))):
        engine.apply(draw_edit(data.draw, engine, i))
        engine.flush()
        assert_pass_matches_shared(engine.graph, scratch)
    big = data.draw(small_circuits(min_gates=15, max_gates=30))
    assert_pass_matches_shared(IndexedGraph.from_circuit(big), scratch)
    assert_pass_matches_shared(engine.graph, scratch)

"""Unit tests for the DominatorChain data structure itself."""

import pytest

from repro.core.chain import ChainPair, DominatorChain
from repro.errors import ChainConstructionError


def _simple_chain():
    """Hand-built chain: one pair {<1,2>, <3,4>} with a staircase."""
    pair = ChainPair(side1=(1, 2), side2=(3, 4))
    intervals = {1: (1, 2), 2: (2, 2), 3: (1, 1), 4: (1, 2)}
    return DominatorChain(target=0, pairs=[pair], intervals=intervals)


class TestConstruction:
    def test_empty_chain(self):
        chain = DominatorChain(target=5, pairs=[], intervals={})
        assert not chain
        assert len(chain) == 0
        assert chain.size == 0
        assert chain.immediate() is None
        assert chain.num_dominators() == 0
        assert not chain.dominates(1, 2)
        assert list(chain.iter_dominator_pairs()) == []

    def test_empty_pair_vector_rejected(self):
        with pytest.raises(ChainConstructionError):
            ChainPair(side1=(), side2=(1,))

    def test_duplicate_vertex_rejected(self):
        """Lemma 3: vectors never share vertices."""
        pair = ChainPair(side1=(1,), side2=(1,))
        with pytest.raises(ChainConstructionError):
            DominatorChain(0, [pair], {1: (1, 1)})

    def test_missing_interval_rejected(self):
        pair = ChainPair(side1=(1,), side2=(2,))
        with pytest.raises(ChainConstructionError):
            DominatorChain(0, [pair], {1: (1, 1)})

    def test_out_of_bounds_interval_rejected(self):
        pair = ChainPair(side1=(1,), side2=(2,))
        with pytest.raises(ChainConstructionError):
            DominatorChain(0, [pair], {1: (1, 5), 2: (1, 1)})

    def test_asymmetric_matching_rejected(self):
        pair = ChainPair(side1=(1, 2), side2=(3, 4))
        intervals = {1: (1, 2), 2: (2, 2), 3: (1, 1), 4: (2, 2)}
        # 1 claims partner 4 (position 2) but 4 only claims partner 2.
        with pytest.raises(ChainConstructionError):
            DominatorChain(0, [pair], intervals)

    def test_interval_spanning_pairs_rejected(self):
        pairs = [
            ChainPair(side1=(1,), side2=(2,)),
            ChainPair(side1=(3,), side2=(4,)),
        ]
        intervals = {1: (1, 2), 2: (1, 1), 3: (2, 2), 4: (2, 2)}
        with pytest.raises(ChainConstructionError):
            DominatorChain(0, pairs, intervals)


#: The rejection cases above as region records: ``(side1, side2,
#: pair-local intervals)`` lists, as a region expansion returns them.
CORRUPT_REGIONS = {
    "empty_side": [([], [1], {1: (1, 1)})],
    "missing_interval": [([1], [2], {1: (1, 1)})],
    "out_of_bounds_interval": [([1], [2], {1: (1, 5), 2: (1, 1)})],
    "asymmetric_matching": [
        ([1, 2], [3, 4], {1: (1, 2), 2: (2, 2), 3: (1, 1), 4: (2, 2)})
    ],
    # Pair-local intervals: 1 claims two partners where its pair has one.
    "interval_spanning_pairs": [
        ([1], [2], {1: (1, 2), 2: (1, 1)}),
        ([3], [4], {3: (1, 1), 4: (1, 1)}),
    ],
    "duplicate_vertex": [([1], [1], {1: (1, 1)})],
}


class TestRegionRecordRejection:
    """Each defect above, fed to ``ChainComputer.chain`` as a region.

    Figure 2's target *u* crosses two multi-fanout regions; the
    production pass is replaced through the ``region_chain_pairs``
    module global, so every freshly built region goes through the
    region check before it is stored or composed.
    """

    @staticmethod
    def _chain_with_regions(monkeypatch, regions):
        import repro.core.algorithm as algorithm
        from repro.circuits.figures import figure2_circuit
        from repro.graph import IndexedGraph

        graph = IndexedGraph.from_circuit(figure2_circuit())
        computer = algorithm.ChainComputer(graph, backend="linear")
        served = iter(regions)
        monkeypatch.setattr(
            algorithm,
            "region_chain_pairs",
            lambda graph, start, sink, scratch: ([], next(served)),
        )
        return computer.chain(graph.index_of("u"))

    @pytest.mark.parametrize("defect", sorted(CORRUPT_REGIONS))
    def test_defect_rejected(self, monkeypatch, defect):
        region = CORRUPT_REGIONS[defect]
        with pytest.raises(ChainConstructionError):
            self._chain_with_regions(monkeypatch, [region, region])

    def test_vertex_repeated_across_regions_rejected(self, monkeypatch):
        # Each region alone is sound; composing them repeats 1 and 2.
        region = [([1], [2], {1: (1, 1), 2: (1, 1)})]
        with pytest.raises(ChainConstructionError, match="Lemma 3"):
            self._chain_with_regions(monkeypatch, [region, region])

    def test_sound_regions_compose(self, monkeypatch):
        chain = self._chain_with_regions(
            monkeypatch,
            [
                [([1], [2], {1: (1, 1), 2: (1, 1)})],
                [([3, 4], [5], {3: (1, 1), 4: (1, 1), 5: (1, 2)})],
            ],
        )
        assert chain.side(1) == [1, 3, 4] and chain.side(2) == [2, 5]
        assert chain.interval(5) == (2, 3)
        assert chain.interval(3) == chain.interval(4) == (2, 2)
        assert chain.num_dominators() == 3


class TestQueries:
    def test_flags_and_indices(self):
        chain = _simple_chain()
        assert chain.flag(1) == 1 and chain.flag(2) == 1
        assert chain.flag(3) == 2 and chain.flag(4) == 2
        assert chain.index(1) == 1 and chain.index(2) == 2
        assert chain.index(3) == 1 and chain.index(4) == 2

    def test_lookup_matches_intervals(self):
        chain = _simple_chain()
        assert chain.dominates(1, 3)
        assert chain.dominates(1, 4)
        assert chain.dominates(2, 4)
        assert not chain.dominates(2, 3)
        # Symmetry of the two-probe check.
        assert chain.dominates(3, 1)
        assert chain.dominates(4, 2)
        assert not chain.dominates(3, 2)

    def test_same_flag_never_dominates(self):
        chain = _simple_chain()
        assert not chain.dominates(1, 2)
        assert not chain.dominates(3, 4)

    def test_unknown_vertex_lookup_is_false(self):
        chain = _simple_chain()
        assert not chain.dominates(1, 99)
        assert not chain.dominates(99, 1)
        assert not chain.dominates(98, 99)

    def test_contains_and_vertices(self):
        chain = _simple_chain()
        assert 1 in chain and 4 in chain and 99 not in chain
        assert sorted(chain.vertices()) == [1, 2, 3, 4]
        assert chain.side(1) == [1, 2]
        assert chain.side(2) == [3, 4]
        with pytest.raises(ValueError):
            chain.side(3)

    def test_matching_vector_order(self):
        chain = _simple_chain()
        assert chain.matching_vector(1) == [3, 4]
        assert chain.matching_vector(2) == [4]
        assert chain.matching_vector(4) == [1, 2]

    def test_pair_enumeration_matches_count(self):
        chain = _simple_chain()
        pairs = list(chain.iter_dominator_pairs())
        assert len(pairs) == chain.num_dominators() == 3
        assert chain.pair_set() == {
            frozenset((1, 3)),
            frozenset((1, 4)),
            frozenset((2, 4)),
        }

    def test_immediate_is_first_elements(self):
        chain = _simple_chain()
        assert chain.immediate() == (1, 3)

    def test_format(self):
        chain = _simple_chain()
        assert chain.format() == "<{<1,2>, <3,4>}>"
        assert chain.format(lambda v: f"v{v}") == "<{<v1,v2>, <v3,v4>}>"


class TestMultiPair:
    def test_indices_run_across_pairs(self):
        pairs = [
            ChainPair(side1=(1,), side2=(2,)),
            ChainPair(side1=(3,), side2=(4,)),
        ]
        intervals = {1: (1, 1), 2: (1, 1), 3: (2, 2), 4: (2, 2)}
        chain = DominatorChain(0, pairs, intervals)
        assert chain.index(3) == 2 and chain.index(4) == 2
        assert chain.dominates(3, 4)
        assert not chain.dominates(1, 4)
        assert not chain.dominates(3, 2)
        assert chain.num_dominators() == 2


class TestBoundaryAudit:
    """Off-by-one audit of side()/first/last/(min,max) against Figure 2.

    The paper states D(u) = <{<a,e,h>, <b,c,d,g>}, {<k,m>, <l,n>}> with
    intervals b=(1,1), c=(1,3), d=(1,3), g=(3,3); the membership test
    must flip exactly at those interval boundaries.
    """

    @staticmethod
    def _fig2_chain():
        from repro.circuits.figures import figure2_circuit
        from repro.core.algorithm import dominator_chain
        from repro.graph import IndexedGraph

        g = IndexedGraph.from_circuit(figure2_circuit())
        return g, dominator_chain(g, g.index_of("u"))

    def test_side_vectors_match_paper(self):
        # Which side is numbered 1 is arbitrary; compare as a set.
        g, chain = self._fig2_chain()
        sides = {
            tuple(g.name_of(v) for v in chain.side(flag)) for flag in (1, 2)
        }
        assert sides == {
            ("a", "e", "h", "k", "m"),
            ("b", "c", "d", "g", "l", "n"),
        }

    def test_pair_first_and_last(self):
        g, chain = self._fig2_chain()
        assert len(chain) == 2
        first_pair, second_pair = chain.pairs
        assert {g.name_of(v) for v in first_pair.first} == {"a", "b"}
        assert {g.name_of(v) for v in first_pair.last} == {"h", "g"}
        assert {g.name_of(v) for v in second_pair.first} == {"k", "l"}
        assert {g.name_of(v) for v in second_pair.last} == {"m", "n"}

    def test_paper_intervals(self):
        g, chain = self._fig2_chain()
        for name, want in (("b", (1, 1)), ("c", (1, 3)), ("d", (1, 3)),
                           ("g", (3, 3))):
            assert chain.interval(g.index_of(name)) == want, name

    def test_membership_flips_exactly_at_boundaries(self):
        g, chain = self._fig2_chain()
        c = g.index_of("c")  # interval (1, 3) over the side <a,e,h,k,m>
        aeh = chain.side(2 if chain.flag(c) == 1 else 1)
        assert [g.name_of(v) for v in aeh] == ["a", "e", "h", "k", "m"]
        assert chain.dominates(c, aeh[0])      # a: index 1 == min
        assert chain.dominates(c, aeh[2])      # h: index 3 == max
        assert not chain.dominates(c, aeh[3])  # k: index 4 == max + 1
        b = g.index_of("b")  # interval (1, 1)
        assert chain.dominates(b, aeh[0])      # a only
        assert not chain.dominates(b, aeh[1])  # e: one past max
        gg = g.index_of("g")  # interval (3, 3)
        assert chain.dominates(gg, aeh[2])     # h only
        assert not chain.dominates(gg, aeh[1])  # e: one before min
        assert not chain.dominates(gg, aeh[3])  # k: one after max

    def test_membership_symmetry_and_same_side_rejection(self):
        g, chain = self._fig2_chain()
        for v in chain.side(1):
            for w in chain.side(2):
                assert chain.dominates(v, w) == chain.dominates(w, v)
            for w in chain.side(1):
                assert not chain.dominates(v, w)

    def test_matching_vector_boundaries(self):
        g, chain = self._fig2_chain()
        h = g.index_of("h")
        partners = [g.name_of(w) for w in chain.matching_vector(h)]
        assert partners == ["c", "d", "g"]
        lo, hi = chain.interval(h)
        opposite = chain.side(2 if chain.flag(h) == 1 else 1)
        assert g.name_of(opposite[lo - 1]) == "c"
        assert g.name_of(opposite[hi - 1]) == "g"

    def test_figure1_three_vertex_sets_not_pairs(self):
        """Figure 1: PI b is dominated by {e, h} only as a *pair*."""
        from repro.circuits.figures import figure1_circuit
        from repro.core.algorithm import dominator_chain
        from repro.graph import IndexedGraph

        g = IndexedGraph.from_circuit(figure1_circuit())
        chain = dominator_chain(g, g.index_of("b"))
        assert chain.dominates(g.index_of("e"), g.index_of("h"))
        # The 3-vertex dominators {e,l,m} / {h,j,k} are not pairs.
        assert not chain.dominates(g.index_of("e"), g.index_of("l"))
        assert g.index_of("j") not in chain

"""Unit tests for the linear one-pass backend (repro.dominators.linear).

The property suite (tests/property/test_differential.py) asserts chain
equality against the other backends on random cones; these tests pin the
region-level contract of :func:`region_chain_pairs` directly on
hand-analysable regions — the boundary shapes where the flow/closure
machinery degenerates — plus its error contract.
"""

import argparse

import pytest

from repro.cli import backend_arg
from repro.dominators.linear import ConeScratch, region_chain_pairs
from repro.dominators.shared import BACKENDS, validate_backend
from repro.errors import CircuitError


class _Region:
    """Minimal cone stand-in: ``succ``/``pred``/``n``/``root`` in signal
    orientation, rooted at the region sink."""

    def __init__(self, succ, root):
        self.succ = succ
        self.n = len(succ)
        self.root = root
        self.pred = [[] for _ in succ]
        for v, ws in enumerate(succ):
            for w in ws:
                self.pred[w].append(v)


def _pairs(region, start, scratch=None):
    """The pairs of ``region``'s whole start→root search region."""
    return region_chain_pairs(region, start, region.root, scratch)[1]


class TestRegionChainPairs:
    def test_diamond_single_pair(self):
        # 0 -> {1, 2} -> 3: the classic reconvergence, one pair {1, 2}.
        region = _Region([[1, 2], [3], [3], []], root=3)
        pairs = _pairs(region, start=0)
        assert pairs == [([1], [2], {1: (1, 1), 2: (1, 1)})]

    def test_series_chain_no_pairs(self):
        # 0 -> 1 -> 2 -> 3: every interior vertex is a *single*
        # dominator (min vertex cut of one), so no size-two pair is
        # minimal and the region contributes nothing.
        region = _Region([[1], [2], [3], []], root=3)
        assert _pairs(region, start=0) == []

    def test_three_parallel_paths_no_pairs(self):
        # 0 -> {1, 2, 3} -> 4: minimum vertex cut is three, so no pair
        # of vertices dominates the entry.
        region = _Region([[1, 2, 3], [4], [4], [4], []], root=4)
        assert _pairs(region, start=0) == []

    def test_direct_entry_sink_edge_no_pairs(self):
        # The 0 -> 4 shortcut bypasses every interior vertex.
        region = _Region([[1, 2, 4], [3], [3], [4], []], root=4)
        assert _pairs(region, start=0) == []

    def test_trivial_region_no_pairs(self):
        # Fewer than two interior vertices can never form a pair.
        assert _pairs(_Region([[1], []], root=1), 0) == []
        assert (
            _pairs(_Region([[1], [2], []], root=2), 0) == []
        )

    def test_ladder_merges_into_one_pair_with_intervals(self):
        # 0 -> {1, 3}; 1 -> {2, 4}; 3 -> 4; {2, 4} -> 5.  The rung
        # 1 -> 4 makes {1, 4} a cut as well, chaining the two rungs
        # into a single {V_1k, V_2k} pair with non-trivial matching
        # intervals: 1 matches both opposite elements, 2 only the last.
        region = _Region(
            [[1, 3], [2, 4], [5], [4], [5], []], root=5
        )
        pairs = _pairs(region, start=0)
        assert pairs == [
            (
                [1, 2],
                [3, 4],
                {1: (1, 2), 2: (2, 2), 3: (1, 1), 4: (1, 2)},
            )
        ]

    def test_stacked_diamonds_two_pairs(self):
        # Two independent reconvergences with *crossing* middle edges so
        # that neither junction vertex is a single dominator:
        # 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {3, 4}; {3, 4} -> 5.
        # Pairs {1, 2} and {3, 4} stay separate (no interval overlap).
        region = _Region(
            [[1, 2], [3, 4], [3, 4], [5], [5], []], root=5
        )
        pairs = _pairs(region, start=0)
        assert pairs == [
            ([1], [2], {1: (1, 1), 2: (1, 1)}),
            ([3], [4], {3: (1, 1), 4: (1, 1)}),
        ]


class TestRegionContract:
    def test_members_are_the_whole_region(self):
        region = _Region([[1, 2], [3], [3], []], root=3)
        members, _ = region_chain_pairs(region, 0, 3)
        assert sorted(members) == [0, 1, 2, 3]

    def test_members_kept_when_an_arc_bypasses_the_interior(self):
        region = _Region([[1, 2, 4], [3], [3], [4], []], root=4)
        members, pairs = region_chain_pairs(region, 0, 4)
        assert sorted(members) == [0, 1, 2, 3, 4]
        assert pairs == []

    def test_dead_end_left_out_of_the_region(self):
        # 4 is reachable from the entry but reaches no root (an edited
        # graph's dangling gate): it is not on any 0 -> 3 path.
        region = _Region([[1, 2], [3, 4], [3], [], []], root=3)
        members, pairs = region_chain_pairs(region, 0, 3)
        assert sorted(members) == [0, 1, 2, 3]
        assert pairs == [([1], [2], {1: (1, 1), 2: (1, 1)})]

    def test_non_topological_ids(self):
        # The diamond with its ids shuffled: 3 -> {0, 2} -> 1, root 1.
        # Side 1 opens with the smaller cone id.
        region = _Region([[1], [], [1], [0, 2]], root=1)
        assert _pairs(region, 3) == [
            ([0], [2], {0: (1, 1), 2: (1, 1)})
        ]


class TestErrorContract:
    def test_start_equal_to_sink(self):
        region = _Region([[1, 2], [3], [3], []], root=3)
        with pytest.raises(CircuitError, match="same vertex"):
            region_chain_pairs(region, 3, 3)

    def test_sink_never_reached(self):
        # 1 and 2 are parallel: 1 never reaches 2.
        region = _Region([[1, 2], [3], [3], []], root=3)
        with pytest.raises(CircuitError, match="not reachable"):
            region_chain_pairs(region, 1, 2)

    def test_root_reached_around_the_sink(self):
        # 1 does not dominate 0: the 0 -> 2 -> 3 path avoids it.
        region = _Region([[1, 2], [3], [3], []], root=3)
        with pytest.raises(CircuitError, match="does not dominate"):
            region_chain_pairs(region, 0, 1)


class TestScratchReuse:
    """One ConeScratch across many regions changes nothing but the
    allocation count — results must be identical to fresh-scratch runs."""

    REGIONS = [
        (_Region([[1, 2], [3], [3], []], root=3), 0),
        (_Region([[1], [2], [3], []], root=3), 0),
        (_Region([[1, 2, 3], [4], [4], [4], []], root=4), 0),
        (_Region([[1, 2, 4], [3], [3], [4], []], root=4), 0),
        (_Region([[1, 3], [2, 4], [5], [4], [5], []], root=5), 0),
        (_Region([[1, 2], [3, 4], [3, 4], [5], [5], []], root=5), 0),
        (_Region([[1], []], root=1), 0),
    ]

    def test_shared_scratch_matches_fresh(self):
        scratch = ConeScratch()
        for region, start in self.REGIONS:
            fresh = _pairs(region, start)
            reused = _pairs(region, start, scratch)
            assert reused == fresh

    def test_scratch_survives_shrinking_regions(self):
        # Grow on the biggest region first, then reuse on smaller ones:
        # stale high-epoch entries beyond the small region must be
        # invisible.
        scratch = ConeScratch()
        ordered = sorted(
            self.REGIONS, key=lambda rs: rs[0].n, reverse=True
        )
        for region, start in ordered:
            assert _pairs(region, start, scratch) == (
                _pairs(region, start)
            )

    def test_repeated_reuse_is_deterministic(self):
        scratch = ConeScratch()
        region, start = self.REGIONS[4]
        first = _pairs(region, start, scratch)
        for _ in range(10):
            assert _pairs(region, start, scratch) == first

    def test_capacity_grows_monotonically(self):
        scratch = ConeScratch()
        region, start = self.REGIONS[0]
        _pairs(region, start, scratch)
        cap = len(scratch.stamp)
        assert cap >= 2 * region.n
        big, bstart = self.REGIONS[4]
        _pairs(big, bstart, scratch)
        assert len(scratch.stamp) >= 2 * big.n >= cap


class TestBackendRegistration:
    def test_linear_is_registered(self):
        assert "linear" in BACKENDS
        assert validate_backend("linear") == "linear"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            validate_backend("turbo")

    def test_cli_backend_arg_accepts_all_registered(self):
        for backend in BACKENDS:
            assert backend_arg(backend) == backend

    def test_cli_backend_arg_rejects_unknown_with_clear_message(self):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            backend_arg("turbo")
        message = str(excinfo.value)
        assert "turbo" in message
        for backend in BACKENDS:
            assert backend in message

"""The dominator chain — the paper's central data structure (Definition 3).

A dominator chain ``D(u)`` is a vector of pairs ``{V_1j, V_2j}`` of vertex
vectors that represents *all* O(n²) double-vertex dominators of a vertex
*u* in O(n) space.  Three per-vertex attributes make pair-membership
look-up constant time (paper Section 4):

* ``flag(v) ∈ {1, 2}`` — which side of the chain *v* lies on,
* ``index(v)`` — 1-based position of *v* in the concatenation
  ``V_i1 · V_i2 · ... · V_im`` of its side,
* ``(min(v), max(v))`` — the index interval of *v*'s *matching vector*:
  exactly the vertices *w* on the opposite side for which ``{v, w}`` is a
  double-vertex dominator of *u*.

``{v1, v2}`` dominates *u*  ⇔  ``flag(v1) != flag(v2)`` and
``min(v1) <= index(v2) <= max(v1)`` — two dictionary probes and two
comparisons, independent of circuit size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ChainConstructionError


@dataclass(frozen=True)
class ChainPair:
    """One ``{V_1j, V_2j}`` element of a dominator chain.

    ``side1``/``side2`` hold vertex ids in chain order; the first elements
    of the two sides form the immediate (common) double-vertex dominator of
    the previous pair's last elements (Definition 3, property 2).
    """

    side1: Tuple[int, ...]
    side2: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.side1 or not self.side2:
            raise ChainConstructionError("chain pair vectors must be non-empty")

    @property
    def first(self) -> Tuple[int, int]:
        """The immediate double-vertex dominator this pair starts with."""
        return (self.side1[0], self.side2[0])

    @property
    def last(self) -> Tuple[int, int]:
        """The last elements — sources of the next pair's DOUBLEIDOM call."""
        return (self.side1[-1], self.side2[-1])

    def vertices(self) -> Iterator[int]:
        yield from self.side1
        yield from self.side2


#: A region's checked chain record: its pairs in chain order and the
#: matching interval of every pair vertex, in 1-based indices over the
#: region's own flattened sides.
RegionRecord = Tuple[Tuple[ChainPair, ...], Dict[int, Tuple[int, int]]]

#: A chain's lookup table: ``({v: (flag, index, pair)}, side1, side2)``.
_Table = Tuple[Dict[int, Tuple[int, int, int]], Tuple[int, ...], Tuple[int, ...]]


def check_region_pairs(raw_pairs) -> RegionRecord:
    """Check one freshly built region and turn it into its chain record.

    ``raw_pairs`` are the region's pairs in chain order, each
    ``(side1, side2, intervals)`` with intervals local to the pair.
    Every property :meth:`DominatorChain._check_structure` enforces is
    pair-local, so it is checked here, once per region: both sides are
    non-empty; every vertex has an interval with ``1 <= min <= max <=
    |opposite side|``; a side-1 vertex's partners all claim it back; no
    vertex appears twice in the region.  The intervals are then shifted
    by the lengths of the region's earlier pairs.  Composition by
    :meth:`DominatorChain.from_regions` shifts them again, per region,
    which preserves all of these properties.

    Raises :class:`~repro.errors.ChainConstructionError` on the first
    violation.
    """
    pairs: List[ChainPair] = []
    intervals: Dict[int, Tuple[int, int]] = {}
    off1 = off2 = 0
    for side1, side2, local in raw_pairs:
        n1, n2 = len(side1), len(side2)
        if not n1 or not n2:
            raise ChainConstructionError("chain pair vectors must be non-empty")
        for side, size, offset in ((side1, n2, off2), (side2, n1, off1)):
            for v in side:
                if v not in local:
                    raise ChainConstructionError(
                        f"vertex {v} has no matching interval"
                    )
                lo, hi = local[v]
                if not 1 <= lo <= hi <= size:
                    raise ChainConstructionError(
                        f"vertex {v}: interval ({lo}, {hi}) out of bounds "
                        f"for opposite side of size {size}"
                    )
                intervals[v] = (lo + offset, hi + offset)
        off1 += n1
        off2 += n2
        if len(intervals) != off1 + off2:
            raise ChainConstructionError(
                "a vertex appears twice in the region (violates Lemma 3)"
            )
        for index, v in enumerate(side1, 1):
            lo, hi = local[v]
            for w in side2[lo - 1 : hi]:
                w_lo, w_hi = local[w]
                if not w_lo <= index <= w_hi:
                    raise ChainConstructionError(
                        f"asymmetric matching: {v} pairs with {w} but not "
                        "vice versa"
                    )
        pairs.append(ChainPair(tuple(side1), tuple(side2)))
    return tuple(pairs), intervals


class DominatorChain:
    """All double-vertex dominators of one target vertex.

    Instances are immutable; they are produced by
    :func:`repro.core.algorithm.dominator_chain` (or built manually for
    testing) from the list of pairs plus each vertex's matching interval.

    A chain holds only ``pairs`` and the interval of every vertex.  The
    per-vertex ``flag``/``index`` table and the flattened sides are built
    on the first query that needs them and published with one
    assignment, so threads sharing a chain all read a complete table.

    Parameters
    ----------
    target:
        The vertex *u* the chain describes.
    pairs:
        The ``{V_1j, V_2j}`` pairs in chain order (may be empty: vertices
        with no double-vertex dominator, e.g. the root, have empty chains).
    intervals:
        ``intervals[v] = (min, max)`` matching interval for every vertex
        appearing in ``pairs``, expressed in 1-based opposite-side indices.
    """

    __slots__ = ("target", "pairs", "_intervals", "_table")

    def __init__(
        self,
        target: int,
        pairs: Sequence[ChainPair],
        intervals: Dict[int, Tuple[int, int]],
    ):
        self.target = target
        self.pairs: Tuple[ChainPair, ...] = tuple(pairs)
        self._table: Optional[_Table] = None
        ordered: Dict[int, Tuple[int, int]] = {}
        for pair in self.pairs:
            for v in pair.vertices():
                if v in ordered:
                    raise ChainConstructionError(
                        f"vertex {v} appears twice in the chain "
                        "(violates Lemma 3)"
                    )
                if v not in intervals:
                    raise ChainConstructionError(
                        f"vertex {v} has no matching interval"
                    )
                lo, hi = intervals[v]
                ordered[v] = (lo, hi)
        self._intervals = ordered
        self._check_structure()

    @classmethod
    def from_regions(
        cls, target: int, regions: Sequence[RegionRecord]
    ) -> "DominatorChain":
        """Compose ``D(target)`` from the records of its regions, in order.

        Each record must come from :func:`check_region_pairs`, which has
        already checked everything pair-local.  A region's intervals are
        shifted by the side lengths of the regions before it; the one
        remaining property, that no vertex repeats across regions
        (Lemma 3), is a count check.  A chain of one region reuses that
        record as is, with no copy; callers leave out regions without
        pairs so that one-region chains take this path.
        """
        if len(regions) == 1:
            pairs, intervals = regions[0]
        else:
            pairs = ()
            intervals = {}
            off1 = off2 = 0
            for region_pairs, region_intervals in regions:
                for pair in region_pairs:
                    for v in pair.side1:
                        lo, hi = region_intervals[v]
                        intervals[v] = (lo + off2, hi + off2)
                    for v in pair.side2:
                        lo, hi = region_intervals[v]
                        intervals[v] = (lo + off1, hi + off1)
                for pair in region_pairs:
                    off1 += len(pair.side1)
                    off2 += len(pair.side2)
                pairs += region_pairs
            if len(intervals) != off1 + off2:
                raise ChainConstructionError(
                    "a vertex appears in two regions of the chain "
                    "(violates Lemma 3)"
                )
        chain = cls.__new__(cls)
        chain.target = target
        chain.pairs = pairs
        chain._intervals = intervals
        chain._table = None
        return chain

    # ------------------------------------------------------------------
    # lookup table (built on first use)
    # ------------------------------------------------------------------
    def _lookup(self) -> _Table:
        """``(info, side1, side2)``; ``info[v] = (flag, index, pair)``."""
        table = self._table
        if table is None:
            info: Dict[int, Tuple[int, int, int]] = {}
            sides: Tuple[List[int], List[int]] = ([], [])
            for pair_idx, pair in enumerate(self.pairs):
                for flag, vector in ((1, pair.side1), (2, pair.side2)):
                    side = sides[flag - 1]
                    for v in vector:
                        side.append(v)
                        info[v] = (flag, len(side), pair_idx)
            table = (info, tuple(sides[0]), tuple(sides[1]))
            self._table = table
        return table

    # ------------------------------------------------------------------
    # structural invariants (graph-independent parts of Definition 3)
    # ------------------------------------------------------------------
    def _check_structure(self) -> None:
        info, side1, side2 = self._lookup()
        intervals = self._intervals
        for v, (flag, _, pair_idx) in info.items():
            lo, hi = intervals[v]
            opposite = side2 if flag == 1 else side1
            if not (1 <= lo <= hi <= len(opposite)):
                raise ChainConstructionError(
                    f"vertex {v}: interval ({lo}, {hi}) out of bounds for "
                    f"opposite side of size {len(opposite)}"
                )
            # Partners must belong to the same pair (intervals never span
            # pair boundaries — property 2/3 of Definition 3).
            for w in (opposite[lo - 1], opposite[hi - 1]):
                if info[w][2] != pair_idx:
                    raise ChainConstructionError(
                        f"vertex {v}: matching interval leaves its pair"
                    )
        # Inverse consistency: v ~ w from side 1 iff w ~ v from side 2.
        for v in side1:
            index = info[v][1]
            lo, hi = intervals[v]
            for w in side2[lo - 1 : hi]:
                w_lo, w_hi = intervals[w]
                if not (w_lo <= index <= w_hi):
                    raise ChainConstructionError(
                        f"asymmetric matching: {v} pairs with {w} but not "
                        "vice versa"
                    )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __len__(self) -> int:
        """Number of ``{V_1j, V_2j}`` pairs (the *m* of Definition 3)."""
        return len(self.pairs)

    @property
    def size(self) -> int:
        """Total number of stored vertices — the O(n) space bound."""
        return len(self._intervals)

    def side(self, flag: int) -> List[int]:
        """Flattened side vector ``<V_i1, ..., V_im>`` for ``flag`` i."""
        if flag not in (1, 2):
            raise ValueError("flag must be 1 or 2")
        return list(self._lookup()[flag])

    def vertices(self) -> List[int]:
        """All vertices appearing anywhere in the chain."""
        return list(self._intervals)

    def __contains__(self, v: object) -> bool:
        return v in self._intervals

    def flag(self, v: int) -> int:
        """Side flag of *v* (1 or 2); KeyError if *v* is not in the chain."""
        return self._lookup()[0][v][0]

    def index(self, v: int) -> int:
        """1-based position of *v* within its side."""
        return self._lookup()[0][v][1]

    def interval(self, v: int) -> Tuple[int, int]:
        """``(min(v), max(v))`` — matching interval of *v*."""
        return self._intervals[v]

    def immediate(self) -> Optional[Tuple[int, int]]:
        """The immediate double-vertex dominator of the target, if any.

        Theorem 1 guarantees uniqueness; it is the pair of first elements
        of ``V_11`` and ``V_21``.
        """
        if not self.pairs:
            return None
        return self.pairs[0].first

    def dominates(self, v1: int, v2: int) -> bool:
        """O(1) check whether ``{v1, v2}`` is a double-vertex dominator.

        Implements the two-step look-up from Section 4 verbatim: first the
        flags must differ, then ``index(v2)`` must fall inside the matching
        interval of ``v1``.
        """
        info = self._lookup()[0]
        info1 = info.get(v1)
        info2 = info.get(v2)
        if info1 is None or info2 is None or info1[0] == info2[0]:
            return False
        lo, hi = self._intervals[v1]
        return lo <= info2[1] <= hi

    def matching_vector(self, v: int) -> List[int]:
        """All partners *w* of *v* (``{v, w}`` dominates the target).

        Returned in chain order — the order of Definition 3 property 1:
        if ``{v, w_r}`` dominates ``w_t`` then ``t < r``.
        """
        table = self._lookup()
        lo, hi = self._intervals[v]
        opposite = table[3 - table[0][v][0]]
        return list(opposite[lo - 1 : hi])

    def iter_dominator_pairs(self) -> Iterator[Tuple[int, int]]:
        """Enumerate every double-vertex dominator pair exactly once.

        Pairs are yielded as ``(side-1 vertex, side-2 vertex)`` in chain
        order; the count of generated pairs is :meth:`num_dominators`.
        """
        _, side1, side2 = self._lookup()
        intervals = self._intervals
        for v in side1:
            lo, hi = intervals[v]
            for w in side2[lo - 1 : hi]:
                yield (v, w)

    def num_dominators(self) -> int:
        """Total number of distinct double-vertex dominators of the target."""
        intervals = self._intervals
        return sum(
            intervals[v][1] - intervals[v][0] + 1
            for pair in self.pairs
            for v in pair.side1
        )

    def pair_set(self) -> set:
        """All dominator pairs as a set of ``frozenset`` — for comparisons."""
        return {frozenset(p) for p in self.iter_dominator_pairs()}

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "target": self.target,
            "pairs": [
                {"side1": list(p.side1), "side2": list(p.side2)}
                for p in self.pairs
            ],
            "intervals": {
                str(v): [lo, hi] for v, (lo, hi) in self._intervals.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DominatorChain":
        """Rebuild a chain from :meth:`to_dict` output (re-validated)."""
        pairs = [
            ChainPair(tuple(p["side1"]), tuple(p["side2"]))
            for p in data["pairs"]  # type: ignore[union-attr]
        ]
        intervals = {
            int(v): (iv[0], iv[1])
            for v, iv in data["intervals"].items()  # type: ignore[union-attr]
        }
        return cls(int(data["target"]), pairs, intervals)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def format(self, name_of=None) -> str:
        """Human-readable rendering mirroring the paper's notation."""
        if name_of is None:
            name_of = str
        rendered = []
        for pair in self.pairs:
            s1 = ",".join(name_of(v) for v in pair.side1)
            s2 = ",".join(name_of(v) for v in pair.side2)
            rendered.append(f"{{<{s1}>, <{s2}>}}")
        return "<" + ", ".join(rendered) + ">"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DominatorChain(target={self.target}, pairs={len(self.pairs)}, "
            f"vertices={self.size}, dominators={self.num_dominators()})"
        )

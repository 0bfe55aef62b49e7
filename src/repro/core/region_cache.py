"""Persistent search-region cache with explicit invalidation.

:class:`~repro.core.algorithm.ChainComputer` historically kept a private
``dict`` mapping a region's entry vertex to its expanded chain pairs —
enough to share regions across targets of one cone, but blind across
circuit edits.  This module promotes that dict into a first-class
:class:`RegionCache`:

* entries remember the region's **sink** (``idom(start)`` at expansion
  time) and **member set** (every vertex on a start→sink path), which is
  exactly the information needed to decide, after an edit, whether the
  cached expansion is still valid;
* every lookup/store/eviction is counted in a :class:`CacheStats`
  record, so incremental workloads can report hit rates;
* the cache object can outlive any single :class:`ChainComputer` — the
  incremental engine (:mod:`repro.incremental`) hands one cache to a
  fresh computer after each dominator-tree rebuild and unaffected
  regions keep serving hits.

A cached expansion depends only on the induced subgraph of start→sink
paths (see ``core/regions.py``), so an entry stays valid as long as that
subgraph is untouched — the invalidation rules live in
:mod:`repro.incremental.invalidate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .chain import ChainPair

#: One fully expanded pair in original indices with pair-local intervals,
#: as a region expansion returns it (re-exported by
#: :mod:`repro.core.algorithm`).
RegionPair = Tuple[List[int], List[int], Dict[int, Tuple[int, int]]]


@dataclass
class CacheStats:
    """Counters of one region cache's lifetime.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes.  A lookup whose entry exists but was stored for
        a different sink counts as a miss (and evicts the stale entry).
    stores:
        Entries written after a miss.
    invalidations:
        Entries dropped by explicit invalidation (edits), as opposed to
        being overwritten by a store.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"invalidations={self.invalidations} "
            f"hit_rate={self.hit_rate:.1%}"
        )


@dataclass(frozen=True)
class RegionEntry:
    """Cached expansion of one search region: its checked chain record.

    ``members`` is the full vertex set of the region (the ``orig_of`` of
    :func:`repro.graph.transform.region_between`) — a superset of the
    vertices appearing in ``pairs``, required for sound invalidation: an
    edit touching *any* region vertex can change the pairs even if the
    touched vertex is on no chain.  ``pairs`` and ``intervals`` are the
    record :func:`repro.core.chain.check_region_pairs` returned for the
    region; chains reuse them on every hit.
    """

    start: int
    sink: int
    members: FrozenSet[int]
    pairs: Tuple[ChainPair, ...] = field(repr=False)
    intervals: Dict[int, Tuple[int, int]] = field(repr=False)


class RegionCache:
    """Mapping ``start -> RegionEntry`` with usage statistics.

    The cache is deliberately unbounded: one cone has at most one region
    per dominator-tree edge, so the entry count is O(n).
    """

    def __init__(self) -> None:
        self._entries: Dict[int, RegionEntry] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # core protocol used by ChainComputer
    # ------------------------------------------------------------------
    def lookup(self, start: int, sink: int) -> Optional[RegionEntry]:
        """Cached entry of the region entered at ``start``, if valid.

        The stored sink must match the caller's current ``idom(start)``;
        a mismatch means the region boundary moved since the entry was
        stored, so the entry is dropped and the lookup misses.
        """
        entry = self._entries.get(start)
        if entry is not None and entry.sink == sink:
            self.stats.hits += 1
            return entry
        if entry is not None:
            del self._entries[start]
            self.stats.invalidations += 1
        self.stats.misses += 1
        return None

    def store(
        self,
        start: int,
        sink: int,
        members: Iterable[int],
        pairs: Tuple[ChainPair, ...],
        intervals: Dict[int, Tuple[int, int]],
    ) -> None:
        """Store a checked region record (see :class:`RegionEntry`)."""
        self._entries[start] = RegionEntry(
            start=start,
            sink=sink,
            members=frozenset(members),
            pairs=pairs,
            intervals=intervals,
        )
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def evict(self, start: int) -> bool:
        """Drop the entry for ``start`` (returns whether one existed)."""
        if start in self._entries:
            del self._entries[start]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_touching(self, vertices) -> int:
        """Drop every entry whose region contains any of ``vertices``.

        This is the member-set version of the old
        ``ChainComputer.invalidate`` hook (which only inspected chain
        vertices, missing edits to interior region vertices).  Returns
        the number of evicted entries.
        """
        dirty = frozenset(vertices)
        if not dirty:
            return 0
        evicted = [
            start
            for start, entry in self._entries.items()
            if start in dirty or not dirty.isdisjoint(entry.members)
        ]
        for start in evicted:
            del self._entries[start]
        self.stats.invalidations += len(evicted)
        return len(evicted)

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        count = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += count
        return count

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, start: object) -> bool:
        return start in self._entries

    def entries(self) -> List[RegionEntry]:
        """Snapshot of the live entries (for invalidation passes)."""
        return list(self._entries.values())

    def entry_for(self, start: int) -> Optional[RegionEntry]:
        """Current entry for ``start`` without touching the statistics.

        Entries are immutable and replaced wholesale on store, so object
        identity of the result is a cheap validity token: as long as a
        dependent computation holds the same object, the region it was
        built from has been neither evicted nor re-expanded.
        """
        return self._entries.get(start)

    def pairs_by_start(self) -> Dict[int, List[ChainPair]]:
        """Legacy view: ``{start: pairs}`` as the old private dict held."""
        return {s: list(e.pairs) for s, e in self._entries.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionCache(entries={len(self._entries)}, {self.stats})"

"""Process-local metrics: counters, latency histograms, JSON snapshots.

The registry is deliberately dependency-free (no prometheus client) and
cheap enough to leave enabled everywhere: a counter increment is one
lock-free dict lookup plus an integer add under the counter's lock.
Components accept an optional :class:`MetricsRegistry`; passing ``None``
keeps the hot path untouched.

Naming convention: dotted ``component.metric`` names, e.g.
``executor.jobs_completed``, ``artifacts.hits``, ``core.chain_seconds``.
Histograms use fixed upper-bound buckets (seconds) like Prometheus
classic histograms, so snapshots diff/aggregate across processes by
plain addition — the executor merges worker-side snapshots into the
parent registry this way (:meth:`MetricsRegistry.merge_snapshot`).
"""

from __future__ import annotations

import json
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets in seconds — spans one fast chain lookup
#: (~10 µs) to a stuck multi-second region expansion.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Histogram:
    """A fixed-bucket histogram of observations (seconds by convention).

    ``buckets`` are inclusive upper bounds; an implicit ``+inf`` bucket
    catches the tail.  ``bucket_counts[i]`` is the number of
    observations ``<= buckets[i]`` — *non*-cumulative per bucket, unlike
    Prometheus wire format, because plain per-bucket counts add cleanly
    when merging worker snapshots.
    """

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError(f"histogram {name}: buckets must be sorted, non-empty")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile estimated by linear interpolation inside buckets.

        The rank ``q * count`` is located in the per-bucket counts and
        mapped to a value by interpolating between the bucket's lower
        and upper bound (Prometheus ``histogram_quantile`` style), so
        p50/p99 latencies come out as smooth seconds instead of bucket
        edges.  The first bucket interpolates up from 0.  The last
        *non-empty* bucket (overflow included) caps its upper bound at
        the maximum observation ever seen, so ``quantile(1.0)`` returns
        exactly that maximum — not the bucket's nominal bound, which no
        observation may have reached — and the overflow bucket never
        reports ``inf`` for real data.  ``quantile(0.0)`` returns the
        lower bound of the first non-empty bucket.  Returns ``0.0``
        when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if not self._count:
                return 0.0
            rank = q * self._count
            running = 0
            last_nonempty = max(i for i, c in enumerate(self._counts) if c)
            for idx, count in enumerate(self._counts):
                if not count:
                    continue
                if running + count >= rank:
                    lo = self.buckets[idx - 1] if idx > 0 else 0.0
                    hi = (
                        self.buckets[idx]
                        if idx < len(self.buckets)
                        else self._max
                    )
                    if idx == last_nonempty:
                        # No observation exceeds _max, so ranks at the
                        # top of this bucket must map to _max, not to a
                        # nominal bound nothing reached (off-by-one at
                        # q=1).  The outer max() keeps hi >= lo when
                        # every resident equals the lower bound.
                        hi = max(min(hi, self._max), lo)
                    fraction = (rank - running) / count
                    return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
                running += count
        return self._max  # pragma: no cover - defensive

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._counts)
            total, total_sum, seen_max = self._count, self._sum, self._max
        return {
            "count": total,
            "sum": round(total_sum, 9),
            "max": round(seen_max, 9),
            "mean": round(total_sum / total, 9) if total else 0.0,
            "buckets": {
                **{f"le_{b:g}": c for b, c in zip(self.buckets, counts)},
                "le_inf": counts[-1],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self._count}, mean={self.mean:.6f})"


class MetricsRegistry:
    """Named counters and histograms behind one snapshot/export surface.

    Metrics are created on first use (``registry.counter("x").inc()``)
    so components never need registration boilerplate; asking for an
    existing name with a conflicting kind raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # creation / access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, buckets)
            return self._histograms[name]

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand: ``registry.counter(name).inc(amount)``.

        An existing counter is found without the registry lock (metrics
        are never removed, so a lock-free ``dict.get`` sees either the
        metric or nothing); only a first use takes it, to create one.
        """
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Shorthand: ``registry.histogram(name).observe(value)``.

        Lock-free lookup of an existing histogram, as in :meth:`inc`.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self.histogram(name)
        histogram.observe(value)

    def timer(self, name: str) -> "_Timer":
        """Context manager observing the block's wall time into ``name``."""
        return _Timer(self.histogram(name))

    def histograms(self) -> Dict[str, Histogram]:
        """Copy of the live histogram table (name -> Histogram)."""
        with self._lock:
            return dict(self._histograms)

    # ------------------------------------------------------------------
    # snapshot / export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable dump of every metric, sorted by name."""
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counters[name].value for name in sorted(counters)
            },
            "histograms": {
                name: histograms[name].as_dict() for name in sorted(histograms)
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; histogram bucket counts/sums add bucket-by-bucket.
        Bucket schemas are aligned on merge: every incoming bucket is
        re-binned into the smallest local bucket whose bound covers it,
        and incoming buckets beyond the local range (including the
        incoming overflow bucket) fold into the local overflow bucket.
        Exact when the schemas match — the worker→parent use case — and
        conservative (observations may shift one bucket coarser, never
        finer) when a worker was built with extra or different buckets.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        for name, data in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            hist = self.histogram(name)
            incoming = data["buckets"]
            with hist._lock:
                for key, raw in incoming.items():
                    count = int(raw)
                    if not count:
                        continue
                    idx = len(hist.buckets)  # overflow by default
                    if key != "le_inf":
                        try:
                            bound = float(key[3:])
                        except ValueError:
                            pass  # unparseable key: keep it, as overflow
                        else:
                            idx = bisect_left(hist.buckets, bound)
                    hist._counts[idx] += count
                hist._count += int(data["count"])
                hist._sum += float(data["sum"])
                hist._max = max(hist._max, float(data.get("max", 0.0)))

    def export_json(self, path: str, indent: int = 2) -> None:
        """Write :meth:`snapshot` to ``path`` as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=indent, sort_keys=True)
            handle.write("\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"histograms={len(self._histograms)})"
        )


class _Timer:
    """Context manager recording elapsed wall time into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._start: Optional[float] = None

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self._histogram.observe(time.perf_counter() - self._start)

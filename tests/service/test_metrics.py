"""Tests for the service metrics registry."""

import json

import pytest

from repro.service.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            h.observe(value)
        data = h.as_dict()
        assert data["count"] == 4
        assert data["buckets"] == {
            "le_0.001": 1,
            "le_0.01": 1,
            "le_0.1": 1,
            "le_inf": 1,
        }
        assert data["sum"] == pytest.approx(5.0555)
        assert data["max"] == pytest.approx(5.0)

    def test_boundary_value_goes_to_its_bucket(self):
        h = Histogram("lat", buckets=(0.01, 0.1))
        h.observe(0.01)  # inclusive upper bound
        assert h.as_dict()["buckets"]["le_0.01"] == 1

    def test_quantiles(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 3.0):
            h.observe(value)
        assert h.quantile(0.5) == 1.0
        # q=1 is the maximum observation (3.0), not the 4.0 bucket bound
        # that nothing reached.
        assert h.quantile(1.0) == pytest.approx(3.0)
        h.observe(100.0)
        # The overflow bucket interpolates toward the observed maximum,
        # never reporting inf for real data.
        assert h.quantile(1.0) == pytest.approx(100.0)

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for _ in range(10):
            h.observe(0.5)  # all ten land in the first bucket
        # rank q*10 sits q of the way through [0, 0.5]: the bucket is
        # the last non-empty one, so its upper bound clamps to the
        # observed maximum rather than the nominal 1.0 bound.
        assert h.quantile(0.25) == pytest.approx(0.125)
        assert h.quantile(0.99) == pytest.approx(0.495)

    def test_quantile_p50_p99_spread(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for _ in range(98):
            h.observe(0.005)
        h.observe(0.5)
        h.observe(0.5)
        # p50 well inside the first bucket, p99 in the third.
        assert h.quantile(0.5) < 0.01
        assert 0.1 < h.quantile(0.99) <= 1.0

    def test_quantile_skips_empty_buckets(self):
        h = Histogram("lat", buckets=(0.001, 1.0, 2.0))
        h.observe(1.5)
        h.observe(1.5)
        # Both observations sit in (1.0, 2.0]; every quantile must
        # interpolate inside that bucket, not in the empty ones below,
        # and q=1 lands on the 1.5 maximum rather than the 2.0 bound.
        assert 1.0 <= h.quantile(0.01) <= 2.0
        assert h.quantile(1.0) == pytest.approx(1.5)

    def test_empty_quantile_and_mean(self):
        h = Histogram("lat")
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    @pytest.mark.parametrize(
        "values,q,expected",
        [
            # q=0 is the lower bound of the first non-empty bucket.
            ((0.5, 0.5, 3.0), 0.0, 0.0),
            ((1.5, 1.5), 0.0, 1.0),
            # q=1 is always the exact maximum, wherever it lands.
            ((0.5,), 1.0, 0.5),
            ((0.5, 1.5, 3.5), 1.0, 3.5),
            ((9.0,), 1.0, 9.0),  # single overflow observation
            # Exact rank on a bucket boundary: rank q*n == cumulative
            # count of a bucket maps to that bucket's upper bound.
            ((0.5, 0.5, 1.5, 1.5), 0.5, 1.0),
            ((0.5, 1.5, 1.5, 1.5), 0.25, 1.0),
        ],
    )
    def test_quantile_edge_cases(self, values, q, expected):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in values:
            h.observe(value)
        assert h.quantile(q) == pytest.approx(expected)

    def test_quantile_one_equals_max_even_mid_bucket(self):
        # Regression: q=1 used to report the nominal bucket bound, an
        # off-by-one against the true maximum when the last non-empty
        # bucket was only part-filled.
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(2.5)
        assert h.quantile(1.0) == pytest.approx(2.5)
        h.observe(3.9)
        assert h.quantile(1.0) == pytest.approx(3.9)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))


class TestRegistry:
    def test_created_on_first_use_and_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.histogram("a")
        reg.histogram("h")
        with pytest.raises(ValueError):
            reg.counter("h")

    def test_shorthand_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5)
        reg.inc("jobs")
        with pytest.raises(ValueError):
            reg.inc("lat")
        with pytest.raises(ValueError):
            reg.observe("jobs", 0.5)
        assert reg.counter("jobs").value == 1
        assert reg.histogram("lat").count == 1

    def test_shorthands_exact_under_threads(self):
        import sys
        import threading

        reg = MetricsRegistry()
        threads, calls = 8, 10_000
        barrier = threading.Barrier(threads)

        def hammer():
            barrier.wait()
            for i in range(calls):
                reg.inc("shared.count")
                reg.inc("shared.amount", 2)
                reg.observe("shared.lat", 0.001 * (i % 3))

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        total = threads * calls
        assert reg.counter("shared.count").value == total
        assert reg.counter("shared.amount").value == 2 * total
        lat = reg.histogram("shared.lat")
        assert lat.count == total
        assert sum(lat.as_dict()["buckets"].values()) == total
        assert lat.sum == pytest.approx(0.001 * threads * sum(
            i % 3 for i in range(calls)
        ))

    def test_shorthands_and_timer(self):
        reg = MetricsRegistry()
        reg.inc("jobs", 3)
        reg.observe("lat", 0.02)
        with reg.timer("lat"):
            pass
        assert reg.counter("jobs").value == 3
        assert reg.histogram("lat").count == 2

    def test_snapshot_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.observe("lat", 0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"] == {"jobs": 1}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_export_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("jobs", 2)
        path = tmp_path / "metrics.json"
        reg.export_json(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["jobs"] == 2

    def test_merge_snapshot_adds(self):
        worker = MetricsRegistry()
        worker.inc("jobs", 2)
        worker.observe("lat", 0.0002)
        worker.observe("lat", 7.0)
        parent = MetricsRegistry()
        parent.inc("jobs", 1)
        parent.observe("lat", 0.0002)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("jobs").value == 3
        hist = parent.histogram("lat")
        assert hist.count == 3
        assert hist.sum == pytest.approx(7.0004)
        assert hist.as_dict()["max"] == pytest.approx(7.0)
        # bucket counts merged bucket-by-bucket
        buckets = hist.as_dict()["buckets"]
        assert buckets[f"le_{DEFAULT_BUCKETS[1]:g}"] == 2


class TestMergeSchemaAlignment:
    """Regression: merging a worker snapshot whose histogram had *more*
    buckets than the parent silently dropped the extra buckets (and the
    worker's overflow bucket landed in the wrong place), so the merged
    export under-reported tail latency: sum(buckets) < count."""

    def test_merge_wider_worker_schema_keeps_every_observation(self):
        parent = MetricsRegistry()
        parent.histogram("svc.latency")  # DEFAULT_BUCKETS, top bound 30.0
        worker = MetricsRegistry()
        worker.histogram(
            "svc.latency", buckets=list(DEFAULT_BUCKETS) + [60.0, 120.0]
        )
        worker.observe("svc.latency", 45.0)   # lands in worker le_60
        worker.observe("svc.latency", 200.0)  # lands in worker le_inf
        worker.observe("svc.latency", 0.002)  # shared bucket

        parent.merge_snapshot(worker.snapshot())
        data = parent.snapshot()["histograms"]["svc.latency"]
        assert data["count"] == 3
        assert sum(data["buckets"].values()) == data["count"]
        # Both tail observations exceed the parent's 30.0 top bound.
        assert data["buckets"]["le_inf"] == 2
        assert data["buckets"]["le_0.005"] == 1
        assert data["max"] == 200.0

    def test_merge_narrower_worker_schema(self):
        parent = MetricsRegistry()
        parent.histogram("svc.latency")
        worker = MetricsRegistry()
        worker.histogram("svc.latency", buckets=[0.01, 1.0])
        worker.observe("svc.latency", 0.5)
        worker.observe("svc.latency", 7.0)  # worker overflow, parent le_30

        parent.merge_snapshot(worker.snapshot())
        data = parent.snapshot()["histograms"]["svc.latency"]
        assert data["count"] == 2
        assert sum(data["buckets"].values()) == data["count"]
        # The worker's 1.0-bound bucket folds into the parent's own 1.0
        # bucket; the worker's overflow stays overflow (its contents are
        # only known to exceed 1.0, but they *could* exceed 30.0 too —
        # conservative means never re-binning finer than known).
        assert data["buckets"]["le_1"] == 1
        assert data["buckets"]["le_inf"] == 1

    def test_merge_identical_schema_is_exact(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        for value in (0.0002, 0.02, 2.0, 50.0):
            worker.observe("svc.latency", value)
        parent.merge_snapshot(worker.snapshot())
        assert (
            parent.snapshot()["histograms"]["svc.latency"]
            == worker.snapshot()["histograms"]["svc.latency"]
        )

    def test_merged_export_json_consistent(self, tmp_path):
        parent = MetricsRegistry()
        parent.histogram("svc.latency")
        worker = MetricsRegistry()
        worker.histogram(
            "svc.latency", buckets=list(DEFAULT_BUCKETS) + [60.0]
        )
        worker.observe("svc.latency", 45.0)
        parent.merge_snapshot(worker.snapshot())
        out = tmp_path / "metrics.json"
        parent.export_json(str(out))
        data = json.loads(out.read_text())["histograms"]["svc.latency"]
        assert sum(data["buckets"].values()) == data["count"] == 1

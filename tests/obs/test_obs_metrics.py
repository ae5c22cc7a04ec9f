"""Metrics primitives: counters, gauges, histograms, registry semantics."""

import json
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import _MIN_EXP, _N_BUCKETS, _bucket_index


class TestBucketIndex:
    def test_nonpositive_clamps_to_first_bucket(self):
        assert _bucket_index(0.0) == 0
        assert _bucket_index(-3.0) == 0

    def test_powers_of_two_land_in_their_bucket(self):
        # 1.0 = 0.5 * 2**1 -> exponent 1
        assert _bucket_index(1.0) == 1 - _MIN_EXP
        assert _bucket_index(2.0) == 2 - _MIN_EXP

    def test_extremes_clamp(self):
        assert _bucket_index(1e-300) == 0
        assert _bucket_index(1e300) == _N_BUCKETS - 1


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rate_reflects_recent_increments(self):
        registry = MetricsRegistry(window_s=60.0)
        counter = registry.counter("c")
        assert counter.rate() == 0.0
        for _ in range(10):
            counter.inc()
        assert counter.rate() > 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(4.0)
        snap = registry.counter("c").snapshot()
        assert snap["value"] == 4.0
        assert snap["rate_per_s"] >= 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == 6.0
        assert gauge.snapshot() == 6.0


class TestHistogram:
    def test_observe_accumulates(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.5, 1.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == 7.5
        assert hist.mean == pytest.approx(7.5 / 4)

    def test_snapshot_buckets_and_extremes(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0)
        hist.observe(1.0)
        hist.observe(8.0)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 1.0
        assert snap["max"] == 8.0
        assert sum(snap["buckets"].values()) == 3

    def test_empty_snapshot(self):
        snap = MetricsRegistry().histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None
        assert snap["max"] is None
        assert snap["buckets"] == {}


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("repro.smpi.bcast.calls").inc()
        registry.gauge("repro.data.prefetch.queue_depth").set(0.5)
        registry.histogram("repro.serving.flush_seconds").observe(0.01)
        parsed = json.loads(registry.to_json())
        assert parsed["counters"]["repro.smpi.bcast.calls"]["value"] == 1.0
        assert parsed["gauges"]["repro.data.prefetch.queue_depth"] == 0.5
        assert (
            parsed["histograms"]["repro.serving.flush_seconds"]["count"] == 1
        )

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMerge:
    def test_counters_add_gauges_max_histograms_add(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("calls").inc(3)
        b.counter("calls").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("depth").set(2.0)
        b.gauge("depth").set(5.0)
        a.histogram("lat").observe(1.0)
        b.histogram("lat").observe(2.0)
        a.merge(b)
        assert a.counter("calls").value == 7.0
        assert a.counter("only_b").value == 1.0
        assert a.gauge("depth").value == 5.0
        assert a.histogram("lat").count == 2
        assert a.histogram("lat").sum == 3.0

    def test_merge_models_per_rank_rollup(self):
        """Multi-rank convention: one registry per rank, merged into a
        run-level view — counters sum across ranks, gauges keep the
        worst (highest) per-rank value."""
        run_level = MetricsRegistry()
        for rank in range(4):
            per_rank = MetricsRegistry()
            per_rank.counter("repro.smpi.bcast.calls").inc(10)
            per_rank.gauge("repro.data.prefetch.queue_depth").set(float(rank))
            run_level.merge(per_rank)
        assert run_level.counter("repro.smpi.bcast.calls").value == 40.0
        assert run_level.gauge("repro.data.prefetch.queue_depth").value == 3.0

    def test_zero_counters_still_appear_after_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        b.counter("never_hit")
        a.merge(b)
        assert "never_hit" in a.snapshot()["counters"]


class TestConcurrency:
    def test_eight_thread_hammer_is_exact(self):
        """8 threads on one registry: shared and private metrics both
        land exactly — no lost updates under the striped locks."""
        registry = MetricsRegistry()
        n_threads, n_iters = 8, 2000
        barrier = threading.Barrier(n_threads)

        def worker(tid):
            barrier.wait()
            for i in range(n_iters):
                registry.counter("shared.calls").inc()
                registry.counter(f"private.{tid}.calls").inc(2.0)
                registry.gauge(f"private.{tid}.depth").set(float(i))
                registry.histogram("shared.lat").observe(1.0)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("shared.calls").value == n_threads * n_iters
        assert registry.histogram("shared.lat").count == n_threads * n_iters
        assert registry.histogram("shared.lat").sum == float(
            n_threads * n_iters
        )
        for tid in range(n_threads):
            assert (
                registry.counter(f"private.{tid}.calls").value
                == 2.0 * n_iters
            )
            assert registry.gauge(f"private.{tid}.depth").value == float(
                n_iters - 1
            )

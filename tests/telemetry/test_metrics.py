"""Metrics registry: instruments, snapshot merge, exporter round-trips."""

import json
import math

import pytest

from repro import telemetry
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    Reporter,
    prometheus_text,
)


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrements(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.collect() == {"type": "counter", "value": 3.5}

    def test_gauge_last_write_wins(self):
        gauge = Gauge("queue_depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5.0
        assert gauge.collect()["type"] == "gauge"

    def test_histogram_counts_and_summary(self):
        histogram = Histogram("latency", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(5.605)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["min"] == pytest.approx(0.005)
        assert summary["max"] == pytest.approx(5.0)
        assert summary["mean"] == pytest.approx(5.605 / 5)
        collected = histogram.collect()
        assert collected["buckets"]["+Inf"] == 1  # the 5.0 observation
        assert sum(collected["buckets"].values()) == 5

    def test_histogram_percentiles_bracket_the_distribution(self):
        histogram = Histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
        for _ in range(90):
            histogram.observe(0.5)
        for _ in range(10):
            histogram.observe(6.0)
        assert histogram.percentile(50) <= 1.0
        assert 4.0 <= histogram.percentile(99) <= 8.0
        # p50/p95/p99 are monotone.
        assert histogram.percentile(50) <= histogram.percentile(95) <= histogram.percentile(99)

    def test_histogram_empty_summary_is_zero(self):
        summary = Histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0
        assert summary["min"] == 0.0 and not math.isinf(summary["min"])

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        first = registry.counter("shed")
        second = registry.counter("shed")
        assert first is second
        first.inc()
        assert second.value == 1.0

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("shed")
        with pytest.raises(TypeError):
            registry.gauge("shed")

    def test_collect_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("b").set(2)
        registry.counter("a").inc(4)
        registry.histogram("c").observe(0.01)
        collected = registry.collect()
        assert list(collected) == ["a", "b", "c"]
        assert [collected[name]["type"] for name in collected] == [
            "counter", "gauge", "histogram",
        ]


class TestSnapshot:
    def test_snapshot_merges_every_surface(self):
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {
            "metrics", "health", "plan_cache", "serving", "trace",
        }
        # Health counters come from the reliability layer's known set.
        assert "guard_trips" in snapshot["health"]
        assert "serving_shed" in snapshot["health"]
        # Plan-cache stats keep the runtime aggregation's sub-keys.
        assert set(snapshot["plan_cache"]) >= {
            "inference_plans", "train_plans", "buffer_pools",
        }
        assert "queue_depth" in snapshot["serving"]
        assert "capacity" in snapshot["trace"]

    def test_snapshot_includes_live_serving_counters(self):
        import numpy as np

        from repro.serving import PolicyServer

        class _StubAgent:
            training = False

            def policy_value(self, observations):
                batch = np.asarray(observations).shape[0]
                return np.full((batch, 3), 1.0 / 3), np.zeros(batch)

        with PolicyServer(start=False) as server:
            server.register_model("stub", _StubAgent(), obs_shape=(2,))
            futures = [server.submit("stub", np.zeros(2)) for _ in range(3)]
            while server.step():
                pass
            for future in futures:
                future.result(timeout=1.0)
            snapshot = telemetry.snapshot()
            assert snapshot["serving"]["completed"] >= 3
            # The registry carries the serving histograms alongside.
            latency = snapshot["metrics"]["serving/request_latency_seconds"]
            assert latency["type"] == "histogram"
            assert latency["count"] >= 3

    def test_snapshot_reflects_health_records(self):
        from repro.reliability import health

        before = telemetry.snapshot()["health"]["guard_trips"]
        health.record("guard_trips")
        after = telemetry.snapshot()["health"]["guard_trips"]
        assert after == before + 1


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        exporter = JsonlExporter(path)
        exporter.write({"step": 1, "loss": 0.5})
        exporter.write({"step": 2, "loss": 0.25, "time": 123.0})
        rows = JsonlExporter.read(path)
        assert len(rows) == 2
        assert rows[0]["step"] == 1 and "time" in rows[0]
        assert rows[1]["time"] == 123.0
        assert exporter.lines_written == 2

    def test_jsonl_serialises_numpy_scalars(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "np.jsonl")
        JsonlExporter(path).write({"value": np.float32(1.5), "count": np.int64(3)})
        (row,) = JsonlExporter.read(path)
        assert row["value"] == 1.5 and row["count"] == 3

    def test_snapshot_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "snap.jsonl")
        JsonlExporter(path).write(telemetry.snapshot())
        (row,) = JsonlExporter.read(path)
        assert set(row) >= {"metrics", "health", "plan_cache", "serving", "trace"}

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("requests_served").inc(5)
        registry.gauge("queue depth").set(2)  # space must be sanitised
        histogram = registry.histogram("latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = prometheus_text(registry.collect())
        lines = text.strip().splitlines()
        assert "# TYPE requests_served counter" in lines
        assert "requests_served_total 5" in lines
        assert "queue_depth 2" in lines
        # Histogram buckets are cumulative and end at +Inf == count.
        assert 'latency_bucket{le="0.1"} 1' in lines
        assert 'latency_bucket{le="1.0"} 2' in lines
        assert 'latency_bucket{le="+Inf"} 3' in lines
        assert "latency_count 3" in lines
        assert text.endswith("\n")


class TestReporter:
    def test_reporter_samples_on_interval(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        reporter = Reporter(interval=3, path=path)
        snaps = [reporter.tick(step=step) for step in range(1, 8)]
        assert [snap is not None for snap in snaps] == [
            False, False, True, False, False, True, False,
        ]
        assert reporter.reports == 2
        rows = JsonlExporter.read(path)
        assert [row["step"] for row in rows] == [3, 6]
        assert all("health" in row for row in rows)

    def test_reporter_disabled_interval_never_reports(self):
        reporter = Reporter(interval=0)
        assert reporter.tick() is None
        assert reporter.reports == 0

    def test_reporter_extra_fields_merge(self):
        reporter = Reporter(interval=1)
        snap = reporter.tick(step=10, extra={"loss": 0.5})
        assert snap["step"] == 10 and snap["loss"] == 0.5


def test_module_registry_is_process_wide():
    assert metrics.registry() is metrics.registry()
    assert telemetry.registry() is metrics.registry()

"""Metrics registry: instruments, prefix views and the merged snapshot."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest

import repro.serving  # noqa: F401 — registers the serving/ instruments
from repro import telemetry
from repro.reliability import KNOWN_COUNTERS
from repro.telemetry import metrics
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Run in a fresh interpreter, where no other test has recorded anything.
FRESH_PROCESS_SCRIPT = """
import json, sys
from repro import runtime, telemetry
runtime.cache_stats()
serving_loaded = "repro.serving" in sys.modules
snapshot = telemetry.snapshot()
print(json.dumps({
    "serving_loaded": serving_loaded,
    "health": sorted(snapshot["health"]),
    "plan_cache": {key: sorted(value) for key, value in snapshot["plan_cache"].items()},
}))
"""


@pytest.fixture(scope="module")
def fresh_process():
    """What a fresh process's ``cache_stats()`` and ``snapshot()`` expose."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS_SCRIPT], env=env, timeout=300,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return json.loads(completed.stdout.decode())


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

    def test_concurrent_updates_are_not_lost(self):
        counter, gauge = Counter("requests"), Gauge("queue_depth")
        rounds = 20000

        def worker():
            for _ in range(rounds):
                counter.inc()
                gauge.inc()
                gauge.dec()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value == 4 * rounds
        assert gauge.value == 0.0

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

    def test_view_strips_prefix_and_skips_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serving/requests").inc(3)
        registry.gauge("serving/queue_depth").set(2)
        registry.histogram("serving/latency").observe(0.01)
        registry.counter("health/guard_trips").inc()
        assert registry.view("serving/") == {"queue_depth": 2.0, "requests": 3}
        assert registry.view("health/") == {"guard_trips": 1}
        assert registry.view("runtime/") == {}

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
    def test_snapshot_merges_every_surface(self, fresh_process):
        snapshot = telemetry.snapshot()
        assert set(snapshot) == {
            "metrics", "health", "plan_cache", "serving", "trace",
        }
        assert set(snapshot["serving"]) == {
            "requests", "completed", "failed", "batches", "padded_slots", "queue_depth",
        }
        assert "capacity" in snapshot["trace"]
        # In a fresh process the health view is exactly the known counters
        # and the plan cache has exactly the runtime counters (no kernel
        # signature compiled yet).
        assert fresh_process["health"] == sorted(KNOWN_COUNTERS)
        plan_counters = ["cache_evictions", "cache_hits", "cache_misses"]
        assert fresh_process["plan_cache"] == {
            "inference_plans": plan_counters,
            "train_plans": plan_counters,
            "buffer_pools": ["bytes_fresh", "bytes_pooled", "hits", "misses"],
            "kernels": [],
        }

    def test_snapshot_is_json_ready(self):
        snapshot = telemetry.snapshot()
        assert json.loads(json.dumps(snapshot)).keys() == snapshot.keys()

    def test_cache_stats_does_not_load_serving(self, fresh_process):
        assert fresh_process["serving_loaded"] is False

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


def test_module_registry_is_process_wide():
    assert metrics.registry() is metrics.registry()
    assert telemetry.registry() is metrics.registry()

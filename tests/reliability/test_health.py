"""Process-wide health counters and their surfacing points."""

import pytest

from repro.reliability import KNOWN_COUNTERS, health
from repro.telemetry.metrics import registry


class TestCounters:
    def test_stats_always_reports_known_counters(self):
        stats = health.stats()
        for name in KNOWN_COUNTERS:
            assert name in stats
            assert isinstance(stats[name], int)

    def test_record_and_get(self):
        before = health.get("worker_restarts")
        health.record("worker_restarts")
        health.record("worker_restarts", 2)
        assert health.get("worker_restarts") == before + 3

    def test_unknown_counter_defaults_to_zero_reads(self):
        assert health.get("never_recorded_counter") == 0

    def test_counters_live_in_the_metrics_registry(self):
        counter = registry().get("health/guard_trips")
        before = counter.value
        health.record("guard_trips")
        assert counter.value == before + 1
        assert health.get("guard_trips") == counter.value

    def test_reset_zeroes_only_health_counters(self):
        other = registry().counter("test/not_a_health_counter")
        other.inc(2)
        shed = registry().get("health/serving_shed")
        health.record("serving_shed")
        health.reset()
        assert set(health.stats().values()) == {0}
        # Instruments stay registered: holders keep counting into them.
        assert registry().get("health/serving_shed") is shed
        assert registry().get("test/not_a_health_counter") is other
        assert other.value >= 2


class TestWindows:
    def test_snapshot_freezes_current_totals(self):
        health.record("worker_restarts", 2)
        snap = health.snapshot()
        assert snap.counters == health.stats()
        health.record("worker_restarts")
        assert snap.counters["worker_restarts"] == health.get("worker_restarts") - 1

    def test_delta_reports_only_window_increments(self):
        snap = health.snapshot()
        health.record("serving_shed", 3)
        health.record("guard_trips")
        window = health.delta(snap)
        assert window.counters["serving_shed"] == 3
        assert window.counters["guard_trips"] == 1
        assert window.counters["eager_fallbacks"] == 0
        assert window.seconds >= 0
        assert set(KNOWN_COUNTERS) <= set(window.counters)

    def test_rates_divide_by_window_seconds(self):
        window = health.Window({"serving_shed": 10}, seconds=2.0)
        assert window.rates == {"serving_shed": 5.0}

    def test_counter_reset_mid_window_clamps_to_zero(self):
        health.record("autosaves", 5)
        snap = health.snapshot()
        health.reset()
        window = health.delta(snap)
        assert window.counters["autosaves"] == 0

    def test_counter_born_inside_window_reports_full_value(self):
        snap = health.snapshot()
        health.record("brand_new_counter", 4)
        assert health.delta(snap).counters["brand_new_counter"] == 4

    def test_reliability_package_exports(self):
        from repro.reliability import health_delta, health_snapshot

        window = health_delta(health_snapshot())
        assert window.seconds >= 0


class TestSurfacing:
    def test_cache_stats_includes_health(self):
        from repro import runtime

        stats = runtime.cache_stats()
        assert stats["health"] == health.stats()

    @pytest.mark.parametrize("kind", ["a2c", "search"])
    def test_search_loop_logs_health_per_update(self, kind):
        from repro.drl import A2CConfig, A2CTrainer, make_agent
        from repro.envs import make_vector_env
        from repro.nas import DRLArchitectureSearch, SearchConfig

        env_kwargs = {"obs_size": 21, "frame_stack": 2, "max_episode_steps": 60}
        if kind == "a2c":
            agent = make_agent("Vanilla", obs_size=21, frame_stack=2, feature_dim=16, seed=0)
            env = make_vector_env("Breakout", num_envs=2, seed=0, **env_kwargs)
            loop = A2CTrainer(agent, env, config=A2CConfig(total_steps=10, num_envs=2, seed=0))
            loop.train()
        else:
            loop = DRLArchitectureSearch(
                "Breakout",
                config=SearchConfig(total_steps=10, num_envs=2, seed=0),
                env_kwargs=env_kwargs,
                supernet_kwargs={"input_size": 21, "in_channels": 2, "feature_dim": 32,
                                 "base_width": 4, "num_cells": 6},
            )
            loop.search()
        logged = loop.logger.names()
        for name in KNOWN_COUNTERS:
            assert "health/" + name in logged
        for name in ("train_plan_hits", "train_plan_misses", "rollout_plan_hits",
                     "rollout_plan_misses", "pool_bytes_recycled", "pool_bytes_fresh"):
            steps, _ = loop.logger.series("runtime/" + name)
            assert len(steps) == loop.updates

"""PolicyServer: registration, routing, admission, supervision, shutdown."""

import threading

import numpy as np
import pytest

from repro.reliability import RetryPolicy, health
from repro.runtime import Calibrator
from repro.serving import (
    BucketPolicy,
    PolicyServer,
    ServerClosedError,
    ServerOverloadedError,
    UnknownModelError,
)
from repro.telemetry.metrics import registry

from serving_helpers import NUM_ACTIONS, OBS_SHAPE, build_agent


def manual_server(**kwargs):
    """A server in manual (step-pumped) mode with no coalescing wait."""
    kwargs.setdefault("policy", BucketPolicy(max_wait=0.0))
    return PolicyServer(start=False, **kwargs)


class _BrokenAgent:
    """Duck-typed model whose forward always fails."""

    training = False

    def policy_value(self, observations):
        raise RuntimeError("forward exploded")


class TestRegistration:
    def test_training_mode_model_rejected(self, agent):
        server = manual_server()
        training_agent = build_agent().train()
        with pytest.raises(ValueError, match="training mode"):
            server.register_model("bad", training_agent)

    def test_duplicate_name_rejected(self, agent):
        server = manual_server()
        server.register_model("pilot", agent)
        with pytest.raises(ValueError, match="already registered"):
            server.register_model("pilot", agent)

    def test_warm_requires_obs_shape(self, agent):
        with pytest.raises(ValueError, match="obs_shape"):
            manual_server().register_model("pilot", agent, warm=True)

    def test_unknown_model_typed_error(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent)
        with pytest.raises(UnknownModelError, match="copilot"):
            server.submit("copilot", observations[0])

    def test_shape_mismatch_rejected_at_submit(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        with pytest.raises(ValueError, match="shape"):
            server.submit("pilot", observations[0][:, :8, :8])

    def test_model_names_sorted(self, agent):
        server = manual_server()
        server.register_model("zulu", agent)
        server.register_model("alpha", agent)
        assert server.model_names() == ["alpha", "zulu"]


class TestManualMode:
    def test_step_without_traffic_is_a_noop(self, agent):
        server = manual_server()
        server.register_model("pilot", agent)
        assert server.step() is False

    def test_batch_executes_and_fans_out(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        futures = [server.submit("pilot", obs) for obs in observations[:6]]
        assert server.step() is True
        for future, obs in zip(futures, observations[:6]):
            probs, value = future.result(timeout=0)
            assert probs.shape == (NUM_ACTIONS,)
            assert value.shape == ()
            assert abs(probs.sum() - 1.0) < 1e-5
        stats = server.stats()
        assert stats["completed"] == 6
        assert stats["batches"] == 1
        assert stats["batch_sizes"] == {8: 1}
        assert stats["padded_slots"] == 2

    def test_multi_model_routing(self, agent, observations):
        other = build_agent(seed=3)
        server = manual_server()
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        server.register_model("copilot", other, obs_shape=OBS_SHAPE)
        pilot_futures = [server.submit("pilot", obs) for obs in observations[:3]]
        copilot_futures = [server.submit("copilot", obs) for obs in observations[:3]]
        # Two steps: one per-model batch each, FIFO by arrival.
        assert server.step() and server.step()
        pilot_probs = np.stack([f.result(timeout=0)[0] for f in pilot_futures])
        copilot_probs = np.stack([f.result(timeout=0)[0] for f in copilot_futures])
        # Different weights, different answers: routing did not cross-wire.
        assert not np.allclose(pilot_probs, copilot_probs)
        assert server.stats()["models"] == {"pilot": 3, "copilot": 3}

    def test_quantized_variant_served_beside_float(self, agent, observations):
        q8_agent = build_agent()
        calibrator = Calibrator(q8_agent, (8,) + OBS_SHAPE, dtype=np.float32)
        for start in range(0, 16, 8):
            calibrator.observe(observations[start:start + 8])
        q8_agent.runtime_quantize = calibrator.result(mode="q8")
        server = manual_server()
        server.register_model("pilot-f32", agent, obs_shape=OBS_SHAPE)
        server.register_model("pilot-q8", q8_agent, obs_shape=OBS_SHAPE)
        f32 = [server.submit("pilot-f32", obs) for obs in observations[:8]]
        q8 = [server.submit("pilot-q8", obs) for obs in observations[:8]]
        assert server.step() and server.step()
        f32_probs = np.stack([f.result(timeout=0)[0] for f in f32])
        q8_probs = np.stack([f.result(timeout=0)[0] for f in q8])
        # Same weights: the q8 variant tracks the float one closely but is a
        # genuinely different compiled path.
        np.testing.assert_allclose(q8_probs, f32_probs, atol=0.05)
        assert server.stats()["models"]["pilot-q8"] == 8


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, agent, observations):
        server = manual_server(max_queue=4)
        server.register_model("pilot", agent)
        for obs in observations[:4]:
            server.submit("pilot", obs)
        shed_before = health.get("serving_shed")
        with pytest.raises(ServerOverloadedError, match="shed"):
            server.submit("pilot", observations[4])
        assert health.get("serving_shed") == shed_before + 1
        stats = server.stats()
        assert stats["shed"] == 1
        assert stats["requests"] == 4  # the shed request was never admitted
        # Shed is non-fatal: draining the queue reopens admission.
        server.step()
        future = server.submit("pilot", observations[4])
        server.step()
        assert future.result(timeout=0)[0].shape == (NUM_ACTIONS,)


class TestShutdown:
    def test_queued_futures_resolve_with_typed_error(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent)
        futures = [server.submit("pilot", obs) for obs in observations[:3]]
        server.close()
        for future in futures:
            with pytest.raises(ServerClosedError):
                future.result(timeout=0)
        assert server.stats()["failed"] == 3
        assert server.closed

    def test_submit_after_close_raises(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent)
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit("pilot", observations[0])

    def test_finish_backlog_drains_to_completion(self, agent, observations):
        server = PolicyServer(BucketPolicy(max_wait=0.2), start=True)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        futures = [server.submit("pilot", obs) for obs in observations[:5]]
        # Close well inside the coalescing window: the backlog drains (the
        # deadline is skipped while draining) instead of erroring out.
        server.close(finish_backlog=True)
        for future in futures:
            probs, _ = future.result(timeout=5)
            assert probs.shape == (NUM_ACTIONS,)
        assert not server._thread.is_alive()

    def test_finish_backlog_drains_manual_server(self, agent, observations):
        """Without a worker thread the backlog drains on the closing thread."""
        gauge = registry().gauge("serving/queue_depth")
        baseline = gauge.value
        server = manual_server()
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        future = server.submit("pilot", observations[0])
        server.close(finish_backlog=True)
        assert future.done()
        probs, _ = future.result(timeout=0)
        assert probs.shape == (NUM_ACTIONS,)
        assert server.stats()["queue_depth"] == 0
        assert server.stats()["completed"] == 1
        assert gauge.value == baseline

    def test_close_is_idempotent_and_context_managed(self, agent):
        with PolicyServer(start=True) as server:
            server.register_model("pilot", agent)
            server.close()
        assert server.closed

    def test_register_after_close_rejected(self, agent):
        server = manual_server()
        server.close()
        with pytest.raises(ServerClosedError):
            server.register_model("pilot", agent)


class TestSupervision:
    def test_model_failure_contained_per_batch(self, agent, observations):
        server = manual_server()
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        server.register_model("broken", _BrokenAgent())
        failures_before = health.get("serving_batch_failures")
        doomed = server.submit("broken", observations[0])
        server.step()
        with pytest.raises(RuntimeError, match="forward exploded"):
            doomed.result(timeout=0)
        assert health.get("serving_batch_failures") == failures_before + 1
        assert not server.closed
        # The server keeps serving healthy models afterwards.
        future = server.submit("pilot", observations[1])
        server.step()
        assert future.result(timeout=0)[0].shape == (NUM_ACTIONS,)
        stats = server.stats()
        assert stats["batch_failures"] == 1
        assert stats["failed"] == 1
        assert stats["completed"] == 1

    def test_worker_restarts_after_scheduler_crash(self, agent, observations, monkeypatch):
        server = PolicyServer(
            BucketPolicy(max_wait=0.0),
            restart=RetryPolicy(max_attempts=3, backoff=0.0, sleep=lambda _s: None),
            start=False,
        )
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        original = server._execute
        crashes = []

        def crash_once(batch):
            if not crashes:
                crashes.append(1)
                raise RuntimeError("scheduler bug")
            return original(batch)

        monkeypatch.setattr(server, "_execute", crash_once)
        restarts_before = health.get("serving_restarts")
        server.start()
        doomed = server.submit("pilot", observations[0])
        # At-most-once execution: the orphaned batch fails, nothing hangs.
        with pytest.raises(RuntimeError, match="scheduler bug"):
            doomed.result(timeout=5)
        # The restarted loop serves the next request normally.
        probs, _ = server.policy_value("pilot", observations[1], timeout=5)
        assert probs.shape == (NUM_ACTIONS,)
        assert health.get("serving_restarts") == restarts_before + 1
        stats = server.stats()
        assert stats["restarts"] == 1
        assert not server.degraded
        server.close()

    def test_restart_budget_exhaustion_degrades(self, agent, observations, monkeypatch):
        server = PolicyServer(
            BucketPolicy(max_wait=0.0),
            restart=RetryPolicy(max_attempts=2, backoff=0.0, sleep=lambda _s: None),
            start=False,
        )
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)

        def always_crash(batch):
            raise RuntimeError("persistent bug")

        monkeypatch.setattr(server, "_execute", always_crash)
        server.start()
        first = server.submit("pilot", observations[0])
        with pytest.raises(RuntimeError, match="persistent bug"):
            first.result(timeout=5)
        second = server.submit("pilot", observations[1])
        with pytest.raises(RuntimeError, match="persistent bug"):
            second.result(timeout=5)
        server._thread.join(timeout=5)
        assert server.degraded
        assert server.closed
        with pytest.raises(ServerClosedError):
            server.submit("pilot", observations[2])


class TestObservability:
    def test_serving_counters_aggregate_servers(self, agent, observations):
        baseline = registry().view("serving/")
        first, second = manual_server(), manual_server()
        for server in (first, second):
            server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        for obs in observations[:3]:
            first.submit("pilot", obs)
        second.submit("pilot", observations[3])
        first.step()
        second.step()
        totals = registry().view("serving/")
        assert totals["requests"] == baseline["requests"] + 4
        assert totals["completed"] == baseline["completed"] + 4
        assert totals["batches"] == baseline["batches"] + 2
        # Three requests ride a bucket of 4, the lone one a bucket of 1.
        assert totals["padded_slots"] == baseline["padded_slots"] + 1
        assert first.stats()["batch_sizes"] == {4: 1}

    def test_queue_depth_gauge_sums_servers_and_drains_on_close(self, agent, observations):
        gauge = registry().gauge("serving/queue_depth")
        baseline = gauge.value
        first, second = manual_server(), manual_server()
        for server in (first, second):
            server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        for obs in observations[:3]:
            first.submit("pilot", obs)
        second.submit("pilot", observations[3])
        assert gauge.value == baseline + 4
        first.step()
        assert gauge.value == baseline + 1
        first.close()
        second.close()
        assert gauge.value == baseline

    def test_shed_and_restart_each_raise_one_process_counter(self, agent, observations,
                                                             monkeypatch):
        server = PolicyServer(
            BucketPolicy(max_wait=0.0), max_queue=1,
            restart=RetryPolicy(max_attempts=3, backoff=0.0, sleep=lambda _s: None),
            start=False,
        )
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        waiting = server.submit("pilot", observations[0])
        before = registry().view("")
        with pytest.raises(ServerOverloadedError):
            server.submit("pilot", observations[1])
        after = registry().view("")
        assert {name for name in after if after[name] != before.get(name)} == {
            "health/serving_shed"
        }
        assert after["health/serving_shed"] == before["health/serving_shed"] + 1

        def crash(batch):
            raise RuntimeError("scheduler bug")

        monkeypatch.setattr(server, "_execute", crash)
        before = registry().view("")
        server.start()
        with pytest.raises(RuntimeError, match="scheduler bug"):
            waiting.result(timeout=5)
        server.close()
        after = registry().view("")
        # The waiting request leaves the queue and fails with its orphaned
        # batch; the restart itself is one counter.
        assert {name for name in after if after[name] != before.get(name)} == {
            "serving/queue_depth", "serving/failed", "health/serving_restarts",
        }
        assert after["health/serving_restarts"] == before["health/serving_restarts"] + 1
        assert server.stats()["shed"] == 1 and server.stats()["restarts"] == 1
        serving_names = [name for name in registry().names() if "serving" in name]
        assert [name for name in serving_names if "shed" in name] == ["health/serving_shed"]
        assert [name for name in serving_names if "restart" in name] == [
            "health/serving_restarts"
        ]

    def test_health_window_reports_serving_rates(self, agent, observations):
        server = manual_server(max_queue=1)
        server.register_model("pilot", agent)
        server.submit("pilot", observations[0])
        with pytest.raises(ServerOverloadedError):
            server.submit("pilot", observations[1])
        window = server.health_window(reset=True)
        assert window.counters["serving_shed"] == 1
        assert window.rates["serving_shed"] > 0
        # reset=True rebases: a fresh window starts from zero again.
        assert server.health_window().counters["serving_shed"] == 0

    def test_concurrent_clients_all_answered(self, agent, observations):
        server = PolicyServer(BucketPolicy(max_wait=0.001), start=True)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        results = {}
        errors = []

        def client(idx):
            try:
                results[idx] = server.policy_value("pilot", observations[idx], timeout=10)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        server.close()
        assert not errors
        assert len(results) == 16
        stats = server.stats()
        assert stats["completed"] == 16
        # Concurrent arrivals actually coalesced: fewer batches than requests.
        assert stats["batches"] < 16

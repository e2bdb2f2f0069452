"""The serving tier's numerics and batching acceptance pins.

Numerics: a batched response must be bitwise-identical to evaluating the
same observation directly at that batch size — co-batched traffic and
padding rows are invisible (eval-mode plans have no cross-row reductions).
A solo request (bucket 1) is therefore bitwise-equal to direct batch-1
evaluation.  Across *different* bucket sizes float32 results drift in the
last bits (BLAS GEMM reduction order changes with the batch dimension);
the single-bucket policy is the pinned escape hatch for traffic-independent
bitwise determinism.

Batching: a full queue of 32 requests runs as one bucket-32 batch.  These
are counts, not timings; the throughput that batching buys is measured by
the ``serve`` workload of ``perfbench`` (``throughput_per_s``), not here.
"""

import time

import numpy as np
import pytest

from repro.serving import BucketPolicy, PolicyServer

from serving_helpers import OBS_SHAPE


def pump(server, futures, timeout=5.0):
    """Step the manual server until every future resolved (or timeout)."""
    deadline = time.monotonic() + timeout
    while not all(f.done() for f in futures):
        if not server.step() and time.monotonic() > deadline:
            raise TimeoutError("futures never resolved")
    return [f.result(timeout=0) for f in futures]


class TestBitwiseParity:
    @pytest.mark.parametrize("size", [8, 32])
    def test_full_bucket_matches_direct_batch(self, agent, observations, size):
        """``size`` queued requests run as one batch == direct policy_value, bitwise."""
        server = PolicyServer(BucketPolicy(max_wait=0.0), start=False)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        futures = [server.submit("pilot", obs) for obs in observations[:size]]
        results = pump(server, futures)
        stats = server.stats()
        assert stats["batch_sizes"] == {size: 1}
        assert stats["avg_batch"] == size
        direct_probs, direct_values = agent.policy_value(observations[:size])
        for row, (probs, value) in enumerate(results):
            assert np.array_equal(probs, direct_probs[row])
            assert np.array_equal(value, direct_values[row])

    def test_solo_request_matches_batch1_direct(self, agent, observations):
        """The acceptance claim at bucket 1: served == direct, bitwise."""
        server = PolicyServer(BucketPolicy(max_wait=0.0), start=False)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        future = server.submit("pilot", observations[0])
        (probs, value), = pump(server, [future])
        direct_probs, direct_values = agent.policy_value(observations[:1])
        assert np.array_equal(probs, direct_probs[0])
        assert np.array_equal(value, direct_values[0])

    def test_padding_and_cotraffic_are_invisible(self, agent, observations):
        """A request's rows are bitwise-independent of what it batched with.

        The same 5 observations are served padded (5 -> bucket 8, zero rows)
        and co-batched with 3 unrelated live requests: identical answers.
        """
        server = PolicyServer(BucketPolicy(max_wait=0.0), start=False)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)

        padded_futures = [server.submit("pilot", obs) for obs in observations[:5]]
        padded = pump(server, padded_futures)
        assert server.stats()["padded_slots"] == 3

        mixed_futures = [server.submit("pilot", obs) for obs in observations[:5]]
        mixed_futures += [server.submit("pilot", obs) for obs in observations[40:43]]
        mixed = pump(server, mixed_futures)

        for (p_probs, p_value), (m_probs, m_value) in zip(padded, mixed[:5]):
            assert np.array_equal(p_probs, m_probs)
            assert np.array_equal(p_value, m_value)

    def test_single_bucket_policy_is_traffic_independent(self, agent, observations):
        """buckets=(8,): one compiled plan, bitwise answers under any load."""
        server = PolicyServer(BucketPolicy(buckets=(8,), max_wait=0.0), start=False)
        server.register_model("pilot", agent, obs_shape=OBS_SHAPE)
        solo = pump(server, [server.submit("pilot", observations[0])])[0]
        crowded_futures = [server.submit("pilot", obs) for obs in observations[:8]]
        crowded = pump(server, crowded_futures)
        assert np.array_equal(solo[0], crowded[0][0])
        assert np.array_equal(solo[1], crowded[0][1])
        assert server.stats()["batch_sizes"] == {8: 2}

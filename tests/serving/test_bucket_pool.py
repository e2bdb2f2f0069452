"""BufferPool behaviour under bucket-ladder plan churn.

A serving tier cycling between bucket sizes with a small plan cache evicts
and recompiles plans constantly; the engine's :class:`BufferPool` is what
keeps that from allocating fresh activation memory every cycle.  This pins
the steady state: after the first full cycle has populated the pool,
further 1 -> 8 -> 32 -> 8 -> ... recompiles draw every buffer from the pool
(``bytes_fresh`` stops growing).  The pools count into the registry's
``runtime/buffer_pools/*`` counters, so the checks read their deltas.
"""

import numpy as np

from repro.runtime import RuntimePolicy, cache_stats


def run_cycle(policy, observations, sizes):
    for size in sizes:
        policy.policy_value(observations[:size])


class TestBucketRecompilePooling:
    def test_no_steady_state_fresh_allocations(self, agent, observations):
        policy = RuntimePolicy(agent, dtype=np.float32, max_plans=2)
        sizes = (1, 8, 32, 8)
        # With room for only 2 plans, every cycle over 3 distinct bucket
        # sizes evicts and recompiles at least one plan.
        before = cache_stats()
        run_cycle(policy, observations, sizes)
        run_cycle(policy, observations, sizes)
        warm = cache_stats()
        assert (warm["inference_plans"]["cache_evictions"]
                > before["inference_plans"]["cache_evictions"])

        steady = warm["buffer_pools"]
        # the warmup actually allocated
        assert steady["bytes_fresh"] > before["buffer_pools"]["bytes_fresh"]
        for _ in range(3):
            run_cycle(policy, observations, sizes)
        after = cache_stats()["buffer_pools"]
        assert after["bytes_fresh"] == steady["bytes_fresh"], (
            "recompiles kept allocating fresh buffers: {} -> {}".format(
                steady["bytes_fresh"], after["bytes_fresh"]
            )
        )
        assert after["bytes_pooled"] > steady["bytes_pooled"]
        assert after["hits"] > steady["hits"]

    def test_pool_survives_interleaved_bucket_traffic(self, agent, observations):
        policy = RuntimePolicy(agent, dtype=np.float32, max_plans=2)
        hits = cache_stats()["buffer_pools"]["hits"]
        # Irregular serving-like traffic over the ladder.
        for size in (1, 8, 32, 8, 1, 32, 8, 32, 1, 8):
            probs, values = policy.policy_value(observations[:size])
            assert probs.shape[0] == size
            assert values.shape[0] == size
        assert cache_stats()["buffer_pools"]["hits"] > hits

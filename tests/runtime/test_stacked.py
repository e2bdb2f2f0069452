"""A search with K > 1 Gumbel samples per update runs the eager K-sample update.

The compiled one-level update takes exactly one Gumbel sample, so a
``grad_samples = 2`` search never compiles a train plan: each update is the
eager mean of the per-sample task losses, reached directly rather than as a
fallback from a failed compile.
"""

import numpy as np
import pytest

from repro.nas.search import DRLArchitectureSearch, SearchConfig
from repro.reliability import health
from repro.telemetry.metrics import registry


class TestStackedSearchIntegration:
    def test_eager_fallback_stacked_search_runs(self, monkeypatch):
        config = SearchConfig(total_steps=64, num_envs=2, rollout_length=4, grad_samples=2, seed=3)
        search = DRLArchitectureSearch(
            "Breakout", config=config,
            env_kwargs={"obs_size": 21, "frame_stack": 2},
            supernet_kwargs={"feature_dim": 32, "base_width": 4},
        )
        sample_losses = []
        task_loss = search._task_loss

        def recorded(batch, **kwargs):
            total, components = task_loss(batch, **kwargs)
            sample_losses.append(total.item())
            return total, components

        monkeypatch.setattr(search, "_task_loss", recorded)
        misses = registry().counter("runtime/train_plans/cache_misses")
        misses_before, fallbacks_before = misses.value, health.get("eager_fallbacks")

        result = search.search()

        assert search.updates > 0
        assert len(result.op_indices) == 12
        assert np.isfinite(result.final_entropy)
        assert misses.value == misses_before
        assert health.get("eager_fallbacks") == fallbacks_before
        _, totals = search.logger.series("loss/total")
        assert len(totals) == search.updates
        assert len(sample_losses) == 2 * search.updates
        for k, total in enumerate(totals):
            first, second = sample_losses[2 * k:2 * k + 2]
            assert total == pytest.approx((first + second) / 2, rel=1e-12, abs=0.0)

"""Non-finite guards: skipped updates, rollback streaks, optimizer hygiene."""

import numpy as np
import pytest

from repro.drl import A2CConfig, A2CTrainer, make_agent
from repro.envs import make_vector_env
from repro.nn import Linear, RMSProp
from repro.reliability import health

GAME = "Breakout"
OBS_SIZE = 21


def make_trainer(total_steps=10, **config_overrides):
    agent = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=0)
    env = make_vector_env(GAME, num_envs=2, obs_size=OBS_SIZE, frame_stack=2,
                          max_episode_steps=60, seed=0)
    config = A2CConfig(total_steps=total_steps, num_envs=2, seed=0, **config_overrides)
    return A2CTrainer(agent, env, config=config)


def agent_params(trainer):
    return {k: v.copy() for k, v in trainer.agent.state_dict().items()}


class TestOptimizerGuard:
    def test_nonfinite_total_norm_skips_the_step(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = RMSProp(layer.parameters(), lr=0.1)
        before = [p.data.copy() for p in optimizer.parameters]
        grads = [np.full_like(p.data, np.nan) for p in optimizer.parameters]
        norm = optimizer.apply_gradients(grads, max_norm=0.5, skip_nonfinite=True)
        assert not np.isfinite(norm)
        for param, snapshot in zip(optimizer.parameters, before):
            np.testing.assert_array_equal(param.data, snapshot)

    def test_finite_gradients_still_apply(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        optimizer = RMSProp(layer.parameters(), lr=0.1)
        before = [p.data.copy() for p in optimizer.parameters]
        grads = [np.ones_like(p.data) for p in optimizer.parameters]
        norm = optimizer.apply_gradients(grads, max_norm=0.5, skip_nonfinite=True)
        assert np.isfinite(norm)
        assert any(
            not np.array_equal(p.data, s) for p, s in zip(optimizer.parameters, before)
        )


class TestTrainerGuards:
    @pytest.mark.parametrize("compiled", [True, False])
    def test_nan_grad_skips_update_and_counts(self, set_faults, compiled):
        set_faults("nan_grad=1@update:1")
        trainer = make_trainer(total_steps=10, use_compiled_train=compiled)
        trips = health.get("guard_trips")
        before = agent_params(trainer)
        trainer.train()
        assert trainer.updates == 1
        assert health.get("guard_trips") == trips + 1
        # The poisoned gradient never reached the parameters.
        after = trainer.agent.state_dict()
        for key in before:
            np.testing.assert_array_equal(np.asarray(after[key]), before[key], err_msg=key)
            assert np.all(np.isfinite(np.asarray(after[key])))

    def test_clean_run_trips_no_guard(self):
        trainer = make_trainer(total_steps=10)
        trips = health.get("guard_trips")
        before = agent_params(trainer)
        trainer.train()
        assert health.get("guard_trips") == trips
        after = trainer.agent.state_dict()
        assert any(
            not np.array_equal(np.asarray(after[key]), before[key]) for key in before
        )

    def test_consecutive_trips_roll_back_to_autosave(self, set_faults, tmp_path):
        set_faults("nan_grad=2@update:2")
        path = str(tmp_path / "autosave.npz")
        trainer = make_trainer(
            total_steps=50,
            autosave_interval=1,
            autosave_path=path,
            guard_rollback_after=2,
        )
        rollbacks = health.get("checkpoint_rollbacks")
        trips = health.get("guard_trips")
        saves = health.get("autosaves")
        trainer.train()
        # Updates 2 and 3 tripped the guard; the streak of two rolled the
        # trainer back to the autosave written after update 2 (whose
        # parameters are still those of update 1 — skipped updates do not
        # touch them), after which training recovered and ran to the target.
        assert health.get("guard_trips") == trips + 2
        assert health.get("checkpoint_rollbacks") == rollbacks + 1
        assert health.get("autosaves") > saves
        assert trainer.total_env_steps >= 50
        for value in trainer.agent.state_dict().values():
            assert np.all(np.isfinite(np.asarray(value)))

    def test_checkpoint_load_resets_the_guard_streak(self, set_faults, tmp_path):
        # Two skipped updates, a load, then one more: the streak restarts at
        # the load, so three trips in a row never reach the rollback.
        set_faults("nan_grad=3@update:1")
        path = str(tmp_path / "autosave.npz")
        trainer = make_trainer(autosave_interval=1, autosave_path=path, guard_rollback_after=3)
        rollbacks = health.get("checkpoint_rollbacks")
        trips = health.get("guard_trips")
        for _ in range(trainer.config.guard_rollback_after - 1):
            trainer.train(total_steps=trainer.total_env_steps + 1)
        trainer.load_checkpoint(path)
        trainer.train(total_steps=trainer.total_env_steps + 1)
        assert health.get("guard_trips") == trips + 3
        assert health.get("checkpoint_rollbacks") == rollbacks

    def test_search_guard_skips_alpha_and_weight_updates(self, set_faults):
        from repro.nas import DRLArchitectureSearch, SearchConfig

        set_faults("nan_grad=1@update:1")
        searcher = DRLArchitectureSearch(
            GAME,
            config=SearchConfig(total_steps=20, num_envs=2, seed=0),
            env_kwargs={"obs_size": OBS_SIZE, "frame_stack": 2, "max_episode_steps": 60},
            supernet_kwargs={"input_size": OBS_SIZE, "in_channels": 2, "feature_dim": 32,
                             "base_width": 4, "num_cells": 6},
        )
        trips = health.get("guard_trips")
        alphas_before = [a.data.copy() for a in searcher.arch.alphas]
        searcher.search()
        assert health.get("guard_trips") == trips + 1
        for alpha in searcher.arch.alphas:
            assert np.all(np.isfinite(alpha.data))
        # The search still made progress on the later (clean) update.
        assert searcher.updates == 2
        assert any(
            not np.array_equal(before, after.data)
            for before, after in zip(alphas_before, searcher.arch.alphas)
        )

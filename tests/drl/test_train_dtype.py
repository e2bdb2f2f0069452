"""The training loop's compute dtype: float32 by default, float64 when pinned.

The compiled train plans, the teacher targets and the rollouts' act and
bootstrap inference run at ``compiled_train_dtype``; the master weights, the
optimiser state and the agent's own ``runtime_dtype`` (evaluation, serving)
stay float64 whatever it is.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cosearch import A3CSConfig, A3CSCoSearch
from repro.drl import (A2CConfig, A2CTrainer, ACDistiller, DistillationMode, evaluate_agent,
                       make_agent)
from repro.envs import make_vector_env
from repro.nas import DRLArchitectureSearch, SearchConfig
from repro.reliability import faults, health
from repro.runtime import cache_stats

GAME = "Breakout"
OBS_SIZE = 21
ENV_KW = {"obs_size": OBS_SIZE, "frame_stack": 2, "max_episode_steps": 60}
SUPERNET_KW = {"input_size": OBS_SIZE, "in_channels": 2, "feature_dim": 16,
               "base_width": 4, "num_cells": 6}


def _teacher():
    teacher = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=1)
    teacher.eval()
    return teacher


def _a2c(**overrides):
    agent = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=0)
    env = make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)
    config = A2CConfig(total_steps=10, num_envs=2, seed=0,
                       distillation_mode=DistillationMode.AC, **overrides)
    return A2CTrainer(agent, env, config=config, teacher=_teacher())


def _search(**overrides):
    config = SearchConfig(total_steps=10, num_envs=2, seed=0, **overrides)
    return DRLArchitectureSearch(GAME, teacher=_teacher(), config=config,
                                 env_kwargs=dict(ENV_KW), supernet_kwargs=dict(SUPERNET_KW))


def _cosearch():
    config = A3CSConfig(obs_size=OBS_SIZE, num_envs=2, num_cells=6, base_width=4,
                        feature_dim=16, max_episode_steps=60, search_steps=10)
    cosearch = A3CSCoSearch(GAME, config=config, teacher=_teacher())
    cosearch._build()
    return cosearch.searcher


def _assert_trains_at(loop, dtype):
    loop._run(loop.total_env_steps + 1)
    step = loop._train_step
    assert step is not None and step.dtype == dtype
    assert step.num_plans > 0
    assert all(plan.dtype == dtype for plan in step.plans)
    assert loop.distiller.dtype == dtype
    assert loop.distiller.teacher.runtime_dtype == np.float64
    # Master weights stay float64 whatever the plans compute in.
    assert all(param.data.dtype == np.float64 for param in loop.agent.parameters())


class TestDefaultTrainDtype:
    @pytest.mark.parametrize("build", [_a2c, _search, _cosearch], ids=["a2c", "search", "cosearch"])
    def test_default_is_float32(self, build):
        _assert_trains_at(build(), np.float32)

    @pytest.mark.parametrize("build", [_a2c, _search], ids=["a2c", "search"])
    def test_explicit_float64_is_kept(self, build):
        _assert_trains_at(build(compiled_train_dtype=np.float64), np.float64)


class TestRolloutDtype:
    @pytest.mark.parametrize("build", [_a2c, _search, _cosearch], ids=["a2c", "search", "cosearch"])
    def test_rollouts_infer_at_loop_dtype(self, build):
        loop = build()
        loop._run(loop.total_env_steps + 1)
        runtime = loop._rollout_runtime
        assert runtime.dtype == np.float32 and runtime.num_plans > 0
        assert all(plan.dtype == np.float32 for plan in runtime.plans)
        # The agent's own runtime is untouched by training and stays float64.
        agent = loop.agent
        assert agent.runtime_dtype == np.float64 and agent._runtime is None
        evaluate_agent(agent, GAME, episodes=1, env_kwargs=dict(ENV_KW),
                       max_steps_per_episode=10, backbone_kwargs=self._path(loop))
        assert agent.runtime.dtype == np.float64 and agent.runtime.num_plans > 0
        assert all(plan.dtype == np.float64 for plan in agent.runtime.plans)

    @staticmethod
    def _path(loop):
        arch = getattr(loop, "arch", None)
        return {"op_indices": arch.derive()} if arch is not None else None

    def test_rollout_compile_error_falls_back_once(self, monkeypatch):
        loop = _a2c()
        loop._run(loop.total_env_steps + 1)
        hits = cache_stats()["inference_plans"]["cache_hits"]
        before = health.get("eager_fallbacks")
        monkeypatch.setenv(faults.ENV_VAR, "compile_error=1@rollout:1")
        faults.reset_injector()
        try:
            batch = loop._collect_rollout()
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset_injector()
        assert health.get("eager_fallbacks") == before + 1
        # The other four act steps and the bootstrap stayed on the runtime.
        assert cache_stats()["inference_plans"]["cache_hits"] == hits + 5
        assert np.all(np.isfinite(batch["returns"]))

    def test_eager_agent_has_no_rollout_runtime(self):
        agent = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=0,
                           use_runtime=False)
        env = make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)
        trainer = A2CTrainer(agent, env, config=A2CConfig(total_steps=10, num_envs=2, seed=0))
        trainer.train()
        assert trainer.updates > 0 and trainer._rollout_runtime is None

    @pytest.mark.parametrize("build", [_a2c, _search], ids=["a2c", "search"])
    def test_float64_loop_matches_agent_runtime_rollouts(self, build):
        """At ``compiled_train_dtype=np.float64`` the loop's own runtime gives
        the bytes of rollouts served by the agent's (float64) runtime."""
        digests = []
        for shared in (False, True):
            loop = build(compiled_train_dtype=np.float64)
            if shared:
                loop._rollout_runtime = loop.agent.runtime
            while loop.updates < 10:
                loop._run(loop.total_env_steps + 1)
            # Weights, BN running statistics, optimiser states, alphas, counters.
            state = loop._checkpoint_state()
            digests.append({key: np.asarray(value).tobytes() for key, value in state.items()})
        assert digests[0] == digests[1]


class TestParameterCasts:
    def test_update_casts_each_parameter_once(self, monkeypatch):
        """The rollout and train plans read one float32 mirror per parameter.

        After a float32 update's optimiser step, the next update's first act
        step re-casts every float64 parameter and its train forward reads the
        same mirrors, so an update casts each parameter exactly once.
        """
        agent = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=0)
        env = make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)
        trainer = A2CTrainer(agent, env, config=A2CConfig(total_steps=10, num_envs=2, seed=0))
        trainer._run(trainer.total_env_steps + 1)  # compiles both plans
        names = {id(param.data): name for name, param in agent.named_parameters()}
        casts = Counter()
        copyto = np.copyto

        def counting_copyto(dst, src, *args, **kwargs):
            if dst.dtype == np.float32 and id(src) in names:
                casts[names[id(src)]] += 1
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", counting_copyto)
        updates = trainer.updates
        trainer._run(trainer.total_env_steps + 1)
        assert trainer.updates == updates + 1
        assert dict(casts) == {name: 1 for name in names.values()}


class TestTeacherTargetsDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_targets_in_train_dtype_teacher_untouched(self, dtype, rng):
        teacher = _teacher()
        distiller = ACDistiller(teacher, mode=DistillationMode.AC, dtype=dtype)
        obs = rng.standard_normal((3, 2, OBS_SIZE, OBS_SIZE)).astype(np.float32)
        probs, values = distiller.teacher_targets(obs)
        assert probs.dtype == dtype and values.dtype == dtype
        assert teacher.runtime_dtype == np.float64
        reference_probs, reference_values = teacher.policy_value(obs)
        np.testing.assert_allclose(probs, reference_probs, atol=1e-5)
        np.testing.assert_allclose(values, reference_values, atol=1e-5)

    def test_eager_teacher_is_cast(self, rng):
        teacher = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16,
                             seed=1, use_runtime=False)
        distiller = ACDistiller(teacher, mode=DistillationMode.AC, dtype=np.float32)
        probs, values = distiller.teacher_targets(rng.standard_normal((2, 2, OBS_SIZE, OBS_SIZE)))
        assert probs.dtype == np.float32 and values.dtype == np.float32

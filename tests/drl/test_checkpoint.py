"""A2C checkpoint/resume and compiled-vs-eager trainer integration."""

import numpy as np
import pytest

from repro.drl import A2CConfig, A2CTrainer, make_agent
from repro.envs import make_vector_env

GAME = "Breakout"
OBS_SIZE = 21


def make_trainer(total_steps=200, seed=0, env_seed=None, **config_overrides):
    agent = make_agent("Vanilla", obs_size=OBS_SIZE, frame_stack=2, feature_dim=16, seed=seed)
    env = make_vector_env(GAME, num_envs=2, obs_size=OBS_SIZE, frame_stack=2,
                          max_episode_steps=60, seed=env_seed if env_seed is not None else seed)
    config = A2CConfig(total_steps=total_steps, num_envs=2, seed=seed, **config_overrides)
    return A2CTrainer(agent, env, config=config)


class TestCheckpointResume:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        # Reference run: train, checkpoint mid-way, swap in a fresh env, continue.
        reference = make_trainer(total_steps=40)
        reference.train(total_steps=40)
        reference.save_checkpoint(path)
        reference.env = make_vector_env(GAME, num_envs=2, obs_size=OBS_SIZE, frame_stack=2,
                                        max_episode_steps=60, seed=7)
        reference.train(total_steps=120)

        # Resumed run: fresh trainer, load the checkpoint, same continuation env.
        resumed = make_trainer(total_steps=40, seed=0, env_seed=7)
        resumed.load_checkpoint(path)
        assert resumed.total_env_steps == 40
        resumed.train(total_steps=120)

        assert resumed.total_env_steps == reference.total_env_steps
        assert resumed.updates == reference.updates
        ref_state = reference.agent.state_dict()
        res_state = resumed.agent.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(res_state[key], ref_state[key], err_msg=key)
        # Optimiser state continued bit-identically too.
        ref_opt = reference.optimizer.state_dict()
        res_opt = resumed.optimizer.state_dict()
        assert ref_opt.keys() == res_opt.keys()
        for key in ref_opt:
            np.testing.assert_array_equal(np.asarray(res_opt[key]), np.asarray(ref_opt[key]),
                                          err_msg=key)

    def test_checkpoint_restores_rng_and_counters(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        trainer = make_trainer(total_steps=40)
        trainer.train(total_steps=40)
        draws = trainer.rng.random(4)
        trainer.save_checkpoint(path)

        other = make_trainer(total_steps=40, seed=3)
        other.load_checkpoint(path)
        # The RNG stream was captured *after* the pre-save draw.
        np.testing.assert_array_equal(other.rng.random(4), trainer.rng.random(4))
        assert not np.array_equal(draws, other.rng.random(4))
        assert other.total_env_steps == trainer.total_env_steps
        assert other.updates == trainer.updates


class TestCompiledTrainerParity:
    @pytest.mark.parametrize("backbone", ["Vanilla", "ResNet-14"])
    def test_compiled_and_eager_training_agree(self, backbone):
        def run(use_compiled):
            agent = make_agent(backbone, obs_size=OBS_SIZE, frame_stack=2, feature_dim=16,
                               base_width=4, seed=0)
            env = make_vector_env(GAME, num_envs=2, obs_size=OBS_SIZE, frame_stack=2,
                                  max_episode_steps=60, seed=0)
            # Pinned float64: the compiled plans then match the eager tape
            # to far below the tolerance (the float32 default does not).
            config = A2CConfig(total_steps=60, num_envs=2, seed=0,
                               use_compiled_train=use_compiled,
                               compiled_train_dtype=np.float64)
            trainer = A2CTrainer(agent, env, config=config)
            trainer.train()
            return trainer

        compiled = run(True)
        eager = run(False)
        assert compiled._train_step is not None and compiled._train_step.num_plans > 0
        assert eager._train_step is None
        c_state = compiled.agent.state_dict()
        e_state = eager.agent.state_dict()
        for key in c_state:
            np.testing.assert_allclose(c_state[key], e_state[key], atol=1e-6, err_msg=key)
        # Both paths logged the same metric series.
        assert compiled.logger.names() == eager.logger.names()

    def test_uncompilable_backbone_falls_back_to_eager(self):
        from repro.drl.agent import ActorCriticAgent
        from repro.nn import Dropout, Flatten, Linear, Module, Sequential

        class DropoutBackbone(Module):
            def __init__(self):
                super().__init__()
                self.feature_dim = 16
                self.body = Sequential(
                    Flatten(),
                    Linear(2 * OBS_SIZE * OBS_SIZE, 16, rng=np.random.default_rng(0)),
                    Dropout(0.2, rng=np.random.default_rng(1)),
                )

            def forward(self, x):
                return self.body(x)

        agent = ActorCriticAgent(DropoutBackbone(), num_actions=6, feature_dim=16,
                                 rng=np.random.default_rng(0))
        env = make_vector_env(GAME, num_envs=2, obs_size=OBS_SIZE, frame_stack=2,
                              max_episode_steps=60, seed=0)
        trainer = A2CTrainer(agent, env, config=A2CConfig(total_steps=40, num_envs=2, seed=0))
        logger = trainer.train()
        # Training completed on the eager tape despite use_compiled_train=True.
        assert trainer.updates > 0
        assert "loss/total" in logger.names()

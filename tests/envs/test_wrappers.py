"""Wrapper tests: frame skip/stack, resize, reward clipping, null-op starts."""

import numpy as np
import pytest

from repro.envs import (
    Action,
    ClipReward,
    EpisodicLife,
    FrameSkip,
    FrameStack,
    NullOpStart,
    ResizeObservation,
    Wrapper,
    make_env,
    make_game,
)
from repro.envs.wrappers import resize_square


class _CountingEnv(Wrapper):
    """Test helper counting how many raw steps the wrapped env received."""

    def __init__(self, env):
        super().__init__(env)
        self.raw_steps = 0

    def step(self, action):
        self.raw_steps += 1
        return self.env.step(action)


class TestFrameSkip:
    def test_skip_multiplies_raw_steps(self):
        inner = _CountingEnv(make_game("Breakout", render_size=32, seed=0))
        env = FrameSkip(inner, skip=3)
        env.reset(seed=0)
        env.step(Action.NOOP)
        assert inner.raw_steps == 3

    def test_rewards_summed(self):
        env = FrameSkip(make_game("Breakout", render_size=32, seed=0), skip=4)
        env.reset(seed=0)
        obs, reward, done, info = env.step(Action.FIRE)
        assert np.isfinite(reward)

    def test_invalid_skip_raises(self):
        with pytest.raises(ValueError):
            FrameSkip(make_game("Breakout", render_size=32), skip=0)

    def test_stops_early_on_done(self):
        game = make_game("Breakout", render_size=32, seed=0, max_episode_steps=2)
        env = FrameSkip(game, skip=10)
        env.reset(seed=0)
        _, _, done, _ = env.step(Action.NOOP)
        assert done


class TestResize:
    def test_block_average_resize(self):
        env = ResizeObservation(make_game("Breakout", render_size=84, seed=0), size=42)
        obs = env.reset(seed=0)
        assert obs.shape == (42, 42)
        assert env.observation_space.shape == (42, 42)

    def test_non_divisible_resize_falls_back_to_sampling(self):
        env = ResizeObservation(make_game("Breakout", render_size=84, seed=0), size=30)
        assert env.reset(seed=0).shape == (30, 30)

    def test_identity_when_same_size(self):
        env = ResizeObservation(make_game("Breakout", render_size=42, seed=0), size=42)
        assert env.reset(seed=0).shape == (42, 42)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("factor", range(2, 13))
    def test_block_average_bitwise_equals_mean(self, dtype, factor):
        """The block sums give ``mean``'s bits for every factor, single frames
        and batches alike (``mean`` itself serves ``factor >= 8``)."""
        rng = np.random.default_rng(factor)
        for lead in ((), (16,), (3, 2)):
            for size in (7, 28):
                scale = rng.choice([1e-3, 1.0, 1e3])
                frames = (rng.random(lead + (size * factor,) * 2) * scale).astype(dtype)
                ref = frames.reshape(lead + (size, factor, size, factor)).mean(axis=(-3, -1))
                got = resize_square(frames, size)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (lead, size)

    def test_sampling_and_identity_paths(self):
        frames = np.arange(2 * 84 * 84, dtype=np.float64).reshape(2, 84, 84)
        assert resize_square(frames, 84) is frames
        indices = (np.arange(30) * 84 / 30).astype(int)
        np.testing.assert_array_equal(resize_square(frames, 30),
                                      frames[:, indices][:, :, indices])


class TestFrameStack:
    def test_stack_shape(self):
        env = FrameStack(make_game("Breakout", render_size=32, seed=0), num_frames=4)
        obs = env.reset(seed=0)
        assert obs.shape == (4, 32, 32)

    def test_reset_repeats_first_frame(self):
        env = FrameStack(make_game("Breakout", render_size=32, seed=0), num_frames=3)
        obs = env.reset(seed=0)
        np.testing.assert_allclose(obs[0], obs[2])

    def test_step_shifts_window(self):
        env = FrameStack(make_game("Breakout", render_size=32, seed=0), num_frames=2)
        first = env.reset(seed=0)
        second, _, _, _ = env.step(Action.RIGHT)
        np.testing.assert_allclose(second[0], first[1])


class TestClipReward:
    def test_sign_clipping(self):
        env = ClipReward(make_game("Atlantis", render_size=32, seed=0))
        env.reset(seed=0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            _, reward, done, info = env.step(env.action_space.sample(rng))
            assert reward in (-1.0, 0.0, 1.0)
            assert "raw_reward" in info
            if done:
                env.reset()


class TestNullOpStart:
    def test_null_ops_advance_episode(self):
        raw = make_game("Breakout", render_size=32, seed=0)
        env = NullOpStart(raw, max_null_ops=10, rng=np.random.default_rng(3))
        env.reset(seed=0)
        assert raw.elapsed_steps <= 10

    def test_zero_max_is_noop(self):
        raw = make_game("Breakout", render_size=32, seed=0)
        env = NullOpStart(raw, max_null_ops=0)
        env.reset(seed=0)
        assert raw.elapsed_steps == 0


class TestEpisodicLife:
    def test_life_loss_reported_as_done(self):
        raw = make_game("SpaceInvaders", render_size=32, seed=0, lives=3, bomb_prob=0.9)
        env = EpisodicLife(raw)
        env.reset(seed=0)
        rng = np.random.default_rng(0)
        saw_life_end = False
        for _ in range(600):
            _, _, done, info = env.step(env.action_space.sample(rng))
            if done:
                saw_life_end = True
                if info.get("life_lost") and raw.lives > 0:
                    # Underlying game not over: the wrapper must resume without full reset.
                    lives_before = raw.lives
                    env.reset()
                    assert raw.lives == lives_before
                    break
                env.reset()
        assert saw_life_end


class TestMakeEnv:
    def test_full_pipeline_shapes(self):
        env = make_env("Alien", obs_size=42, frame_stack=3, frame_skip=2, seed=0)
        obs = env.reset(seed=0)
        assert obs.shape == (3, 42, 42)

    def test_unwrapped_reaches_raw_game(self):
        env = make_env("Alien", obs_size=42, frame_stack=2, frame_skip=2, seed=0)
        assert env.unwrapped.game_id == "Alien"

    def test_clip_and_nullop_options(self):
        env = make_env("Breakout", obs_size=42, clip_rewards=True, null_op_max=5, seed=0)
        obs = env.reset(seed=0)
        assert obs.shape[0] == 2

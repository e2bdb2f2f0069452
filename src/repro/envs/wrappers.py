"""Observation / reward wrappers reproducing the standard Atari pipeline.

The paper follows the DQN evaluation protocol: frame skipping, 84x84
grey-scale observations, stacked frames, and evaluation episodes started with
a random number of null-ops.  Each of those preprocessing steps is a wrapper
here so the training and evaluation code composes them explicitly.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .base import Action, Box, Env

__all__ = ["Wrapper", "FrameSkip", "ResizeObservation", "FrameStack", "ClipReward", "NullOpStart", "EpisodicLife"]


class Wrapper(Env):
    """Base wrapper delegating everything to the wrapped environment."""

    def __init__(self, env):
        self.env = env
        self.action_space = env.action_space
        self.observation_space = env.observation_space

    def reset(self, seed=None):
        return self.env.reset(seed=seed)

    def step(self, action):
        return self.env.step(action)

    def close(self):
        self.env.close()

    def seed(self, seed):
        return self.env.seed(seed)

    @property
    def unwrapped(self):
        """The innermost (raw) environment."""
        env = self.env
        while isinstance(env, Wrapper):
            env = env.env
        return env

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, self.env)


class FrameSkip(Wrapper):
    """Repeat each action ``skip`` times, summing rewards.

    The returned observation is the elementwise maximum of the last two raw
    frames, mirroring the ALE convention that avoids sprite flickering.
    """

    def __init__(self, env, skip=4):
        super().__init__(env)
        if skip < 1:
            raise ValueError("skip must be >= 1")
        self.skip = int(skip)

    def step(self, action):
        total_reward = 0.0
        done = False
        info = {}
        frames = deque(maxlen=2)
        obs = None
        for _ in range(self.skip):
            obs, reward, done, info = self.env.step(action)
            frames.append(obs)
            total_reward += reward
            if done:
                break
        if len(frames) == 2:
            obs = np.maximum(frames[0], frames[1])
        return obs, total_reward, done, info


def resize_square(frames, size):
    """Block-average the trailing square axes of ``frames`` down to ``size``
    (nearest-neighbour sampling when ``size`` does not divide them).

    Float blocks of ``f < 8`` are summed as ``mean`` does (each block row left
    to right, then the rows, then one division), with the same bits and
    several times faster; NumPy sums rows of 8 or more pairwise.
    """
    source = frames.shape[-1]
    if source == size:
        return frames
    if source % size:
        indices = (np.arange(size) * source / size).astype(int)
        return frames[..., indices[:, None], indices[None, :]]
    f = source // size
    blocks = frames.reshape(frames.shape[:-2] + (size, f, size, f))
    if f >= 8 or frames.dtype.kind != "f":
        return blocks.mean(axis=(-3, -1))
    rows = [blocks[..., i, :, 0].copy() for i in range(f)]
    for i, row in enumerate(rows):
        for j in range(1, f):
            row += blocks[..., i, :, j]
    for row in rows[1:]:
        rows[0] += row
    rows[0] /= f * f
    return rows[0]


class ResizeObservation(Wrapper):
    """Downsample the square observation to ``size`` x ``size`` by block averaging."""

    def __init__(self, env, size=42):
        super().__init__(env)
        self.size = int(size)
        self.observation_space = Box(0.0, 1.0, (self.size, self.size))

    def _resize(self, obs):
        return resize_square(obs, self.size)

    def reset(self, seed=None):
        return self._resize(self.env.reset(seed=seed))

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        return self._resize(obs), reward, done, info


class FrameStack(Wrapper):
    """Stack the last ``num_frames`` observations along a leading channel axis."""

    def __init__(self, env, num_frames=4):
        super().__init__(env)
        self.num_frames = int(num_frames)
        obs_shape = env.observation_space.shape
        self.observation_space = Box(0.0, 1.0, (self.num_frames,) + tuple(obs_shape))
        self._frames = deque(maxlen=self.num_frames)

    def _stacked(self):
        return np.stack(list(self._frames), axis=0)

    def reset(self, seed=None):
        obs = self.env.reset(seed=seed)
        self._frames.clear()
        for _ in range(self.num_frames):
            self._frames.append(obs)
        return self._stacked()

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        self._frames.append(obs)
        return self._stacked(), reward, done, info


class ClipReward(Wrapper):
    """Clip rewards to their sign, the DQN trick for cross-game LR stability."""

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        info = dict(info)
        info["raw_reward"] = reward
        return obs, float(np.sign(reward)), done, info


class NullOpStart(Wrapper):
    """Start each episode with a random number of NOOP actions.

    This is the paper's evaluation protocol ("null-op starts" following [1]):
    it decorrelates evaluation episodes without changing the policy.
    """

    def __init__(self, env, max_null_ops=30, rng=None):
        super().__init__(env)
        self.max_null_ops = int(max_null_ops)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def reset(self, seed=None):
        obs = self.env.reset(seed=seed)
        if self.max_null_ops <= 0:
            return obs
        num_null = int(self._rng.integers(0, self.max_null_ops + 1))
        for _ in range(num_null):
            obs, _, done, _ = self.env.step(Action.NOOP)
            if done:
                obs = self.env.reset()
        return obs


class EpisodicLife(Wrapper):
    """Treat every life lost as an episode end for the learner.

    The underlying game keeps running, so evaluation (which bypasses this
    wrapper) still measures full-episode scores; training sees denser episode
    boundaries, a standard DQN-era trick.
    """

    def __init__(self, env):
        super().__init__(env)
        self._true_done = True

    def reset(self, seed=None):
        if self._true_done:
            obs = self.env.reset(seed=seed)
        else:
            obs, _, done, _ = self.env.step(Action.NOOP)
            if done:
                obs = self.env.reset(seed=seed)
        self._true_done = False
        return obs

    def step(self, action):
        obs, reward, done, info = self.env.step(action)
        self._true_done = done
        if info.get("life_lost", False):
            done = True
        return obs, reward, done, info

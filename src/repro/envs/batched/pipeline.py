"""The ``batched`` vector-env backend: one SoA engine + array-native wrappers.

:class:`BatchedVectorEnv` is a drop-in replacement for
``VectorEnv([make_env(...)] * N)``: same interface (``reset`` / ``step`` /
``step_async`` / ``step_wait`` / auto-reset / episode stats), same seed
semantics (constructor ``seed + i`` streams, ``reset(seed=N)`` spawning
``SeedSequence`` children, auto-resets continuing each lane's stream), and —
by construction — bit-identical trajectories.  The difference is that the
standard Atari wrapper stack runs as whole-batch array transforms:

* **frame skip** — masked sub-stepping of the engine; lanes that finish
  mid-skip stop stepping (and stop recording frames), exactly like the
  serial wrapper's early ``break``;
* **max of the last two raw frames** — one batched ``np.maximum``;
* **resize** — one batched block-average (or strided gather);
* **frame stack** — one rolling ``(num_envs, frames, H, W)`` buffer;
* **reward clipping** — one batched ``np.sign``.

No per-env Python loop remains on the hot path; the only lane loops left
are the engines' scalar RNG draws and the per-step info dicts (built from
bulk ``tolist()`` conversions, same fields as the serial backends).
"""

from __future__ import annotations

import numpy as np

from ..base import Box, Env
from ..wrappers import resize_square
from .core import BatchedUnsupportedError
from .duel import BatchedDuelEngine
from .maze import BatchedMazeEngine
from .navigator import BatchedNavigatorEngine
from .paddle import BatchedPaddleEngine
from .shooter import BatchedShooterEngine

__all__ = ["BatchedVectorEnv", "BATCHED_ENGINES", "batched_engine_for"]


#: Serial engine class name -> batched engine class (all five families).
BATCHED_ENGINES = {
    "PaddleGame": BatchedPaddleEngine,
    "ShooterGame": BatchedShooterEngine,
    "MazeGame": BatchedMazeEngine,
    "NavigatorGame": BatchedNavigatorEngine,
    "DuelGame": BatchedDuelEngine,
}


def batched_engine_for(engine_cls):
    """The batched engine class for a serial ``ArcadeGame`` subclass.

    Resolved by class name so the registry keeps importing only the serial
    classes; raises :class:`BatchedUnsupportedError` for engines without a
    batched port (make_vector_env then falls back to the serial backend).
    """
    batched = BATCHED_ENGINES.get(engine_cls.__name__)
    if batched is None:
        raise BatchedUnsupportedError(
            "no batched engine for {}".format(engine_cls.__name__)
        )
    return batched


class BatchedVectorEnv(Env):
    """Vectorised environment running one batched engine for all lanes.

    Parameters mirror ``make_vector_env`` / ``make_env``: the wrapper options
    (``obs_size``, ``frame_stack``, ``frame_skip``, ``clip_rewards``,
    ``render_size``) plus registry-parameter ``overrides``.  ``randomize``
    maps engine parameter names to ``(low, high)`` ranges re-drawn per lane
    on every reset.  ``null_op_max`` is evaluation-only preprocessing and is
    not supported batched (auto-selection falls back to the serial backend).
    """

    #: Registry calling convention: built from the game name, not env_fns
    #: (see ``repro.envs.registry.VECTOR_BACKENDS``).
    constructs_from_game_name = True

    def __init__(
        self,
        name,
        num_envs=4,
        obs_size=42,
        frame_stack=2,
        frame_skip=2,
        clip_rewards=False,
        null_op_max=0,
        render_size=84,
        seed=0,
        randomize=None,
        **overrides,
    ):
        if null_op_max and null_op_max > 0:
            raise BatchedUnsupportedError(
                "null-op starts are not supported by the batched backend"
            )
        from ..registry import game_info

        entry = game_info(name)
        engine_cls = batched_engine_for(entry["engine"])
        params = dict(entry["params"])
        params.update(overrides)
        self.engine = engine_cls(
            game_id=name,
            num_envs=num_envs,
            render_size=render_size,
            seed=seed,
            randomize=randomize,
            **params,
        )
        self.num_envs = self.engine.num_envs
        self.frame_skip = max(1, int(frame_skip) if frame_skip else 1)
        self.frame_stack = max(1, int(frame_stack) if frame_stack else 1)
        self.clip_rewards = bool(clip_rewards)
        self.obs_size = int(obs_size) if obs_size else render_size
        self.render_size = self.engine.render_size
        self.action_space = self.engine.action_space
        if self.frame_stack > 1:
            obs_shape = (self.frame_stack, self.obs_size, self.obs_size)
        else:
            obs_shape = (self.obs_size, self.obs_size)
        self.observation_space = Box(0.0, 1.0, obs_shape)

        n = self.num_envs
        raw = (n, self.render_size, self.render_size)
        self._prev_frame = np.zeros(raw)
        self._last_frame = np.zeros(raw)
        self._stack = np.zeros((n, self.frame_stack, self.obs_size, self.obs_size))
        self._episode_returns = np.zeros(n)
        self._episode_lengths = np.zeros(n, dtype=np.int64)
        self._pending_actions = None

    # ------------------------------------------------------------------ #
    # Reset
    # ------------------------------------------------------------------ #
    def reset(self, seed=None):
        if self._pending_actions is not None:
            raise RuntimeError("reset called with a step_async in flight; call step_wait first")
        if seed is not None:
            from ..vector_env import spawn_env_generators

            self.engine.seed_all(spawn_env_generators(seed, self.num_envs))
        raw = self.engine.reset()
        small = self._resize(raw)
        self._stack[:] = small[:, None]
        self._episode_returns[:] = 0.0
        self._episode_lengths[:] = 0
        return self._output_obs()

    # ------------------------------------------------------------------ #
    # Step
    # ------------------------------------------------------------------ #
    def step(self, actions):
        if self._pending_actions is not None:
            raise RuntimeError("step called with a step_async in flight; call step_wait first")
        actions = np.asarray(actions)
        if actions.shape[0] != self.num_envs:
            raise ValueError("expected {} actions, got {}".format(self.num_envs, actions.shape[0]))

        engine = self.engine
        n = self.num_envs
        active = np.ones(n, dtype=bool)
        total_reward = np.zeros(n)
        frames_seen = np.zeros(n, dtype=np.int64)

        # Frame-skip sub-steps: lanes that finish stop stepping (and stop
        # recording frames), like the serial wrapper's early break.
        for _ in range(self.frame_skip):
            reward, _ = engine.step(actions, active=active)
            total_reward += reward
            raw = engine.observe()
            if active.all():
                np.copyto(self._prev_frame, self._last_frame)
                np.copyto(self._last_frame, raw)
            else:
                self._prev_frame[active] = self._last_frame[active]
                self._last_frame[active] = raw[active]
            frames_seen[active] += 1
            active &= ~engine.done
            if not active.any():
                break

        # Max of the last two raw frames (lanes with a single sub-step —
        # frame_skip 1 or an immediate done — return the frame itself).
        two = (frames_seen >= 2)[:, None, None]
        raw_obs = np.where(two, np.maximum(self._prev_frame, self._last_frame), self._last_frame)

        dones = engine.done.copy()
        if self.clip_rewards:
            raw_reward = total_reward
            reward_out = np.sign(total_reward)
        else:
            raw_reward = None
            reward_out = total_reward

        self._episode_returns += reward_out
        self._episode_lengths += 1
        # Per-env info dicts with the same fields the serial backends report
        # every step (bulk tolist() keeps the conversions off the lane loop).
        infos = [
            {"lives": lives, "score": score, "elapsed_steps": elapsed, "life_lost": lost}
            for lives, score, elapsed, lost in zip(
                engine.lives.tolist(), engine.score.tolist(),
                engine.elapsed_steps.tolist(), engine.life_lost.tolist(),
            )
        ]
        if raw_reward is not None:
            for info, value in zip(infos, raw_reward.tolist()):
                info["raw_reward"] = value
        done_idx = np.flatnonzero(dones)
        if done_idx.size:
            for i in done_idx:
                infos[i]["episode_return"] = float(self._episode_returns[i])
                infos[i]["episode_length"] = int(self._episode_lengths[i])
            self._episode_returns[done_idx] = 0.0
            self._episode_lengths[done_idx] = 0
            # Auto-reset: each lane continues its own generator stream.  The
            # lane-masked render only redraws the reset lanes instead of
            # re-rendering the whole batch for a handful of fresh episodes.
            engine.reset_envs(dones)
            raw_obs[done_idx] = engine.observe(dones)[done_idx]

        small = self._resize(raw_obs)
        if self.frame_stack > 1:
            self._stack[:, :-1] = self._stack[:, 1:]
            self._stack[:, -1] = small
            if done_idx.size:
                self._stack[done_idx] = small[done_idx, None]
        else:
            self._stack[:, 0] = small
        return self._output_obs(), reward_out, dones, infos

    # ------------------------------------------------------------------ #
    # Async-compatible interface (trivial for the in-process variant)
    # ------------------------------------------------------------------ #
    def step_async(self, actions):
        if self._pending_actions is not None:
            raise RuntimeError("step_async called twice without step_wait")
        self._pending_actions = np.asarray(actions)

    def step_wait(self):
        if self._pending_actions is None:
            raise RuntimeError("step_wait called without step_async")
        actions = self._pending_actions
        self._pending_actions = None
        return self.step(actions)

    def close(self):
        """Nothing to release (in-memory arrays only); safe to call twice."""

    # ------------------------------------------------------------------ #
    # Batched observation transforms
    # ------------------------------------------------------------------ #
    def _resize(self, raw):
        """Block-average (or strided-gather) resize of the whole batch."""
        return resize_square(raw, self.obs_size)

    def _output_obs(self):
        if self.frame_stack > 1:
            return self._stack.copy()
        return self._stack[:, 0].copy()

    def __repr__(self):
        return "BatchedVectorEnv({!r}, num_envs={}, obs={})".format(
            self.engine.game_id, self.num_envs, self.observation_space.shape
        )

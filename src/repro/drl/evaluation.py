"""Evaluation protocol: average test score over episodes with null-op starts.

The paper reports test scores "averaged on 30 episodes with null-op starts
following [1]".  :func:`evaluate_agent` reproduces that protocol against the
synthetic game suite; the experiment harness shrinks the episode count when
running under the pytest-benchmark time budget.
"""

from __future__ import annotations

import numpy as np

from ..envs import make_env
from ..nn import no_grad

__all__ = ["evaluate_agent", "Evaluator"]


def evaluate_agent(agent, game, episodes=30, null_op_max=30, seed=0, env_kwargs=None, greedy=False,
                   max_steps_per_episode=None, use_runtime=None, backbone_kwargs=None):
    """Average episode score of ``agent`` on ``game``.

    Evaluation is pure inference, so the per-step action queries run on the
    tape-free :mod:`repro.runtime` engine by default (via ``agent.act``).

    Parameters
    ----------
    agent:
        An :class:`~repro.drl.agent.ActorCriticAgent`.
    game:
        Registered game name.
    episodes:
        Number of evaluation episodes (paper: 30).
    null_op_max:
        Maximum number of random NOOP actions at episode start (paper: 30).
    env_kwargs:
        Extra arguments forwarded to :func:`repro.envs.make_env`.
    greedy:
        Whether to act greedily instead of sampling from the policy.
    max_steps_per_episode:
        Optional hard cap overriding the game's own episode limit.
    use_runtime:
        Force the runtime fast path on/off for this evaluation; ``None``
        keeps the agent's own ``use_runtime`` setting (benchmarks use this to
        time the eager baseline).
    backbone_kwargs:
        Extra keyword arguments forwarded to ``agent.act`` (e.g.
        ``op_indices`` to score a fixed supernet path).

    Returns
    -------
    mean_score:
        Mean un-clipped episode score.
    """
    env_kwargs = dict(env_kwargs or {})
    if max_steps_per_episode is not None:
        env_kwargs["max_episode_steps"] = max_steps_per_episode
    backbone_kwargs = dict(backbone_kwargs or {})
    env = make_env(game, null_op_max=null_op_max, seed=seed, **env_kwargs)
    rng = np.random.default_rng(seed)
    scores = []
    was_training = agent.training
    previous_runtime = agent.use_runtime
    if use_runtime is not None:
        agent.use_runtime = bool(use_runtime)
    agent.eval()
    try:
        for episode in range(episodes):
            obs = env.reset(seed=seed + 1000 + episode)
            done = False
            total = 0.0
            while not done:
                with no_grad():
                    actions, _ = agent.act(obs[None, ...], rng, greedy=greedy, **backbone_kwargs)
                obs, reward, done, _ = env.step(int(actions[0]))
                total += reward
            scores.append(total)
    finally:
        agent.use_runtime = previous_runtime
        if was_training:
            agent.train()
    return float(np.mean(scores))


class Evaluator:
    """A reusable evaluation callable bound to one game and protocol settings.

    Instances are passed to :class:`~repro.drl.a2c.A2CTrainer` as the
    ``evaluator`` hook and to the search loops for the Fig. 1 / Fig. 2 score
    curves.
    """

    def __init__(self, game, episodes=5, null_op_max=30, seed=0, env_kwargs=None, greedy=False):
        self.game = game
        self.episodes = int(episodes)
        self.null_op_max = int(null_op_max)
        self.seed = int(seed)
        self.env_kwargs = dict(env_kwargs or {})
        self.greedy = bool(greedy)

    def __call__(self, agent):
        return evaluate_agent(
            agent,
            self.game,
            episodes=self.episodes,
            null_op_max=self.null_op_max,
            seed=self.seed,
            env_kwargs=self.env_kwargs,
            greedy=self.greedy,
        )

    def __repr__(self):
        return "Evaluator(game={!r}, episodes={})".format(self.game, self.episodes)

"""Teacher-agent construction and training for AC-distillation.

The paper pretrains a ResNet-20 agent per task and uses it as the teacher for
both the distillation ablation (Table II) and the agent search (Fig. 2,
Sec. IV-B).  :func:`train_teacher` reproduces that step at a configurable
(scaled-down) budget; :func:`make_agent` is the shared agent factory used by
every experiment module.
"""

from __future__ import annotations

import numpy as np

from ..envs import make_vector_env
from ..networks import build_backbone
from .a2c import A2CConfig, A2CTrainer
from .agent import ActorCriticAgent

__all__ = ["make_agent", "train_teacher"]


def make_agent(backbone_name, num_actions=6, obs_size=42, frame_stack=2, feature_dim=128,
               base_width=8, seed=0, use_runtime=True, runtime_dtype=None):
    """Build an :class:`ActorCriticAgent` with a named backbone.

    Parameters
    ----------
    backbone_name:
        ``"Vanilla"``, ``"ResNet-14/20/38/74"`` (Table I baselines).
    obs_size / frame_stack:
        Observation geometry; must match the environment wrappers.
    feature_dim:
        Backbone output feature size (256 in the paper; smaller defaults keep
        the NumPy substrate fast).
    base_width:
        First-stage channel width for the ResNet family.
    use_runtime / runtime_dtype:
        No-grad inference configuration (see
        :class:`~repro.runtime.RuntimePolicy`).  A training loop infers at
        its own train dtype instead: the rollouts of the agent it trains and
        the targets of its teacher.
    """
    rng = np.random.default_rng(seed)
    kwargs = {"in_channels": frame_stack, "input_size": obs_size, "feature_dim": feature_dim, "rng": rng}
    if backbone_name.lower().startswith("resnet"):
        kwargs["base_width"] = base_width
    backbone = build_backbone(backbone_name, **kwargs)
    return ActorCriticAgent(
        backbone,
        num_actions=num_actions,
        feature_dim=feature_dim,
        rng=rng,
        use_runtime=use_runtime,
        runtime_dtype=runtime_dtype,
    )


def train_teacher(
    game,
    backbone_name="ResNet-20",
    total_steps=2000,
    num_envs=4,
    obs_size=42,
    frame_stack=2,
    feature_dim=128,
    base_width=8,
    seed=0,
    use_compiled_train=True,
    config_overrides=None,
):
    """Train the teacher agent the AC-distillation mechanism distils from.

    The gradient steps run on the compiled training runtime by default
    (``use_compiled_train``); the eager tape remains the per-call fallback.

    Returns
    -------
    teacher:
        The trained (and eval-mode) teacher agent.
    trainer:
        The finished :class:`~repro.drl.a2c.A2CTrainer` (for inspecting logs).
    """
    agent = make_agent(
        backbone_name,
        obs_size=obs_size,
        frame_stack=frame_stack,
        feature_dim=feature_dim,
        base_width=base_width,
        seed=seed,
    )
    env = make_vector_env(game, num_envs=num_envs, obs_size=obs_size, frame_stack=frame_stack, seed=seed)
    config = A2CConfig(
        total_steps=total_steps,
        num_envs=num_envs,
        seed=seed,
        use_compiled_train=use_compiled_train,
    )
    if config_overrides:
        for key, value in config_overrides.items():
            setattr(config, key, value)
    trainer = A2CTrainer(agent, env, config=config)
    trainer.train()
    agent.eval()
    return agent, trainer

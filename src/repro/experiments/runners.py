"""Shared experiment runners used by the table / figure harnesses."""

from __future__ import annotations

from ..drl import A2CConfig, A2CTrainer, DistillationMode, Evaluator, make_agent, train_teacher
from ..envs import make_vector_env

__all__ = ["train_backbone_agent", "build_evaluator", "train_with_distillation"]


def build_evaluator(game, profile, greedy=False):
    """Evaluator bound to the profile's evaluation protocol."""
    return Evaluator(
        game,
        episodes=profile.eval_episodes,
        null_op_max=30,
        seed=profile.seed,
        env_kwargs={
            "obs_size": profile.obs_size,
            "frame_stack": profile.frame_stack,
            "max_episode_steps": profile.max_episode_steps,
        },
        greedy=greedy,
    )


def train_backbone_agent(game, backbone, profile, distillation_mode=DistillationMode.NONE,
                         teacher=None, track_curve=False, total_steps=None, seed=None,
                         randomize=None):
    """Train one agent on one game at the profile's scale.

    Parameters
    ----------
    game, backbone:
        Registered game name and backbone name.
    profile:
        An :class:`~repro.experiments.profiles.ExperimentProfile`.
    distillation_mode:
        One of the Table II strategies; a teacher is trained on demand when a
        distillation mode is requested and no teacher is supplied.
    track_curve:
        Record periodic evaluation scores (for the Fig. 1 curves).
    total_steps:
        Override the profile's training budget.
    randomize:
        Optional per-env scenario randomization for the *training* vector
        env: a mapping of engine parameter names to ``(low, high)`` ranges,
        re-drawn per lane on every reset (forwarded to
        :func:`repro.envs.make_vector_env`).  Evaluation stays on the
        nominal parameters, so the returned score measures generalisation
        from the randomized training distribution.

    Returns
    -------
    result:
        Dict with ``agent``, ``trainer``, ``score`` (final evaluation), and
        ``curve`` (list of ``(step, score)``; empty unless ``track_curve``).
    """
    seed = profile.seed if seed is None else seed
    total_steps = total_steps if total_steps is not None else profile.train_steps
    agent = make_agent(
        backbone,
        obs_size=profile.obs_size,
        frame_stack=profile.frame_stack,
        feature_dim=profile.feature_dim,
        base_width=profile.base_width,
        seed=seed,
    )
    env = make_vector_env(
        game,
        num_envs=profile.num_envs,
        obs_size=profile.obs_size,
        frame_stack=profile.frame_stack,
        max_episode_steps=profile.max_episode_steps,
        seed=seed,
        randomize=randomize,
    )
    if teacher is None and distillation_mode != DistillationMode.NONE:
        teacher, _ = train_teacher(
            game,
            backbone_name="ResNet-20",
            total_steps=profile.teacher_steps,
            num_envs=profile.num_envs,
            obs_size=profile.obs_size,
            frame_stack=profile.frame_stack,
            feature_dim=profile.feature_dim,
            base_width=profile.base_width,
            seed=seed,
        )

    eval_interval = 0
    evaluator = None
    if track_curve:
        eval_interval = max(1, total_steps // max(profile.eval_points, 1))
        evaluator = build_evaluator(game, profile)

    config = A2CConfig(
        total_steps=total_steps,
        num_envs=profile.num_envs,
        distillation_mode=distillation_mode,
        eval_interval=eval_interval,
        eval_episodes=profile.eval_episodes,
        seed=seed,
    )
    trainer = A2CTrainer(agent, env, config=config, teacher=teacher, evaluator=evaluator)
    trainer.train()

    final_evaluator = build_evaluator(game, profile)
    score = float(final_evaluator(agent))
    curve = []
    if track_curve:
        steps, values = trainer.logger.series("eval_score")
        curve = list(zip(steps, values))
        curve.append((trainer.total_env_steps, score))
    return {"agent": agent, "trainer": trainer, "score": score, "curve": curve, "teacher": teacher}


def train_with_distillation(game, backbone, profile, mode, teacher=None, seed=None):
    """Convenience wrapper returning just the evaluation score for Table II cells."""
    result = train_backbone_agent(
        game, backbone, profile, distillation_mode=mode, teacher=teacher, seed=seed
    )
    return result["score"], result["teacher"]

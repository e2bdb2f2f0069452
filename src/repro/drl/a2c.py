"""Synchronous advantage actor-critic (A2C) trainer.

This is the DRL training loop the paper builds on (Sec. III and Algorithm 1's
inner loop): collect a rollout of length ``L`` from parallel environments,
compute td-errors, and update the actor and critic with the combined task
loss of Eq. 12 (policy gradient + value + entropy + optional AC-distillation),
using RMSProp with the paper's linear learning-rate decay schedule.  The loop
itself (rollouts, compiled-or-eager dispatch, guards, checkpoints, logging)
is the shared :class:`~repro.drl.loop.TrainLoop`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .loop import TrainLoop, TrainLoopConfig

__all__ = ["A2CConfig", "A2CTrainer"]


@dataclass
class A2CConfig(TrainLoopConfig):
    """Hyper-parameters of the A2C trainer.

    Adds the RMSProp learning-rate schedule (1e-3, held, then decayed
    linearly) to the shared :class:`~repro.drl.loop.TrainLoopConfig`.
    """

    learning_rate: float = 1e-3
    final_learning_rate: float = 1e-4
    lr_hold_fraction: float = 1.0 / 3.0


class A2CTrainer(TrainLoop):
    """Trains an :class:`~repro.drl.agent.ActorCriticAgent` on a vector env.

    Parameters
    ----------
    agent:
        The student actor-critic agent to optimise.
    vector_env:
        A :class:`~repro.envs.vector_env.VectorEnv` providing rollouts.
    config:
        An :class:`A2CConfig`.
    teacher:
        Optional frozen teacher agent for AC-distillation (Sec. IV-B).
    evaluator:
        Optional callable ``evaluator(agent) -> float`` used every
        ``config.eval_interval`` environment steps to record test scores.
    """

    COUNTER_PREFIX = "trainer"

    def __init__(self, agent, vector_env, config=None, teacher=None, evaluator=None):
        config = config if config is not None else A2CConfig()
        super().__init__(agent, vector_env, config, config.learning_rate, teacher, evaluator)
        self.checkpoint_parts = {"agent": self.agent, "optim": self.optimizer}

    # ------------------------------------------------------------------ #
    # Learning-rate schedule (paper: hold then linear decay)
    # ------------------------------------------------------------------ #
    def _current_lr(self):
        cfg = self.config
        hold = cfg.lr_hold_fraction * cfg.total_steps
        if self.total_env_steps <= hold or cfg.total_steps <= hold:
            return cfg.learning_rate
        fraction = min(1.0, (self.total_env_steps - hold) / (cfg.total_steps - hold))
        return cfg.learning_rate + fraction * (cfg.final_learning_rate - cfg.learning_rate)

    # ------------------------------------------------------------------ #
    # One update
    # ------------------------------------------------------------------ #
    def _update(self):
        batch = self._collect_rollout()
        self.optimizer.set_lr(self._current_lr())
        return self._compiled_or_eager(batch)

    def _compiled_update(self, batch):
        result = self._compiled_step(batch)
        extras = {"grad_norm": result.grad_norm, "lr": self.optimizer.lr}
        return result.total, result.components, extras, result.skipped

    def _eager_update(self, batch):
        total, components = self._task_loss(batch)
        skipped, grad_norm = self._eager_step(total)
        extras = {"grad_norm": grad_norm, "lr": self.optimizer.lr}
        return total.item(), components, extras, skipped

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def train(self, total_steps=None):
        """Run training for ``total_steps`` environment steps.

        Returns the :class:`~repro.utils.logging.MetricLogger` holding episode
        returns, loss curves, and any periodic evaluation scores.
        """
        self._run(total_steps if total_steps is not None else self.config.total_steps)
        return self.logger

"""Synchronous advantage actor-critic (A2C) trainer.

This is the DRL training loop the paper builds on (Sec. III and Algorithm 1's
inner loop): collect a rollout of length ``L`` from parallel environments,
compute td-errors, and update the actor and critic with the combined task
loss of Eq. 12 (policy gradient + value + entropy + optional AC-distillation),
using RMSProp with the paper's linear learning-rate decay schedule.

The gradient update runs on the compiled training runtime
(:class:`~repro.runtime.train.CompiledTrainStep`) by default: one reverse-mode
plan per batch signature, fused RMSProp + grad clipping, no autograd tape.
The eager tape remains the reference path, selected per call whenever the
runtime cannot compile the step (``use_compiled_train=False`` forces it).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..nn import RMSProp, clip_grad_norm
from ..nn.serialization import load_state_dict, save_state_dict, validate_state
from ..reliability import health
from ..reliability.faults import get_injector
from ..telemetry.metrics import Reporter
from ..utils.logging import MetricLogger
from .distillation import ACDistiller, DistillationMode
from .losses import TaskLossWeights, combine_task_loss, entropy_loss, policy_gradient_loss, value_loss
from .rollout import RolloutCollector

__all__ = ["A2CConfig", "A2CTrainer"]


@dataclass
class A2CConfig:
    """Hyper-parameters of the A2C trainer.

    Defaults follow Sec. V-A of the paper (discount 0.99, rollout length 5,
    RMSProp at 1e-3, entropy weight 1e-2, distillation weights 1e-1 / 1e-3),
    scaled-down step budgets are supplied by the experiment harness.
    """

    gamma: float = 0.99
    rollout_length: int = 5
    num_envs: int = 4
    learning_rate: float = 1e-3
    final_learning_rate: float = 1e-4
    lr_hold_fraction: float = 1.0 / 3.0
    total_steps: int = 10000
    max_grad_norm: float = 0.5
    entropy_beta: float = 1e-2
    actor_distill_beta: float = 1e-1
    critic_distill_beta: float = 1e-3
    distillation_mode: str = DistillationMode.NONE
    eval_interval: int = 0
    eval_episodes: int = 5
    seed: int = 0
    #: Route updates through the compiled training runtime (eager fallback
    #: stays available per call); ``compiled_train_dtype=None`` means float64.
    use_compiled_train: bool = True
    compiled_train_dtype: object = None
    #: Crash safety: write a full checkpoint to ``autosave_path`` every
    #: ``autosave_interval`` updates (0 disables).  The write is atomic, so a
    #: SIGKILL mid-save leaves the previous autosave intact and resuming from
    #: it reproduces the uninterrupted run bit-identically.
    autosave_interval: int = 0
    autosave_path: object = None
    #: After this many *consecutive* non-finite updates (guard trips), roll
    #: the trainer back to the last autosave (when one exists; 0 disables).
    guard_rollback_after: int = 3
    #: Sample ``repro.telemetry.snapshot()`` every this many updates into the
    #: trainer's :class:`~repro.telemetry.metrics.Reporter` (0 disables);
    #: ``telemetry_path`` appends the snapshots to a JSONL file.
    telemetry_interval: int = 0
    telemetry_path: object = None

    def loss_weights(self):
        """Bundle the beta coefficients into a :class:`TaskLossWeights`."""
        return TaskLossWeights(
            entropy=self.entropy_beta,
            actor_distill=self.actor_distill_beta,
            critic_distill=self.critic_distill_beta,
        )


class A2CTrainer:
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

    def __init__(self, agent, vector_env, config=None, teacher=None, evaluator=None):
        self.agent = agent
        self.env = vector_env
        self.config = config if config is not None else A2CConfig()
        self.distiller = ACDistiller(teacher, mode=self.config.distillation_mode) if teacher is not None \
            else ACDistiller(None, mode=DistillationMode.NONE)
        self.evaluator = evaluator
        self.optimizer = RMSProp(self.agent.parameters(), lr=self.config.learning_rate)
        self.logger = MetricLogger()
        self.reporter = Reporter(
            interval=self.config.telemetry_interval, path=self.config.telemetry_path
        )
        self.rng = np.random.default_rng(self.config.seed)
        self.total_env_steps = 0
        self.updates = 0
        self._recent_returns = []
        self._collector = None
        self._train_step = None
        self._guard_streak = 0

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
    # Rollout collection
    # ------------------------------------------------------------------ #
    def collector(self):
        """The trainer's :class:`RolloutCollector`, rebound if the env was swapped."""
        self._collector = RolloutCollector.for_env(
            self._collector, self.env, self.config.rollout_length
        )
        return self._collector

    def _collect_rollout(self):
        """Collect one rollout; returns the filled buffer and bootstrap values."""
        collector = self.collector()

        def on_step(infos):
            self.total_env_steps += self.env.num_envs
            for info in infos:
                if "episode_return" in info:
                    self._recent_returns.append(info["episode_return"])
                    self.logger.log("episode_return", info["episode_return"], step=self.total_env_steps)

        buffer = collector.collect(
            lambda observations: self.agent.act(observations, self.rng),
            seed=self.config.seed,
            on_step=on_step,
        )
        # Bootstrap values are pure inference: use the tape-free runtime path.
        _, bootstrap = self.agent.policy_value(collector.observations)
        return buffer, bootstrap

    # ------------------------------------------------------------------ #
    # One update
    # ------------------------------------------------------------------ #
    def _compiled_train_step(self):
        """The lazily-built :class:`~repro.runtime.train.CompiledTrainStep`."""
        if self._train_step is None:
            from ..runtime.train import CompiledTrainStep

            dtype = self.config.compiled_train_dtype
            self._train_step = CompiledTrainStep(
                self.agent,
                self.optimizer,
                dtype=np.float64 if dtype is None else dtype,
            )
        return self._train_step

    def _update_compiled(self, batch):
        """One train step on the compiled runtime (raises CompileError to fall back)."""
        cfg = self.config
        step = self._compiled_train_step()
        # Compile (or fetch) the plan before the teacher forward, so an
        # uncompilable agent falls back without a wasted teacher inference.
        step.plan_for(np.asarray(batch["observations"]).shape)
        teacher_probs = teacher_values = None
        if self.distiller.enabled:
            teacher_probs, values = self.distiller.teacher_targets(batch["observations"])
            if self.distiller.mode == DistillationMode.AC:
                teacher_values = values
        self.optimizer.set_lr(self._current_lr())
        result = step.step(
            batch["observations"],
            batch["actions"],
            batch["returns"],
            batch["advantages"],
            max_grad_norm=cfg.max_grad_norm,
            weights=cfg.loss_weights(),
            teacher_probs=teacher_probs,
            teacher_values=teacher_values,
        )
        self.updates += 1
        self._note_guard(result.skipped)
        self.logger.log("loss/total", result.total, step=self.total_env_steps)
        for name in ("policy", "value", "entropy", "actor_distill", "critic_distill"):
            if name in result.components:
                self.logger.log("loss/" + name, result.components[name], step=self.total_env_steps)
        self.logger.log("grad_norm", result.grad_norm, step=self.total_env_steps)
        self.logger.log("lr", self.optimizer.lr, step=self.total_env_steps)
        return result.total

    def update(self, buffer, bootstrap_values):
        """Compute Eq. 12 on the stored rollout and apply one RMSProp step.

        Runs on the compiled training runtime when enabled, falling back to
        the eager autograd tape for anything the compiler cannot serve.
        """
        cfg = self.config
        batch = buffer.compute_targets(bootstrap_values, cfg.gamma)
        if cfg.use_compiled_train:
            from ..runtime.compiler import CompileError

            try:
                total = self._update_compiled(batch)
                self.reporter.tick(step=self.total_env_steps)
                return total
            except CompileError:
                health.record("eager_fallbacks")
        observations = batch["observations"]
        actions = batch["actions"]

        chosen_log_probs, entropy_per_sample, values, output = self.agent.evaluate_actions(
            observations, actions
        )
        loss_policy = policy_gradient_loss(chosen_log_probs, batch["advantages"])
        loss_value = value_loss(values, batch["returns"])
        loss_entropy = entropy_loss(output.probs, output.log_probs)

        actor_distill, critic_distill = (None, None)
        if self.distiller.enabled:
            actor_distill, critic_distill = self.distiller.losses(observations, output)

        total = combine_task_loss(
            loss_policy,
            loss_value,
            loss_entropy,
            actor_distill=actor_distill,
            critic_distill=critic_distill,
            weights=cfg.loss_weights(),
        )

        self.optimizer.zero_grad()
        total.backward()
        injector = get_injector()
        if injector is not None and injector.should_fire("nan_grad"):
            for param in self.agent.parameters():
                if param.grad is not None:
                    param.grad.flat[0] = np.nan
                    break
        grad_norm = clip_grad_norm(self.agent.parameters(), cfg.max_grad_norm)
        self.optimizer.set_lr(self._current_lr())
        skipped = not (np.isfinite(total.item()) and np.isfinite(grad_norm))
        if skipped:
            # Same guard as the compiled path: a poisoned loss or gradient
            # must not reach the optimiser state or the parameters.
            health.record("guard_trips")
        else:
            self.optimizer.step()
        self.updates += 1
        self._note_guard(skipped)

        self.logger.log("loss/total", total.item(), step=self.total_env_steps)
        self.logger.log("loss/policy", loss_policy.item(), step=self.total_env_steps)
        self.logger.log("loss/value", loss_value.item(), step=self.total_env_steps)
        self.logger.log("loss/entropy", loss_entropy.item(), step=self.total_env_steps)
        if actor_distill is not None:
            self.logger.log("loss/actor_distill", actor_distill.item(), step=self.total_env_steps)
        if critic_distill is not None:
            self.logger.log("loss/critic_distill", critic_distill.item(), step=self.total_env_steps)
        self.logger.log("grad_norm", grad_norm, step=self.total_env_steps)
        self.logger.log("lr", self.optimizer.lr, step=self.total_env_steps)
        self.reporter.tick(step=self.total_env_steps)
        return total.item()

    # ------------------------------------------------------------------ #
    # Non-finite guard bookkeeping
    # ------------------------------------------------------------------ #
    def _note_guard(self, skipped):
        """Track consecutive guard trips; roll back after K in a row.

        Skipped updates leave parameters untouched, but K consecutive trips
        mean the optimiser state (or the parameters themselves, poisoned
        before the streak started) are beyond saving forward — reload the
        last autosave instead of looping on garbage.  No-op when rollback is
        disabled or no autosave exists yet.
        """
        if not skipped:
            self._guard_streak = 0
            return
        self._guard_streak += 1
        cfg = self.config
        if not cfg.guard_rollback_after or self._guard_streak < cfg.guard_rollback_after:
            return
        self._guard_streak = 0
        if cfg.autosave_path and os.path.exists(str(cfg.autosave_path)):
            self.load_checkpoint(cfg.autosave_path)
            health.record("checkpoint_rollbacks")

    def _maybe_autosave(self):
        """Write the periodic autosave checkpoint when one is due."""
        cfg = self.config
        if (
            cfg.autosave_interval
            and cfg.autosave_path
            and self.updates % cfg.autosave_interval == 0
        ):
            self.save_checkpoint(cfg.autosave_path)
            health.record("autosaves")

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def train(self, total_steps=None):
        """Run training for ``total_steps`` environment steps.

        Returns the :class:`~repro.utils.logging.MetricLogger` holding episode
        returns, loss curves, and any periodic evaluation scores.
        """
        cfg = self.config
        target_steps = total_steps if total_steps is not None else cfg.total_steps
        next_eval = cfg.eval_interval if cfg.eval_interval else None

        self.agent.train()
        while self.total_env_steps < target_steps:
            buffer, bootstrap = self._collect_rollout()
            self.update(buffer, bootstrap)
            self._maybe_autosave()
            if next_eval is not None and self.total_env_steps >= next_eval and self.evaluator is not None:
                self.agent.eval()
                score = float(self.evaluator(self.agent))
                self.agent.train()
                self.logger.log("eval_score", score, step=self.total_env_steps)
                next_eval += cfg.eval_interval
        return self.logger

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path):
        """Persist everything needed to continue training bit-identically.

        The checkpoint covers the agent's parameters and buffers, the full
        optimiser state (RMSProp square averages, step count, learning rate),
        the trainer's RNG stream, and the step/update counters that drive the
        learning-rate schedule.  The environment is *not* serialised: resume
        with a freshly constructed (seeded) environment, exactly as at the
        start of training.
        """
        return save_state_dict(self._checkpoint_state(), path)

    def _checkpoint_state(self):
        """The full resume state (also the key/shape reference for loads)."""
        state = {}
        for key, value in self.agent.state_dict().items():
            state["agent." + key] = value
        for key, value in self.optimizer.state_dict().items():
            state["optim." + key] = value
        state["trainer.total_env_steps"] = np.int64(self.total_env_steps)
        state["trainer.updates"] = np.int64(self.updates)
        state["trainer.rng"] = np.asarray(json.dumps(self.rng.bit_generator.state))
        return state

    def load_checkpoint(self, path):
        """Restore a checkpoint written by :meth:`save_checkpoint` (in place).

        Compiled plans (inference and training) read parameters live, so they
        survive the load; the next rollout re-seeds from a fresh environment
        reset, and continuation is bit-identical to a trainer that never
        stopped (given the same environment construction).

        The checkpoint is validated against the trainer's current state
        layout *before* anything is restored, so a truncated, corrupt, or
        mismatched file raises :class:`~repro.nn.serialization.CheckpointError`
        (naming the path and the offending keys) and never half-restores.
        """
        state = load_state_dict(path)
        validate_state(state, self._checkpoint_state(), path)
        self.agent.load_state_dict(
            {k[len("agent."):]: v for k, v in state.items() if k.startswith("agent.")}
        )
        self.optimizer.load_state_dict(
            {k[len("optim."):]: v for k, v in state.items() if k.startswith("optim.")}
        )
        self.total_env_steps = int(state["trainer.total_env_steps"])
        self.updates = int(state["trainer.updates"])
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = json.loads(str(state["trainer.rng"].item()))
        self._guard_streak = 0
        if self._collector is not None:
            self._collector.restart()
        return self

    # ------------------------------------------------------------------ #
    # Convenience metrics
    # ------------------------------------------------------------------ #
    def mean_recent_return(self, window=20):
        """Mean of the last ``window`` completed training episode returns."""
        if not self._recent_returns:
            return 0.0
        return float(np.mean(self._recent_returns[-window:]))

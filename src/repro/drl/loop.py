"""The actor-critic training loop shared by A2C training and the agent search.

Algorithm 1 of the paper runs the same inner loop as plain DRL training:
collect a rollout of length ``L`` from parallel environments, evaluate the
task loss of Eq. 12 on it, and take one RMSProp step.  :class:`TrainLoop`
owns that loop: rollout collection, the compiled-or-eager update dispatch,
the non-finite guard with checkpoint rollback, periodic autosaves,
checkpoints and the per-update log.  Its subclasses supply only their own
update: :class:`~repro.drl.a2c.A2CTrainer` trains a fixed agent, and
:class:`~repro.nas.search.DRLArchitectureSearch` adds the Gumbel sample, the
alpha step and the hardware penalty.

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
from ..runtime import RuntimePolicy
from ..runtime.compiler import CompileError
from ..telemetry.metrics import registry
from ..utils.logging import MetricLogger
from .distillation import ACDistiller, DistillationMode
from .losses import TaskLossWeights, combine_task_loss, entropy_loss, policy_gradient_loss, value_loss
from .rollout import RolloutCollector

__all__ = ["TrainLoopConfig", "TrainLoop"]


@dataclass
class TrainLoopConfig:
    """Hyper-parameters of the shared training loop.

    Defaults follow Sec. V-A of the paper (discount 0.99, rollout length 5,
    entropy weight 1e-2, distillation weights 1e-1 / 1e-3); scaled-down step
    budgets are supplied by the experiment harness.
    """

    gamma: float = 0.99
    rollout_length: int = 5
    num_envs: int = 4
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
    #: stays available per call).  Its plans, the teacher targets and the
    #: rollouts' act and bootstrap inference run at ``compiled_train_dtype``;
    #: master weights and RMSProp state stay float64 either way, and so does
    #: the agent's own ``runtime_dtype`` (evaluation, serving).
    #: ``np.float64`` matches the eager tape to ~1e-12.
    use_compiled_train: bool = True
    compiled_train_dtype: object = np.float32
    #: Crash safety: write a full checkpoint to ``autosave_path`` every
    #: ``autosave_interval`` updates (0 disables).  The write is atomic, so a
    #: SIGKILL mid-save leaves the previous autosave intact and resuming from
    #: it reproduces the uninterrupted run bit-identically.
    autosave_interval: int = 0
    autosave_path: object = None
    #: After this many *consecutive* non-finite updates (guard trips), roll
    #: back to the last autosave (when one exists; 0 disables).
    guard_rollback_after: int = 3

    def loss_weights(self):
        """Bundle the beta coefficients of Eq. 12 into a :class:`TaskLossWeights`."""
        return TaskLossWeights(
            entropy=self.entropy_beta,
            actor_distill=self.actor_distill_beta,
            critic_distill=self.critic_distill_beta,
        )


#: The registry counters behind each per-update ``runtime/<name>`` log entry.
_RUNTIME_COUNTERS = {
    name: registry().counter("runtime/" + key)
    for name, key in (
        ("train_plan_hits", "train_plans/cache_hits"),
        ("train_plan_misses", "train_plans/cache_misses"),
        ("rollout_plan_hits", "inference_plans/cache_hits"),
        ("rollout_plan_misses", "inference_plans/cache_misses"),
        ("pool_bytes_recycled", "buffer_pools/bytes_pooled"),
        ("pool_bytes_fresh", "buffer_pools/bytes_fresh"),
    )
}


def _runtime_counters():
    """The current plan-cache and buffer-pool totals."""
    return {name: counter.value for name, counter in _RUNTIME_COUNTERS.items()}


class TrainLoop:
    """Rollout -> Eq. 12 loss -> RMSProp step, with guards and checkpoints.

    Subclasses set :attr:`COUNTER_PREFIX` and :attr:`checkpoint_parts`, and
    implement :meth:`_update` (plus :meth:`_compiled_update` /
    :meth:`_eager_update` when they use :meth:`_compiled_or_eager`).

    Parameters
    ----------
    agent:
        The :class:`~repro.drl.agent.ActorCriticAgent` being optimised.
    env:
        The :class:`~repro.envs.vector_env.VectorEnv` providing rollouts.
    config:
        A :class:`TrainLoopConfig` (or subclass).
    learning_rate:
        Initial learning rate of the RMSProp optimiser over the agent weights.
    teacher:
        Optional frozen teacher agent for AC-distillation (Sec. IV-B).
    evaluator:
        Optional callable run every ``config.eval_interval`` environment
        steps (see :meth:`_evaluate`).
    """

    #: Prefix of the step/update counters and RNG state in checkpoints.
    COUNTER_PREFIX = None

    def __init__(self, agent, env, config, learning_rate, teacher=None, evaluator=None):
        self.agent = agent
        self.env = env
        self.config = config
        self.distiller = ACDistiller(
            teacher,
            mode=config.distillation_mode if teacher is not None else DistillationMode.NONE,
            dtype=config.compiled_train_dtype,
        )
        self.evaluator = evaluator
        self.optimizer = RMSProp(agent.parameters(), lr=learning_rate)
        self.logger = MetricLogger()
        self.rng = np.random.default_rng(config.seed)
        self.total_env_steps = 0
        self.updates = 0
        #: ``{prefix: stateful}``: every object whose ``state_dict()`` the
        #: checkpoints carry, under ``prefix + "."``.
        self.checkpoint_parts = {}
        self._recent_returns = []
        self._collector = None
        self._rollout_runtime = None
        self._train_step = None
        self._guard_streak = 0
        #: Runtime counter totals at the previous update's log.
        self._runtime_counters = _runtime_counters()

    # ------------------------------------------------------------------ #
    # Rollout collection
    # ------------------------------------------------------------------ #
    def collector(self):
        """The loop's :class:`RolloutCollector`, rebound if the env was swapped."""
        self._collector = RolloutCollector.for_env(
            self._collector, self.env, self.config.rollout_length
        )
        return self._collector

    def _collect_rollout(self, **policy_kwargs):
        """Collect one rollout and return its batch with Eq. 12 targets.

        ``policy_kwargs`` go to every policy call (the search passes its
        sampled path as ``op_indices``).  The act steps and the bootstrap
        run on the loop's own runtime policy at ``compiled_train_dtype``,
        built on first use as the distiller builds the teacher's; the
        agent's eager fallback serves what it cannot compile.
        """
        collector = self.collector()
        if self._rollout_runtime is None and self.agent.use_runtime:
            self._rollout_runtime = RuntimePolicy(self.agent, dtype=self.config.compiled_train_dtype)
        runtime = self._rollout_runtime

        def on_step(infos):
            self.total_env_steps += self.env.num_envs
            for info in infos:
                if "episode_return" in info:
                    self._recent_returns.append(info["episode_return"])
                    self.logger.log("episode_return", info["episode_return"], step=self.total_env_steps)

        buffer = collector.collect(
            lambda observations: self.agent.act(
                observations, self.rng, runtime=runtime, **policy_kwargs
            ),
            seed=self.config.seed,
            on_step=on_step,
        )
        # Bootstrap values are pure inference: the loop's runtime serves
        # them from the rollout's cached plan.
        _, bootstrap = self.agent.policy_value(
            collector.observations, runtime=runtime, **policy_kwargs
        )
        return buffer.compute_targets(bootstrap, self.config.gamma)

    # ------------------------------------------------------------------ #
    # The update: compiled runtime or eager tape
    # ------------------------------------------------------------------ #
    def _update(self):
        """Collect a rollout and apply one update.

        Returns ``(total, components, extras, skipped)``: the total loss, the
        Eq. 12 terms (logged as ``loss/<name>``), further metrics logged
        under their own names, and whether the non-finite guard skipped the
        step.
        """
        raise NotImplementedError

    def _compiled_or_eager(self, batch, *args):
        """Run :meth:`_compiled_update`, or :meth:`_eager_update` if it cannot compile."""
        if self.config.use_compiled_train:
            try:
                return self._compiled_update(batch, *args)
            except CompileError:
                health.record("eager_fallbacks")
        return self._eager_update(batch, *args)

    def _compiled_train_step(self):
        """The lazily-built :class:`~repro.runtime.train.CompiledTrainStep`."""
        if self._train_step is None:
            from ..runtime.train import CompiledTrainStep

            self._train_step = CompiledTrainStep(
                self.agent, self.optimizer, dtype=self.config.compiled_train_dtype
            )
        return self._train_step

    def _compiled_step(self, batch, gated_paths=None, gate_values=None):
        """One fused train step on the compiled runtime (raises CompileError to fall back).

        The gated arguments select the searcher's sampled supernet branches.
        """
        step = self._compiled_train_step()
        # Compile (or fetch) the plan before the teacher forward, so an
        # uncompilable agent falls back without a wasted teacher inference.
        step.plan_for(np.asarray(batch["observations"]).shape, gated_paths=gated_paths)
        teacher_probs = teacher_values = None
        if self.distiller.enabled:
            teacher_probs, values = self.distiller.teacher_targets(batch["observations"])
            if self.distiller.mode == DistillationMode.AC:
                teacher_values = values
        return step.step(
            batch["observations"],
            batch["actions"],
            batch["returns"],
            batch["advantages"],
            max_grad_norm=self.config.max_grad_norm,
            weights=self.config.loss_weights(),
            teacher_probs=teacher_probs,
            teacher_values=teacher_values,
            gated_paths=gated_paths,
            gate_values=gate_values,
        )

    def _task_loss(self, batch, **forward_kwargs):
        """Eq. 12 on the eager tape: ``(total, components)``."""
        chosen_log_probs, _, values, output = self.agent.evaluate_actions(
            batch["observations"], batch["actions"], **forward_kwargs
        )
        loss_policy = policy_gradient_loss(chosen_log_probs, batch["advantages"])
        loss_value = value_loss(values, batch["returns"])
        loss_entropy = entropy_loss(output.probs, output.log_probs)
        actor_distill, critic_distill = (None, None)
        if self.distiller.enabled:
            actor_distill, critic_distill = self.distiller.losses(batch["observations"], output)
        total = combine_task_loss(
            loss_policy,
            loss_value,
            loss_entropy,
            actor_distill=actor_distill,
            critic_distill=critic_distill,
            weights=self.config.loss_weights(),
        )
        components = {
            "policy": loss_policy.item(),
            "value": loss_value.item(),
            "entropy": loss_entropy.item(),
        }
        if actor_distill is not None:
            components["actor_distill"] = actor_distill.item()
        if critic_distill is not None:
            components["critic_distill"] = critic_distill.item()
        return total, components

    def _eager_step(self, total, extra_optimizers=()):
        """Backpropagate ``total``, then clip, guard and apply the optimiser step(s).

        Mirrors the compiled path's non-finite guard: a NaN/Inf loss or
        gradient norm (of the weights, or of an ``extra_optimizers`` group,
        which is checked but not clipped) skips every step, leaving
        parameters and optimiser state untouched, and bumps ``guard_trips``.
        The ``nan_grad`` fault poisons the first weight gradient here,
        exactly as on the compiled path.  Returns ``(skipped, grad_norm)``.
        """
        optimizers = (self.optimizer,) + tuple(extra_optimizers)
        for optimizer in optimizers:
            optimizer.zero_grad()
        total.backward()
        injector = get_injector()
        if injector is not None and injector.should_fire("nan_grad"):
            for param in self.agent.parameters():
                if param.grad is not None:
                    param.grad.flat[0] = np.nan
                    break
        grad_norm = clip_grad_norm(self.agent.parameters(), self.config.max_grad_norm)
        extra_norms = [clip_grad_norm(optimizer.parameters, None) for optimizer in extra_optimizers]
        skipped = not np.all(np.isfinite([total.item(), grad_norm] + extra_norms))
        if skipped:
            health.record("guard_trips")
        else:
            for optimizer in optimizers:
                optimizer.step()
        return skipped, grad_norm

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def _run(self, target_steps):
        """Update until ``target_steps`` environment steps have been taken."""
        cfg = self.config
        next_eval = cfg.eval_interval if cfg.eval_interval else None
        self.agent.train()
        while self.total_env_steps < target_steps:
            total, components, extras, skipped = self._update()
            # Count first: a rollback in _note_guard restores the counters.
            self.updates += 1
            self._note_guard(skipped)
            self._maybe_autosave()
            self._log_update(total, components, extras)
            if next_eval is not None and self.total_env_steps >= next_eval and self.evaluator is not None:
                self.logger.log("eval_score", self._evaluate(), step=self.total_env_steps)
                next_eval += cfg.eval_interval

    def _evaluate(self):
        """Score the agent with the evaluator (in eval mode)."""
        self.agent.eval()
        score = float(self.evaluator(self.agent))
        self.agent.train()
        return score

    def _log_update(self, total, components, extras):
        """Log one update's losses, runtime deltas and health totals.

        The runtime counters (plan-cache hits and misses, recycled and
        freshly allocated pool bytes, read from the metrics registry) are
        logged as per-update deltas, so a steady-state recompile shows as a
        non-zero value.  The process-wide reliability counters (restarts,
        guard trips, fallbacks) are logged as totals, so recovery activity
        shows up in the same per-update stream.
        """
        step = self.total_env_steps
        self.logger.log("loss/total", total, step=step)
        for name, value in components.items():
            self.logger.log("loss/" + name, value, step=step)
        for name, value in extras.items():
            self.logger.log(name, value, step=step)
        for name, value in health.stats().items():
            self.logger.log("health/" + name, value, step=step)
        counters = _runtime_counters()
        for name, value in counters.items():
            self.logger.log("runtime/" + name, value - self._runtime_counters[name], step=step)
        self._runtime_counters = counters

    # ------------------------------------------------------------------ #
    # Non-finite guard bookkeeping + crash safety
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

    def save_checkpoint(self, path):
        """Atomically persist everything needed to continue bit-identically.

        The checkpoint covers every entry of :attr:`checkpoint_parts` (the
        agent's parameters and buffers, the full optimiser states, ...), the
        loop's RNG stream, and the step/update counters that drive the
        schedules.  The environment is *not* serialised: resume with a
        freshly constructed (seeded) environment, exactly as at the start.
        """
        return save_state_dict(self._checkpoint_state(), path)

    def _checkpoint_state(self):
        """The full resume state (also the key/shape reference for loads)."""
        state = {}
        for prefix, part in self.checkpoint_parts.items():
            for key, value in part.state_dict().items():
                state[prefix + "." + key] = value
        counters = self.COUNTER_PREFIX + "."
        state[counters + "total_env_steps"] = np.int64(self.total_env_steps)
        state[counters + "updates"] = np.int64(self.updates)
        state[counters + "rng"] = np.asarray(json.dumps(self.rng.bit_generator.state))
        return state

    def load_checkpoint(self, path):
        """Restore a checkpoint written by :meth:`save_checkpoint` (in place).

        The checkpoint is validated against the current state layout
        *before* anything is restored, so a truncated, corrupt, or mismatched
        file raises :class:`~repro.nn.serialization.CheckpointError` (naming
        the path and the offending keys) and never half-restores.  Compiled
        plans read parameters live and survive the load; the next rollout
        re-seeds from a fresh environment reset, so continuation is
        bit-identical to a loop that never stopped (given the same
        environment construction).
        """
        state = load_state_dict(path)
        validate_state(state, self._checkpoint_state(), path)
        for prefix, part in self.checkpoint_parts.items():
            head = prefix + "."
            part.load_state_dict(
                {k[len(head):]: v for k, v in state.items() if k.startswith(head)}
            )
        counters = self.COUNTER_PREFIX + "."
        self.total_env_steps = int(state[counters + "total_env_steps"])
        self.updates = int(state[counters + "updates"])
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = json.loads(str(state[counters + "rng"].item()))
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

"""Differentiable NAS for DRL agents (the agent-search half of A3C-S).

Implements the three search schemes compared in Fig. 2 of the paper:

* **Direct-NAS** — DNAS applied to DRL without any distillation; the paper
  shows this fails because of the high variance of DRL gradients.
* **A3C-S: bi-level** — AC-distillation plus DARTS-style bi-level
  optimisation, whose one-step approximation yields biased gradients that
  interact badly with DRL's variance (scores stay low).
* **A3C-S: one-level** — AC-distillation plus one-level optimisation (update
  the supernet weights and the architecture parameters in the same iteration,
  SNAS-style), the scheme A3C-S adopts.

The searcher also accepts a hardware-penalty hook so the full co-search
(:mod:`repro.cosearch`) can reuse the exact same loop with the accelerator
term of Eq. 4 added to the architecture-parameter gradient (Eq. 8).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..drl.agent import ActorCriticAgent
from ..drl.distillation import ACDistiller, DistillationMode
from ..drl.losses import TaskLossWeights, combine_task_loss, entropy_loss, policy_gradient_loss, value_loss
from ..drl.rollout import RolloutCollector
from ..envs import make_vector_env
from ..networks.supernet import AgentSuperNet
from ..nn import Adam, RMSProp, Tensor, clip_grad_norm, no_grad
from ..nn.serialization import load_state_dict, save_state_dict, validate_state
from ..reliability import health
from ..reliability.faults import get_injector
from ..runtime import cache_stats
from ..telemetry.metrics import Reporter
from ..utils.logging import MetricLogger
from .arch_params import ArchitectureParameters
from .gumbel import TemperatureSchedule

__all__ = ["SearchConfig", "SearchResult", "DRLArchitectureSearch", "OptimizationScheme"]


class OptimizationScheme:
    """String constants for the Fig. 2 search schemes."""

    ONE_LEVEL = "one-level"
    BI_LEVEL = "bi-level"

    ALL = (ONE_LEVEL, BI_LEVEL)

    @staticmethod
    def validate(scheme):
        """Return ``scheme`` if known, raise otherwise."""
        if scheme not in OptimizationScheme.ALL:
            raise ValueError(
                "unknown optimisation scheme {!r}; expected one of {}".format(scheme, OptimizationScheme.ALL)
            )
        return scheme


@dataclass
class SearchConfig:
    """Hyper-parameters of the DRL agent search (defaults follow Sec. V-A)."""

    gamma: float = 0.99
    rollout_length: int = 5
    num_envs: int = 4
    total_steps: int = 4000
    weight_lr: float = 1e-3
    alpha_lr: float = 1e-3
    alpha_momentum: float = 0.9
    max_grad_norm: float = 0.5
    entropy_beta: float = 1e-2
    actor_distill_beta: float = 1e-1
    critic_distill_beta: float = 1e-3
    distillation_mode: str = DistillationMode.AC
    scheme: str = OptimizationScheme.ONE_LEVEL
    num_backward_paths: int = 2
    temperature_initial: float = 5.0
    temperature_decay: float = 0.98
    temperature_interval: int = 1000
    hw_penalty_weight: float = 0.0
    eval_interval: int = 0
    eval_episodes: int = 3
    seed: int = 0
    #: Route one-level updates through the compiled training runtime (gated
    #: multi-path plans + fused RMSProp); the eager tape stays the per-call
    #: fallback.  ``compiled_train_dtype=None`` means float64.
    use_compiled_train: bool = True
    compiled_train_dtype: object = None
    #: Gumbel samples per one-level update.  With ``K > 1`` the compiled
    #: runtime stacks all K sampled paths into one batched plan (one compile
    #: + one GEMM sweep over a leading sample axis) and the update applies
    #: the mean of the K per-sample losses — a variance-reduced alpha
    #: gradient at far less than K compiled updates' cost.  The rollout is
    #: still collected along the first sample's hard path.
    grad_samples: int = 1
    #: Crash safety: atomically checkpoint the full search state (alphas,
    #: both optimisers, supernet weights, RNG, counters) to ``autosave_path``
    #: every ``autosave_interval`` updates (0 disables).  Resuming from an
    #: autosave reproduces the uninterrupted run bit-identically.
    autosave_interval: int = 0
    autosave_path: object = None
    #: After this many *consecutive* non-finite updates (guard trips), roll
    #: the search back to the last autosave (when one exists; 0 disables).
    guard_rollback_after: int = 3
    #: Sample ``repro.telemetry.snapshot()`` every this many updates (0
    #: disables); ``telemetry_path`` appends the snapshots to a JSONL file.
    telemetry_interval: int = 0
    telemetry_path: object = None

    def loss_weights(self):
        """Bundle the beta coefficients of Eq. 12."""
        return TaskLossWeights(
            entropy=self.entropy_beta,
            actor_distill=self.actor_distill_beta,
            critic_distill=self.critic_distill_beta,
        )


@dataclass
class SearchResult:
    """Outcome of a search run."""

    op_indices: list
    logger: object
    alpha_probabilities: object
    final_entropy: float
    total_env_steps: int

    def operator_names(self):
        """Names of the derived operators per cell."""
        from ..networks.operators import CANDIDATE_OPERATORS

        return [CANDIDATE_OPERATORS[i].name for i in self.op_indices]


def _runtime_counters(stats):
    """The plan-cache and buffer-pool totals of one ``cache_stats()``."""
    return {
        "train_plan_hits": stats["train_plans"]["cache_hits"],
        "train_plan_misses": stats["train_plans"]["cache_misses"],
        "rollout_plan_hits": stats["inference_plans"]["cache_hits"],
        "rollout_plan_misses": stats["inference_plans"]["cache_misses"],
        "pool_bytes_recycled": stats["buffer_pools"]["bytes_pooled"],
        "pool_bytes_fresh": stats["buffer_pools"]["bytes_fresh"],
    }


class DRLArchitectureSearch:
    """DNAS over the agent supernet driven by actor-critic training.

    Parameters
    ----------
    game:
        Registered game name (the environment the agent is searched for).
    supernet:
        An :class:`~repro.networks.supernet.AgentSuperNet`; built from
        ``supernet_kwargs`` when omitted.
    teacher:
        A frozen teacher agent for AC-distillation (``None`` disables
        distillation regardless of ``config.distillation_mode``).
    config:
        A :class:`SearchConfig`.
    hardware_penalty:
        Optional callable ``(sampled_indices, gates) -> Tensor`` implementing
        the layer-wise hardware-cost penalty of Eq. 8; its output is added to
        the architecture-parameter objective weighted by
        ``config.hw_penalty_weight`` (this is how the co-search injects
        ``lambda * L_cost``).
    env_kwargs / supernet_kwargs:
        Geometry options shared between the environment and the supernet.
    """

    def __init__(
        self,
        game,
        supernet=None,
        teacher=None,
        config=None,
        hardware_penalty=None,
        evaluator=None,
        env_kwargs=None,
        supernet_kwargs=None,
    ):
        self.game = game
        self.config = config if config is not None else SearchConfig()
        OptimizationScheme.validate(self.config.scheme)
        self.env_kwargs = dict(env_kwargs or {})
        self.env_kwargs.setdefault("obs_size", 42)
        self.env_kwargs.setdefault("frame_stack", 2)
        supernet_kwargs = dict(supernet_kwargs or {})
        supernet_kwargs.setdefault("in_channels", self.env_kwargs["frame_stack"])
        supernet_kwargs.setdefault("input_size", self.env_kwargs["obs_size"])
        supernet_kwargs.setdefault("feature_dim", 128)
        supernet_kwargs.setdefault("base_width", 8)

        self.rng = np.random.default_rng(self.config.seed)
        if supernet is None:
            supernet = AgentSuperNet(rng=np.random.default_rng(self.config.seed), **supernet_kwargs)
        self.supernet = supernet
        self.agent = ActorCriticAgent(
            supernet, num_actions=6, feature_dim=supernet.feature_dim, rng=np.random.default_rng(self.config.seed)
        )
        self.arch = ArchitectureParameters(
            supernet.num_cells, supernet.num_choices_per_cell, rng=np.random.default_rng(self.config.seed + 1)
        )
        self.distiller = (
            ACDistiller(teacher, mode=self.config.distillation_mode)
            if teacher is not None
            else ACDistiller(None, mode=DistillationMode.NONE)
        )
        self.hardware_penalty = hardware_penalty
        self.evaluator = evaluator

        self.env = make_vector_env(
            game, num_envs=self.config.num_envs, seed=self.config.seed, **self.env_kwargs
        )
        self.weight_optimizer = RMSProp(self.agent.parameters(), lr=self.config.weight_lr)
        self.alpha_optimizer = Adam(
            self.arch.parameters(), lr=self.config.alpha_lr, betas=(self.config.alpha_momentum, 0.999)
        )
        self.temperature = TemperatureSchedule(
            initial=self.config.temperature_initial,
            decay=self.config.temperature_decay,
            decay_interval=self.config.temperature_interval,
        )
        self.logger = MetricLogger()
        self.reporter = Reporter(
            interval=self.config.telemetry_interval, path=self.config.telemetry_path
        )
        self.total_env_steps = 0
        self.updates = 0
        self._collector = None
        self._recent_returns = []
        self._train_step = None
        self._guard_streak = 0
        self._update_skipped = False
        #: Runtime counter totals at the previous update's log (see
        #: :meth:`_log_runtime_stats`).
        self._runtime_counters = _runtime_counters(cache_stats())
        #: Override for the periodic autosave (the co-search points this at
        #: its combined searcher+DAS checkpoint); ``None`` uses
        #: :meth:`save_checkpoint` on ``config.autosave_path``.
        self.autosave_fn = None

    # ------------------------------------------------------------------ #
    # Rollout collection along the currently sampled path
    # ------------------------------------------------------------------ #
    def collector(self):
        """The search's :class:`RolloutCollector`, rebound if the env was swapped."""
        self._collector = RolloutCollector.for_env(
            self._collector, self.env, self.config.rollout_length
        )
        return self._collector

    def _collect_rollout(self, sampled_indices):
        """Collect one rollout along the sampled path; returns (buffer, bootstrap)."""
        collector = self.collector()

        def policy(observations):
            with no_grad():
                return self.agent.act(observations, self.rng, op_indices=sampled_indices)

        def on_step(infos):
            self.total_env_steps += self.env.num_envs
            for info in infos:
                if "episode_return" in info:
                    self._recent_returns.append(info["episode_return"])
                    self.logger.log("episode_return", info["episode_return"], step=self.total_env_steps)

        buffer = collector.collect(policy, seed=self.config.seed, on_step=on_step)
        # Bootstrap values are pure inference along the sampled path: the
        # runtime engine serves them from the rollout's cached plan.
        _, bootstrap = self.agent.policy_value(
            collector.observations, op_indices=sampled_indices
        )
        return buffer, bootstrap

    # ------------------------------------------------------------------ #
    # Loss evaluation on a rollout with gated (multi-path-backward) forward
    # ------------------------------------------------------------------ #
    def _task_loss(self, batch, gates, active_indices):
        chosen_log_probs, entropy_per_sample, values, output = self.agent.evaluate_actions(
            batch["observations"], batch["actions"], gates=gates, active_indices=active_indices
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
            "actor_distill": actor_distill.item() if actor_distill is not None else 0.0,
            "critic_distill": critic_distill.item() if critic_distill is not None else 0.0,
        }
        return total, components

    def _add_hardware_penalty(self, total_loss, sampled_indices, gates):
        """Add ``lambda * L_cost`` (Eq. 4 / Eq. 8) when a penalty hook is set."""
        if self.hardware_penalty is None or self.config.hw_penalty_weight <= 0.0:
            return total_loss, 0.0
        penalty = self.hardware_penalty(sampled_indices, gates)
        if penalty is None:
            return total_loss, 0.0
        total = total_loss + penalty * self.config.hw_penalty_weight
        value = penalty.item() if isinstance(penalty, Tensor) else float(penalty)
        return total, value

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _compiled_train_step(self):
        """The lazily-built :class:`~repro.runtime.train.CompiledTrainStep`."""
        if self._train_step is None:
            from ..runtime.train import CompiledTrainStep

            dtype = self.config.compiled_train_dtype
            self._train_step = CompiledTrainStep(
                self.agent,
                self.weight_optimizer,
                dtype=np.float64 if dtype is None else dtype,
            )
        return self._train_step

    def _compiled_stacked_one_level(self, batch, samples):
        """One-level update on the compiled runtime (Eq. 6-8, tape-free weights).

        The supernet weights take the gated multi-path reverse plan plus the
        fused RMSProp step.  The plan runs the union of the K samples'
        active candidates; per-sample gate values select each sample's paths
        (zero for branches a sample did not activate), and alpha receives
        each sample's gate gradients masked to *its own* active set, chained
        through the (tiny, eager) Gumbel relaxation together with the
        hardware penalty of Eq. 8 — exactly the mean of K per-path compiled
        updates, for one plan run.
        """
        cfg = self.config
        step = self._compiled_train_step()
        num_samples = len(samples)
        num_cells = self.supernet.num_cells
        union = tuple(
            tuple(sorted(set().union(*[set(sample[1][c]) for sample in samples])))
            for c in range(num_cells)
        )
        gate_values = []
        for c in range(num_cells):
            values = np.zeros((num_samples, len(union[c])))
            for k, (gates, active, _) in enumerate(samples):
                for i in active[c]:
                    values[k, union[c].index(i)] = gates[c].data[i]
            gate_values.append(values)
        # Compile (or fetch) the plan before the teacher forward, so an
        # uncompilable supernet falls back without a wasted teacher inference.
        step.plan_for(
            np.asarray(batch["observations"]).shape,
            gated_paths=union,
            num_samples=num_samples,
        )
        teacher_probs = teacher_values = None
        if self.distiller.enabled:
            teacher_probs, values = self.distiller.teacher_targets(batch["observations"])
            if self.distiller.mode == DistillationMode.AC:
                teacher_values = values
        result = step.step(
            batch["observations"],
            batch["actions"],
            batch["returns"],
            batch["advantages"],
            max_grad_norm=cfg.max_grad_norm,
            weights=cfg.loss_weights(),
            teacher_probs=teacher_probs,
            teacher_values=teacher_values,
            gated_paths=union,
            gate_values=gate_values,
            num_samples=num_samples,
        )
        components = dict(result.components)
        components.setdefault("actor_distill", 0.0)
        components.setdefault("critic_distill", 0.0)
        if result.skipped:
            # The non-finite guard suppressed the weight update; the gate
            # gradients came from the same poisoned backward, so alpha skips
            # too (and the search loop notes the trip for rollback streaks).
            self._note_guard(True)
            return result.total, components, 0.0
        self._note_guard(False)
        # Alpha update: seed the gate gradients back through the Gumbel graph.
        self.alpha_optimizer.zero_grad()
        seed = None
        for k, (gates, active, _) in enumerate(samples):
            for c, cell in enumerate(union):
                gate_grad = np.reshape(result.gate_grads[c], (num_samples, len(cell)))[k]
                full = np.zeros(gates[c].data.shape)
                for pos, i in enumerate(cell):
                    if i in active[c]:
                        full[i] = gate_grad[pos]
                term = (gates[c] * Tensor(full)).sum()
                seed = term if seed is None else seed + term
        gates0, _, sampled0 = samples[0]
        total_value = result.total
        hw_value = 0.0
        if self.hardware_penalty is not None and cfg.hw_penalty_weight > 0.0:
            penalty = self.hardware_penalty(sampled0, gates0)
            if penalty is not None:
                if isinstance(penalty, Tensor):
                    seed = seed + penalty * cfg.hw_penalty_weight
                    hw_value = penalty.item()
                else:
                    hw_value = float(penalty)
                total_value += hw_value * cfg.hw_penalty_weight
        seed.backward()
        self.alpha_optimizer.step()
        return total_value, components, hw_value

    def _one_level_update(self):
        """One-level: weights and alpha updated from the same rollout loss.

        The loss is the mean over ``config.grad_samples`` Gumbel samples
        (one sample is the plain one-level update); the rollout follows the
        first sample's hard path.
        """
        cfg = self.config
        temperature = self.temperature.value(self.total_env_steps)
        samples = [
            self.arch.sample(temperature, self.rng, num_backward_paths=cfg.num_backward_paths)
            for _ in range(cfg.grad_samples)
        ]
        gates0, _, sampled0 = samples[0]
        buffer, bootstrap = self._collect_rollout(sampled0)
        batch = buffer.compute_targets(bootstrap, cfg.gamma)
        if cfg.use_compiled_train:
            from ..runtime.compiler import CompileError

            try:
                return self._compiled_stacked_one_level(batch, samples)
            except CompileError:
                health.record("eager_fallbacks")
        # Eager fallback: mean of the K per-sample task losses on the tape.
        total = None
        components_mean = {}
        for gates, active, _ in samples:
            sample_total, components = self._task_loss(batch, gates, active)
            total = sample_total if total is None else total + sample_total
            for key, value in components.items():
                components_mean[key] = components_mean.get(key, 0.0) + value / len(samples)
        total = total * (1.0 / len(samples))
        total, hw_value = self._add_hardware_penalty(total, sampled0, gates0)
        self.weight_optimizer.zero_grad()
        self.alpha_optimizer.zero_grad()
        total.backward()
        self._guarded_eager_step(total)
        return total.item(), components_mean, hw_value

    def _guarded_eager_step(self, total, update_alpha=True):
        """Clip, guard, and apply the eager optimiser step(s).

        Mirrors the compiled path's non-finite guard: a NaN/Inf loss, weight
        gradient norm, or alpha gradient norm skips both optimiser steps
        (leaving parameters and optimiser state untouched), bumps the
        ``guard_trips`` counter, and feeds the rollback streak.  The
        ``nan_grad`` fault poisons the first weight gradient here, exactly
        as on the compiled path.  Returns True when the step was applied.
        """
        injector = get_injector()
        if injector is not None and injector.should_fire("nan_grad"):
            for param in self.agent.parameters():
                if param.grad is not None:
                    param.grad.flat[0] = np.nan
                    break
        grad_norm = clip_grad_norm(self.agent.parameters(), self.config.max_grad_norm)
        alpha_norm = clip_grad_norm(self.arch.parameters(), None) if update_alpha else 0.0
        if not (
            np.isfinite(total.item())
            and np.isfinite(grad_norm)
            and np.isfinite(alpha_norm)
        ):
            health.record("guard_trips")
            self._note_guard(True)
            return False
        self.weight_optimizer.step()
        if update_alpha:
            self.alpha_optimizer.step()
        self._note_guard(False)
        return True

    def _bi_level_update(self):
        """Bi-level: weights on one rollout, alpha on a fresh "validation" rollout.

        This is the DARTS-style one-step approximation whose gradient bias the
        paper blames for the failure of bi-level search under DRL variance.
        """
        temperature = self.temperature.value(self.total_env_steps)
        # --- weight step -------------------------------------------------
        gates, active, sampled = self.arch.sample(
            temperature, self.rng, num_backward_paths=self.config.num_backward_paths
        )
        buffer, bootstrap = self._collect_rollout(sampled)
        batch = buffer.compute_targets(bootstrap, self.config.gamma)
        total_w, components = self._task_loss(batch, gates, active)
        self.weight_optimizer.zero_grad()
        self.alpha_optimizer.zero_grad()
        total_w.backward()
        self._guarded_eager_step(total_w, update_alpha=False)

        # --- alpha step on a fresh rollout ("validation" data) -----------
        gates_v, active_v, sampled_v = self.arch.sample(
            temperature, self.rng, num_backward_paths=self.config.num_backward_paths
        )
        buffer_v, bootstrap_v = self._collect_rollout(sampled_v)
        batch_v = buffer_v.compute_targets(bootstrap_v, self.config.gamma)
        total_a, _ = self._task_loss(batch_v, gates_v, active_v)
        total_a, hw_value = self._add_hardware_penalty(total_a, sampled_v, gates_v)
        self.weight_optimizer.zero_grad()
        self.alpha_optimizer.zero_grad()
        total_a.backward()
        alpha_norm = clip_grad_norm(self.arch.parameters(), None)
        if np.isfinite(total_a.item()) and np.isfinite(alpha_norm):
            self.alpha_optimizer.step()
        else:
            health.record("guard_trips")
            self._note_guard(True)
        return total_w.item(), components, hw_value

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def search(self, total_steps=None):
        """Run the agent search and return a :class:`SearchResult`."""
        cfg = self.config
        target = total_steps if total_steps is not None else cfg.total_steps
        next_eval = cfg.eval_interval if cfg.eval_interval else None

        self.agent.train()
        while self.total_env_steps < target:
            if cfg.scheme == OptimizationScheme.ONE_LEVEL:
                loss_value, components, hw_value = self._one_level_update()
            else:
                loss_value, components, hw_value = self._bi_level_update()
            self.updates += 1
            self._maybe_autosave()
            self.logger.log("loss/total", loss_value, step=self.total_env_steps)
            for key, value in components.items():
                self.logger.log("loss/{}".format(key), value, step=self.total_env_steps)
            if hw_value:
                self.logger.log("loss/hw_penalty", hw_value, step=self.total_env_steps)
            self.logger.log("alpha_entropy", self.arch.entropy(), step=self.total_env_steps)
            self._log_runtime_stats()
            self.reporter.tick(step=self.total_env_steps)

            if next_eval is not None and self.total_env_steps >= next_eval and self.evaluator is not None:
                score = float(self.evaluator(self.agent, self.arch.derive()))
                self.logger.log("eval_score", score, step=self.total_env_steps)
                next_eval += cfg.eval_interval

        op_indices = self.arch.derive()
        return SearchResult(
            op_indices=op_indices,
            logger=self.logger,
            alpha_probabilities=self.arch.probabilities(),
            final_entropy=self.arch.entropy(),
            total_env_steps=self.total_env_steps,
        )

    # ------------------------------------------------------------------ #
    # Guard bookkeeping + crash safety
    # ------------------------------------------------------------------ #
    def _note_guard(self, skipped):
        """Track consecutive guard trips; roll back after K in a row."""
        if not skipped:
            self._update_skipped = False
            self._guard_streak = 0
            return
        self._update_skipped = True
        self._guard_streak += 1
        cfg = self.config
        if not cfg.guard_rollback_after or self._guard_streak < cfg.guard_rollback_after:
            return
        self._guard_streak = 0
        if cfg.autosave_path and os.path.exists(str(cfg.autosave_path)):
            self.load_checkpoint(cfg.autosave_path)
            health.record("checkpoint_rollbacks")

    def _maybe_autosave(self):
        """Write the periodic autosave checkpoint when one is due.

        The co-search overrides the write via :attr:`autosave_fn` so one
        autosave covers the searcher *and* the accelerator-search state.
        """
        cfg = self.config
        if not cfg.autosave_interval or self.updates % cfg.autosave_interval != 0:
            return
        if self.autosave_fn is not None:
            self.autosave_fn()
            health.record("autosaves")
        elif cfg.autosave_path:
            self.save_checkpoint(cfg.autosave_path)
            health.record("autosaves")

    def save_checkpoint(self, path):
        """Atomically persist everything needed to resume bit-identically.

        Covers the supernet/agent parameters and buffers, both optimisers
        (RMSProp on the weights, Adam on alpha), the architecture
        parameters, the search RNG stream, and the step/update counters
        driving the temperature schedule.  The environment is *not*
        serialised — resume with a freshly constructed (seeded) environment,
        exactly as at the start of the search.
        """
        return save_state_dict(self._checkpoint_state(), path)

    def _checkpoint_state(self):
        """The full resume state (also the key/shape reference for loads)."""
        state = {}
        for key, value in self.agent.state_dict().items():
            state["agent." + key] = value
        for key, value in self.weight_optimizer.state_dict().items():
            state["woptim." + key] = value
        for key, value in self.alpha_optimizer.state_dict().items():
            state["aoptim." + key] = value
        for key, value in self.arch.state_dict().items():
            state["arch." + key] = value
        state["search.total_env_steps"] = np.int64(self.total_env_steps)
        state["search.updates"] = np.int64(self.updates)
        state["search.rng"] = np.asarray(json.dumps(self.rng.bit_generator.state))
        return state

    def load_checkpoint(self, path):
        """Restore a checkpoint written by :meth:`save_checkpoint` (in place).

        The checkpoint is validated against the searcher's current state
        layout *before* anything is restored, so a truncated, corrupt, or
        mismatched file raises
        :class:`~repro.nn.serialization.CheckpointError` and never
        half-restores.  Compiled plans read parameters live and survive the
        load; continuation is bit-identical to a search that never stopped
        (given the same environment construction).
        """
        state = load_state_dict(path)
        validate_state(state, self._checkpoint_state(), path)
        self.agent.load_state_dict(
            {k[len("agent."):]: v for k, v in state.items() if k.startswith("agent.")}
        )
        self.weight_optimizer.load_state_dict(
            {k[len("woptim."):]: v for k, v in state.items() if k.startswith("woptim.")}
        )
        self.alpha_optimizer.load_state_dict(
            {k[len("aoptim."):]: v for k, v in state.items() if k.startswith("aoptim.")}
        )
        self.arch.load_state_dict(
            {k[len("arch."):]: v for k, v in state.items() if k.startswith("arch.")}
        )
        self.total_env_steps = int(state["search.total_env_steps"])
        self.updates = int(state["search.updates"])
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = json.loads(str(state["search.rng"].item()))
        self._guard_streak = 0
        if self._collector is not None:
            self._collector.restart()
        return self

    def _log_runtime_stats(self):
        """Log this update's plan compiles and buffer-pool traffic.

        The runtime counters (plan-cache hits and misses, recycled and
        freshly allocated pool bytes, summed over the process's live engines)
        are logged as per-update deltas, so a steady-state recompile shows as
        a non-zero value.  The process-wide reliability counters (restarts,
        guard trips, fallbacks) are logged as totals, so recovery activity
        shows up in the same per-update stream.
        """
        stats = cache_stats()
        step = self.total_env_steps
        for name, value in stats["health"].items():
            self.logger.log("health/" + name, value, step=step)
        counters = _runtime_counters(stats)
        for name, value in counters.items():
            self.logger.log("runtime/" + name, value - self._runtime_counters[name], step=step)
        self._runtime_counters = counters

    def derive_agent(self, rng=None):
        """Derive the final stand-alone agent from the current alpha."""
        op_indices = self.arch.derive()
        backbone = self.supernet.derive(op_indices, rng=rng)
        derived = ActorCriticAgent(
            backbone, num_actions=self.agent.num_actions, feature_dim=backbone.feature_dim,
            rng=np.random.default_rng(self.config.seed),
        )
        # The heads keep the weights trained during the search.
        derived.policy_head.load_state_dict(self.agent.policy_head.state_dict())
        derived.value_head.load_state_dict(self.agent.value_head.state_dict())
        return derived

    def mean_recent_return(self, window=20):
        """Mean of the last ``window`` training episode returns."""
        if not self._recent_returns:
            return 0.0
        return float(np.mean(self._recent_returns[-window:]))

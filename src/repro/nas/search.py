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

from dataclasses import dataclass

import numpy as np

from ..drl.agent import ActorCriticAgent
from ..drl.distillation import DistillationMode
from ..drl.loop import TrainLoop, TrainLoopConfig
from ..envs import make_vector_env
from ..networks.supernet import AgentSuperNet
from ..nn import Adam, Tensor, clip_grad_norm
from ..reliability import health
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
class SearchConfig(TrainLoopConfig):
    """Hyper-parameters of the DRL agent search (defaults follow Sec. V-A).

    Adds the weight and alpha optimisers, the Gumbel temperature schedule and
    the search scheme to the shared :class:`~repro.drl.loop.TrainLoopConfig`.
    """

    total_steps: int = 4000
    weight_lr: float = 1e-3
    alpha_lr: float = 1e-3
    alpha_momentum: float = 0.9
    distillation_mode: str = DistillationMode.AC
    scheme: str = OptimizationScheme.ONE_LEVEL
    num_backward_paths: int = 2
    temperature_initial: float = 5.0
    temperature_decay: float = 0.98
    temperature_interval: int = 1000
    hw_penalty_weight: float = 0.0
    eval_episodes: int = 3
    #: Gumbel samples per one-level update.  With ``K > 1`` the compiled
    #: runtime stacks all K sampled paths into one batched plan (one compile
    #: + one GEMM sweep over a leading sample axis) and the update applies
    #: the mean of the K per-sample losses — a variance-reduced alpha
    #: gradient at far less than K compiled updates' cost.  The rollout is
    #: still collected along the first sample's hard path.
    grad_samples: int = 1


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


def _zero_filled(components):
    """Eq. 12 terms with the distillation terms logged as 0 when disabled."""
    components = dict(components)
    components.setdefault("actor_distill", 0.0)
    components.setdefault("critic_distill", 0.0)
    return components


class DRLArchitectureSearch(TrainLoop):
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
    evaluator:
        Optional callable ``evaluator(agent, op_indices) -> float`` used
        every ``config.eval_interval`` environment steps.
    env_kwargs / supernet_kwargs:
        Geometry options shared between the environment and the supernet.
    """

    COUNTER_PREFIX = "search"

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
        config = config if config is not None else SearchConfig()
        OptimizationScheme.validate(config.scheme)
        self.env_kwargs = dict(env_kwargs or {})
        self.env_kwargs.setdefault("obs_size", 42)
        self.env_kwargs.setdefault("frame_stack", 2)
        supernet_kwargs = dict(supernet_kwargs or {})
        supernet_kwargs.setdefault("in_channels", self.env_kwargs["frame_stack"])
        supernet_kwargs.setdefault("input_size", self.env_kwargs["obs_size"])
        supernet_kwargs.setdefault("feature_dim", 128)
        supernet_kwargs.setdefault("base_width", 8)

        if supernet is None:
            supernet = AgentSuperNet(rng=np.random.default_rng(config.seed), **supernet_kwargs)
        self.supernet = supernet
        agent = ActorCriticAgent(
            supernet, num_actions=6, feature_dim=supernet.feature_dim, rng=np.random.default_rng(config.seed)
        )
        self.arch = ArchitectureParameters(
            supernet.num_cells, supernet.num_choices_per_cell, rng=np.random.default_rng(config.seed + 1)
        )
        self.hardware_penalty = hardware_penalty
        env = make_vector_env(game, num_envs=config.num_envs, seed=config.seed, **self.env_kwargs)
        super().__init__(agent, env, config, config.weight_lr, teacher, evaluator)
        self.alpha_optimizer = Adam(
            self.arch.parameters(), lr=config.alpha_lr, betas=(config.alpha_momentum, 0.999)
        )
        self.temperature = TemperatureSchedule(
            initial=config.temperature_initial,
            decay=config.temperature_decay,
            decay_interval=config.temperature_interval,
        )
        self.checkpoint_parts = {
            "agent": self.agent,
            "woptim": self.optimizer,
            "aoptim": self.alpha_optimizer,
            "arch": self.arch,
        }

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

    def _extras(self, hw_value):
        """The search's own per-update metrics."""
        extras = {"loss/hw_penalty": hw_value} if hw_value else {}
        extras["alpha_entropy"] = self.arch.entropy()
        return extras

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def _update(self):
        if self.config.scheme == OptimizationScheme.ONE_LEVEL:
            return self._one_level_update()
        return self._bi_level_update()

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
        batch = self._collect_rollout(op_indices=samples[0][2])
        return self._compiled_or_eager(batch, samples)

    def _compiled_update(self, batch, samples):
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
        result = self._compiled_step(
            batch, gated_paths=union, gate_values=gate_values, num_samples=num_samples
        )
        components = _zero_filled(result.components)
        if result.skipped:
            # The non-finite guard suppressed the weight update; the gate
            # gradients came from the same poisoned backward, so alpha skips too.
            return result.total, components, self._extras(0.0), True
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
        seed, hw_value = self._add_hardware_penalty(seed, sampled0, gates0)
        seed.backward()
        self.alpha_optimizer.step()
        total = result.total + hw_value * self.config.hw_penalty_weight
        return total, components, self._extras(hw_value), False

    def _eager_update(self, batch, samples):
        """Eager fallback: the mean of the K per-sample task losses on the tape."""
        total = None
        components_mean = {}
        for gates, active, _ in samples:
            sample_total, components = self._task_loss(batch, gates=gates, active_indices=active)
            total = sample_total if total is None else total + sample_total
            for key, value in _zero_filled(components).items():
                components_mean[key] = components_mean.get(key, 0.0) + value / len(samples)
        total = total * (1.0 / len(samples))
        gates0, _, sampled0 = samples[0]
        total, hw_value = self._add_hardware_penalty(total, sampled0, gates0)
        skipped, _ = self._eager_step(total, (self.alpha_optimizer,))
        return total.item(), components_mean, self._extras(hw_value), skipped

    def _bi_level_update(self):
        """Bi-level: weights on one rollout, alpha on a fresh "validation" rollout.

        This is the DARTS-style one-step approximation whose gradient bias the
        paper blames for the failure of bi-level search under DRL variance.
        """
        cfg = self.config
        temperature = self.temperature.value(self.total_env_steps)
        # --- weight step -------------------------------------------------
        gates, active, sampled = self.arch.sample(
            temperature, self.rng, num_backward_paths=cfg.num_backward_paths
        )
        batch = self._collect_rollout(op_indices=sampled)
        total_w, components = self._task_loss(batch, gates=gates, active_indices=active)
        skipped, _ = self._eager_step(total_w)

        # --- alpha step on a fresh rollout ("validation" data) -----------
        gates_v, active_v, sampled_v = self.arch.sample(
            temperature, self.rng, num_backward_paths=cfg.num_backward_paths
        )
        batch_v = self._collect_rollout(op_indices=sampled_v)
        total_a, _ = self._task_loss(batch_v, gates=gates_v, active_indices=active_v)
        total_a, hw_value = self._add_hardware_penalty(total_a, sampled_v, gates_v)
        self.optimizer.zero_grad()
        self.alpha_optimizer.zero_grad()
        total_a.backward()
        alpha_norm = clip_grad_norm(self.arch.parameters(), None)
        if np.isfinite(total_a.item()) and np.isfinite(alpha_norm):
            self.alpha_optimizer.step()
        else:
            health.record("guard_trips")
            skipped = True
        return total_w.item(), _zero_filled(components), self._extras(hw_value), skipped

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def search(self, total_steps=None):
        """Run the agent search and return a :class:`SearchResult`."""
        self._run(total_steps if total_steps is not None else self.config.total_steps)
        return SearchResult(
            op_indices=self.arch.derive(),
            logger=self.logger,
            alpha_probabilities=self.arch.probabilities(),
            final_entropy=self.arch.entropy(),
            total_env_steps=self.total_env_steps,
        )

    def _evaluate(self):
        return float(self.evaluator(self.agent, self.arch.derive()))

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

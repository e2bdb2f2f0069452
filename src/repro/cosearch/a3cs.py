"""The A3C-S co-search pipeline (paper Algorithm 1).

One iteration of the co-search:

1. sample the architecture gates (hard Gumbel, single-path forward) and
   collect a rollout with the sampled agent;
2. update the accelerator parameters ``phi`` with the DAS engine for the
   currently sampled network (Eq. 9), yielding ``hw(phi*)``;
3. update the supernet weights ``theta_pi, theta_v`` and the architecture
   parameters ``alpha`` with ``L_task + lambda * L_cost`` (Eq. 4, Eq. 12),
   where ``L_cost`` is the activated-path hardware penalty (Eq. 8) evaluated
   on ``hw(phi*)``, using one-level optimisation.

Steps 1 and 3 are the :class:`~repro.nas.search.DRLArchitectureSearch`
one-level update; step 2 is injected through its hardware-penalty hook, which
is invoked between rollout collection and the parameter update — exactly the
ordering of Algorithm 1.  After the search budget is exhausted the final agent
and accelerator are derived from the arg-max of ``alpha`` and ``phi``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accelerator.das import DASConfig, DifferentiableAcceleratorSearch
from ..accelerator.fpga import ZC706
from ..drl.distillation import DistillationMode
from ..drl.teacher import train_teacher
from ..nas.search import DRLArchitectureSearch, OptimizationScheme, SearchConfig
from .hardware import HardwarePenalty, UnitGranularityDAS

__all__ = ["A3CSConfig", "A3CSResult", "A3CSCoSearch"]


@dataclass
class A3CSConfig:
    """End-to-end configuration of an A3C-S co-search run.

    The defaults are scaled-down (NumPy-substrate-sized) versions of the
    paper's settings; the per-field meanings match Sec. V-A.
    """

    # Environment / observation geometry.
    obs_size: int = 28
    frame_stack: int = 2
    max_episode_steps: int = 200
    num_envs: int = 2

    # Supernet geometry.
    num_cells: int = 12
    base_width: int = 8
    feature_dim: int = 64

    # Search budgets.
    search_steps: int = 1000
    teacher_steps: int = 800
    final_das_steps: int = 150
    das_steps_per_iteration: int = 1

    # Loss weighting.
    hw_penalty_weight: float = 0.1
    distillation_mode: str = DistillationMode.AC
    scheme: str = OptimizationScheme.ONE_LEVEL
    #: Gumbel samples per one-level update (at least 1; ``K > 1`` runs the
    #: eager update): see :attr:`repro.nas.search.SearchConfig.grad_samples`.
    grad_samples: int = 1

    # Hardware target.
    device: object = ZC706
    objective: str = "fps"

    # Misc.
    seed: int = 0
    eval_interval: int = 0
    eval_episodes: int = 3

    # Crash safety: periodic atomic autosaves of the combined searcher + DAS
    # state every ``autosave_interval`` search updates (0 disables); see
    # :meth:`A3CSCoSearch.save_checkpoint`.
    autosave_interval: int = 0
    autosave_path: object = None

    def search_config(self):
        """Derive the :class:`~repro.nas.search.SearchConfig` for the agent search."""
        return SearchConfig(
            total_steps=self.search_steps,
            num_envs=self.num_envs,
            distillation_mode=self.distillation_mode,
            scheme=self.scheme,
            hw_penalty_weight=self.hw_penalty_weight,
            eval_interval=self.eval_interval,
            eval_episodes=self.eval_episodes,
            seed=self.seed,
            grad_samples=self.grad_samples,
            autosave_interval=self.autosave_interval,
            autosave_path=self.autosave_path,
        )

    def das_config(self):
        """Derive the :class:`~repro.accelerator.das.DASConfig` for the DAS engine."""
        return DASConfig(objective=self.objective, seed=self.seed)


@dataclass
class A3CSResult:
    """Everything the co-search derives."""

    game: str
    op_indices: list
    operator_names: list
    agent: object
    accelerator_config: object
    accelerator_metrics: object
    search_logger: object
    das_cost_history: list = field(default_factory=list)
    teacher_score: float = 0.0

    @property
    def fps(self):
        """FPS of the derived accelerator running the derived agent."""
        return self.accelerator_metrics.fps

    def summary(self):
        """One-line human-readable summary of the co-search outcome."""
        return "A3C-S[{}]: ops={} fps={:.1f} dsp={} feasible={}".format(
            self.game,
            ",".join(self.operator_names),
            self.accelerator_metrics.fps,
            self.accelerator_metrics.dsp_used,
            self.accelerator_metrics.feasible,
        )


class A3CSCoSearch:
    """Automated Agent-Accelerator Co-Search for one task (game).

    Parameters
    ----------
    game:
        Registered game name.
    config:
        An :class:`A3CSConfig`.
    teacher:
        Optional pre-trained teacher agent; trained on the fly (ResNet-20, per
        the paper) when omitted and distillation is enabled.
    """

    def __init__(self, game, config=None, teacher=None):
        self.game = game
        self.config = config if config is not None else A3CSConfig()
        self.teacher = teacher
        self.teacher_trainer = None
        self.searcher = None
        self.das = None
        self.penalty = None

    # ------------------------------------------------------------------ #
    # Construction of the moving parts
    # ------------------------------------------------------------------ #
    def _ensure_teacher(self):
        cfg = self.config
        if self.teacher is not None or cfg.distillation_mode == DistillationMode.NONE:
            return self.teacher
        self.teacher, self.teacher_trainer = train_teacher(
            self.game,
            backbone_name="ResNet-20",
            total_steps=cfg.teacher_steps,
            num_envs=cfg.num_envs,
            obs_size=cfg.obs_size,
            frame_stack=cfg.frame_stack,
            feature_dim=cfg.feature_dim,
            base_width=cfg.base_width,
            seed=cfg.seed,
            config_overrides={"eval_interval": 0},
        )
        return self.teacher

    def _build(self):
        cfg = self.config
        teacher = self._ensure_teacher()
        env_kwargs = {
            "obs_size": cfg.obs_size,
            "frame_stack": cfg.frame_stack,
            "max_episode_steps": cfg.max_episode_steps,
        }
        supernet_kwargs = {
            "input_size": cfg.obs_size,
            "in_channels": cfg.frame_stack,
            "feature_dim": cfg.feature_dim,
            "base_width": cfg.base_width,
            "num_cells": cfg.num_cells,
        }
        self.searcher = DRLArchitectureSearch(
            self.game,
            teacher=teacher,
            config=cfg.search_config(),
            env_kwargs=env_kwargs,
            supernet_kwargs=supernet_kwargs,
        )
        self.das = UnitGranularityDAS(
            num_units=self.searcher.supernet.num_cells + 2,
            device=cfg.device,
            config=cfg.das_config(),
        )
        self.penalty = HardwarePenalty(
            self.searcher.supernet, self.das, das_steps_per_call=cfg.das_steps_per_iteration
        )
        self.searcher.hardware_penalty = self.penalty
        # The DAS phi, optimiser and RNG ride in every searcher checkpoint, so
        # its autosaves and guard rollbacks cover both halves of the co-search.
        self.searcher.checkpoint_parts["das"] = self.das

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path):
        """Atomically persist the searcher *and* the DAS engine state.

        The searcher's checkpoint (supernet weights, both optimisers, alphas,
        RNG, counters) carries the unit-granularity DAS state under the
        ``das.`` prefix.  Requires the moving parts to be built (a checkpoint
        saved mid-:meth:`run`, e.g. by the autosave, always is).
        """
        if self.searcher is None:
            raise RuntimeError("co-search not built yet; nothing to checkpoint")
        return self.searcher.save_checkpoint(path)

    def load_checkpoint(self, path):
        """Restore a checkpoint written by :meth:`save_checkpoint` (in place).

        Builds the moving parts first when needed; the searcher validates the
        checkpoint against the combined layout (raising
        :class:`~repro.nn.serialization.CheckpointError` before any state is
        touched), then restores itself and the DAS engine.
        """
        if self.searcher is None:
            self._build()
        self.searcher.load_checkpoint(path)
        return self

    # ------------------------------------------------------------------ #
    # Main entry point
    # ------------------------------------------------------------------ #
    def run(self):
        """Run the full co-search and return an :class:`A3CSResult`."""
        cfg = self.config
        if self.searcher is None:
            self._build()

        search_result = self.searcher.search()
        op_indices = search_result.op_indices
        agent = self.searcher.derive_agent()
        agent.eval()
        # Pre-compile the derived agent's inference plan for the evaluation
        # geometry so downstream scoring (Fig. 3 / Table III consumers) hits
        # the tape-free runtime immediately instead of paying a first-call
        # compile inside a timed region.
        agent.runtime.plan_for((1, cfg.frame_stack, cfg.obs_size, cfg.obs_size))

        # Final accelerator search on the derived network at layer granularity,
        # warm-started from scratch (the unit-level phi guided the co-search;
        # the derivation step mirrors the paper's final DAS run on the agent).
        derived_backbone = agent.backbone
        final_das = DifferentiableAcceleratorSearch(
            derived_backbone, device=cfg.device, config=cfg.das_config()
        )
        das_result = final_das.search(steps=cfg.final_das_steps)

        teacher_score = 0.0
        if self.teacher_trainer is not None:
            teacher_score = self.teacher_trainer.mean_recent_return()

        return A3CSResult(
            game=self.game,
            op_indices=op_indices,
            operator_names=search_result.operator_names(),
            agent=agent,
            accelerator_config=das_result.best_config,
            accelerator_metrics=das_result.best_metrics,
            search_logger=search_result.logger,
            das_cost_history=list(self.penalty.history) if self.penalty is not None else [],
            teacher_score=teacher_score,
        )

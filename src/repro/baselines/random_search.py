"""Random-search baselines for both the agent and the accelerator space.

Differentiable search methods are conventionally compared against random
search over the same space and evaluation budget; these helpers implement
that comparison for the ablation benchmarks.  Agent-reward queries (scoring
a sampled architecture by playing episodes) are pure inference and run on
the tape-free :mod:`repro.runtime` engine via
:func:`make_rollout_score_fn`.
"""

from __future__ import annotations

import numpy as np

from ..accelerator.design_space import AcceleratorDesignSpace
from ..accelerator.predictor import PerformancePredictor
from ..networks.operators import CANDIDATE_OPERATORS

__all__ = [
    "random_architecture",
    "random_architecture_search",
    "random_accelerator_search",
    "make_rollout_score_fn",
]


def make_rollout_score_fn(agent, game, episodes=2, max_steps=120, seed=0, env_kwargs=None):
    """Build ``score_fn(op_indices) -> mean episode return`` for architecture search.

    ``agent`` must be an :class:`~repro.drl.agent.ActorCriticAgent` whose
    backbone is an :class:`~repro.networks.supernet.AgentSuperNet`; each
    candidate architecture is scored with the standard evaluation protocol
    along the fixed path (null-op starts disabled, short episodes).  Every
    per-step action query is served by the runtime engine's supernet plan,
    which every sampled path shares, so random search over many
    architectures never touches the autograd tape.
    """
    from ..drl.evaluation import evaluate_agent

    def score_fn(op_indices):
        return evaluate_agent(
            agent,
            game,
            episodes=episodes,
            null_op_max=0,
            seed=seed,
            env_kwargs=env_kwargs,
            max_steps_per_episode=max_steps,
            backbone_kwargs={"op_indices": [int(i) for i in op_indices]},
        )

    return score_fn


def random_architecture(num_cells, rng):
    """Sample one architecture (operator index per cell) uniformly."""
    return [int(rng.integers(len(CANDIDATE_OPERATORS))) for _ in range(num_cells)]


def random_architecture_search(score_fn, num_cells, trials, rng=None, seed=0):
    """Uniform random search over architectures.

    Parameters
    ----------
    score_fn:
        Callable ``score_fn(op_indices) -> float`` (higher is better).
    num_cells:
        Number of searchable cells.
    trials:
        Evaluation budget.

    Returns
    -------
    best_ops, best_score, history:
        The best architecture, its score, and the list of all scores.
    """
    rng = rng if rng is not None else np.random.default_rng(seed)
    best_ops = None
    best_score = -np.inf
    history = []
    for _ in range(trials):
        ops = random_architecture(num_cells, rng)
        score = float(score_fn(ops))
        history.append(score)
        if score > best_score:
            best_score = score
            best_ops = ops
    return best_ops, best_score, history


def random_accelerator_search(network_or_workloads, trials, device=None, objective="fps", seed=0,
                              max_chunks=4):
    """Uniform random search over the accelerator design space.

    Returns
    -------
    best_config, best_metrics, history:
        The best feasible configuration found, its metrics, and the cost
        history (one entry per trial).
    """
    from ..accelerator.fpga import ZC706

    device = device if device is not None else ZC706
    predictor = PerformancePredictor(device=device)
    workloads = PerformancePredictor._coerce(network_or_workloads)
    space = AcceleratorDesignSpace(num_layers=len(workloads), max_chunks=max_chunks)
    rng = np.random.default_rng(seed)
    best_cost = np.inf
    best_config = None
    best_metrics = None
    history = []
    for _ in range(trials):
        config = space.random_config(rng)
        metrics = predictor.predict(workloads, config)
        cost = metrics.cost(objective=objective)
        history.append(cost)
        if metrics.feasible and cost < best_cost:
            best_cost = cost
            best_config = config
            best_metrics = metrics
    if best_config is None:
        # Nothing feasible was sampled; return the cheapest infeasible design.
        order = int(np.argmin(history))
        rng = np.random.default_rng(seed)
        for index in range(order + 1):
            config = space.random_config(rng)
        best_config = config
        best_metrics = predictor.predict(workloads, config)
    return best_config, best_metrics, history

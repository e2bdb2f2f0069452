"""Ablation harnesses for the design choices DESIGN.md calls out.

These go beyond the paper's three tables / three figures and exercise the
knobs that the paper discusses but does not sweep explicitly:

* the number of activated backward paths K (Eq. 7),
* the activated-path hardware penalty (Eq. 8) vs an expected-cost penalty,
* the pipeline depth (number of chunks) of the accelerator template,
* search-space cardinality audits (9^12 agents, > 10^27 accelerators),
* DAS vs uniform random accelerator search at matched evaluation budgets.
"""

from __future__ import annotations

import numpy as np

from ..accelerator import (
    AcceleratorCostModel,
    AcceleratorDesignSpace,
    ChunkConfig,
    AcceleratorConfig,
    DASConfig,
    DifferentiableAcceleratorSearch,
    balanced_layer_assignment,
    extract_workload,
)
from ..baselines import random_accelerator_search
from ..drl import DistillationMode
from ..nas import DRLArchitectureSearch, SearchConfig
from ..networks import AgentSuperNet, CANDIDATE_OPERATORS
from .profiles import get_profile

__all__ = [
    "run_topk_ablation",
    "run_hw_penalty_ablation",
    "run_chunk_ablation",
    "run_search_space_audit",
    "run_das_vs_random",
]


def run_topk_ablation(profile=None, game="Breakout", k_values=(1, 2, 4)):
    """Sweep the number of activated backward paths K (Eq. 7).

    Returns one row per K with the final derived-architecture entropy, the
    recent training return, and the wall-clock proxy (number of updates).
    """
    profile = profile if profile is not None else get_profile()
    rows = []
    for k in k_values:
        config = SearchConfig(
            total_steps=profile.search_steps,
            num_envs=profile.num_envs,
            distillation_mode=DistillationMode.NONE,
            num_backward_paths=k,
            seed=profile.seed,
        )
        searcher = DRLArchitectureSearch(
            game,
            config=config,
            env_kwargs={
                "obs_size": profile.obs_size,
                "frame_stack": profile.frame_stack,
                "max_episode_steps": profile.max_episode_steps,
            },
            supernet_kwargs={
                "input_size": profile.obs_size,
                "in_channels": profile.frame_stack,
                "feature_dim": profile.feature_dim,
                "base_width": profile.base_width,
            },
        )
        result = searcher.search()
        rows.append(
            {
                "k": k,
                "alpha_entropy": result.final_entropy,
                "train_return": searcher.mean_recent_return(),
                "updates": searcher.updates,
                "derived_ops": ",".join(result.operator_names()),
            }
        )
    return rows


def run_hw_penalty_ablation(profile=None, penalty_weights=(0.0, 0.1, 1.0), seed=None):
    """Effect of the hardware-penalty weight ``lambda`` on the derived agent cost.

    A supernet's candidate MAC table provides the per-cell cost; an expected-
    cost penalty over the architecture distribution is minimised directly (no
    environment interaction), isolating the penalty's pull towards cheaper
    operators as ``lambda`` grows.
    """
    profile = profile if profile is not None else get_profile()
    seed = profile.seed if seed is None else seed
    from ..nas.arch_params import ArchitectureParameters
    from ..nn import Adam

    supernet = AgentSuperNet(
        in_channels=profile.frame_stack,
        input_size=profile.obs_size,
        feature_dim=profile.feature_dim,
        base_width=profile.base_width,
        rng=np.random.default_rng(seed),
    )
    macs_table = supernet.candidate_macs_table()
    macs_table = macs_table / macs_table.max()
    rows = []
    for weight in penalty_weights:
        arch = ArchitectureParameters(
            supernet.num_cells, supernet.num_choices_per_cell, rng=np.random.default_rng(seed)
        )
        optimizer = Adam(arch.parameters(), lr=0.05)
        for _ in range(100):
            # Pure hardware objective: expected cost under the current alpha.
            loss = arch.expected_cost(macs_table) * weight
            if weight == 0.0:
                break
            arch.zero_grad()
            loss.backward()
            optimizer.step()
        op_indices = arch.derive()
        flops = supernet.flops(op_indices)
        rows.append(
            {
                "penalty_weight": weight,
                "derived_flops": flops,
                "derived_ops": ",".join(CANDIDATE_OPERATORS[i].name for i in op_indices),
            }
        )
    return rows


def run_chunk_ablation(network, chunk_counts=(1, 2, 3, 4), pe_array=(8, 16)):
    """Sweep the pipeline depth of the accelerator template for one network."""
    workloads = extract_workload(network)
    cost_model = AcceleratorCostModel()
    rows = []
    for num_chunks in chunk_counts:
        chunks = [
            ChunkConfig(
                pe_rows=pe_array[0],
                pe_cols=pe_array[1],
                noc="systolic",
                dataflow="weight_stationary",
                buffer_kb=256.0,
                tile_oc=16,
                tile_ic=16,
                tile_spatial=8,
            )
            for _ in range(num_chunks)
        ]
        config = AcceleratorConfig(
            chunks=chunks, layer_assignment=balanced_layer_assignment(workloads, num_chunks)
        )
        metrics = cost_model.evaluate(workloads, config)
        rows.append(
            {
                "chunks": num_chunks,
                "fps": metrics.fps,
                "latency_ms": metrics.latency_ms,
                "dsp": metrics.dsp_used,
                "feasible": metrics.feasible,
            }
        )
    return rows


def run_search_space_audit(num_layers=16, num_cells=12, max_chunks=4):
    """Audit the cardinality claims: 9^12 agents and > 10^27 accelerators."""
    agent_space = len(CANDIDATE_OPERATORS) ** num_cells
    accel_space = AcceleratorDesignSpace(num_layers=num_layers, max_chunks=max_chunks).space_size()
    return {
        "agent_space": agent_space,
        "agent_space_meets_paper": agent_space == 9 ** 12,
        "accelerator_space": accel_space,
        "accelerator_space_exceeds_1e27": accel_space > 1e27,
        "joint_space": agent_space * accel_space,
    }


def run_das_vs_random(network, steps=120, seed=0):
    """DAS against uniform random search at a matched evaluation budget."""
    das = DifferentiableAcceleratorSearch(network, config=DASConfig(seed=seed, objective="fps"))
    das_result = das.search(steps=steps)
    _, random_metrics, _ = random_accelerator_search(network, trials=steps, objective="fps", seed=seed)
    return {
        "das_fps": das_result.fps,
        "random_fps": random_metrics.fps,
        "das_wins": das_result.fps >= random_metrics.fps,
        "das_dsp": das_result.best_metrics.dsp_used,
        "random_dsp": random_metrics.dsp_used,
    }

"""Stacked-path compilation: K sampled paths in one plan == K per-path plans."""

import numpy as np
import pytest

from repro.drl.agent import ActorCriticAgent
from repro.nas.search import DRLArchitectureSearch, SearchConfig
from repro.networks import AgentSuperNet
from repro.runtime import CompileError, CompiledTrainStep, cache_stats, compile_plan

ATOL = 1e-12


def build_agent(seed=0):
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                             rng=np.random.default_rng(seed))
    agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                             rng=np.random.default_rng(seed))
    agent.train()
    return agent


def sample_paths(num_samples, num_cells=12, num_choices=9, paths_per_cell=2):
    """Deterministic active sets + gate values for ``num_samples`` samples."""
    actives, gate_values = [], []
    for k in range(num_samples):
        r = np.random.default_rng(100 + k)
        actives.append(
            [sorted(int(i) for i in r.choice(num_choices, size=paths_per_cell, replace=False))
             for _ in range(num_cells)]
        )
        gate_values.append([r.random(paths_per_cell) for _ in range(num_cells)])
    union = [
        tuple(sorted(set().union(*[set(actives[k][c]) for k in range(num_samples)])))
        for c in range(num_cells)
    ]
    stacked = []
    for c in range(num_cells):
        values = np.zeros((num_samples, len(union[c])))
        for k in range(num_samples):
            for j, i in enumerate(actives[k][c]):
                values[k, union[c].index(i)] = gate_values[k][c][j]
        stacked.append(values)
    return actives, gate_values, union, stacked


def make_batch(rng, batch=5):
    return {
        "observations": rng.random((batch, 2, 28, 28)),
        "actions": rng.integers(0, 6, size=batch),
        "returns": rng.standard_normal(batch),
        "advantages": rng.standard_normal(batch),
    }


class TestStackedGradientParity:
    @pytest.mark.parametrize("num_samples", [2, 3])
    def test_stacked_equals_mean_of_per_path_compilations(self, rng, num_samples):
        actives, gate_values, union, stacked = sample_paths(num_samples)
        batch = make_batch(rng)
        args = (batch["observations"], batch["actions"], batch["returns"], batch["advantages"])

        reference_agent = build_agent()
        reference_step = CompiledTrainStep(reference_agent, max_plans=num_samples + 1)
        mean_grads = {}
        per_path_gates = []
        total = 0.0
        for k in range(num_samples):
            plan, result = reference_step.compute_gradients(
                *args, gated_paths=[tuple(c) for c in actives[k]], gate_values=gate_values[k]
            )
            total += result.total / num_samples
            per_path_gates.append([g.copy() for g in result.gate_grads])
            for name, p in reference_agent.named_parameters():
                grad = plan.param_grad(p)
                if grad is not None:
                    mean_grads[name] = mean_grads.get(name, 0.0) + grad / num_samples

        stacked_agent = build_agent()
        stacked_step = CompiledTrainStep(stacked_agent)
        stacked_plan, stacked_result = stacked_step.compute_gradients(
            *args, gated_paths=union, gate_values=stacked, num_samples=num_samples
        )
        assert stacked_plan.num_samples == num_samples
        assert abs(stacked_result.total - total) <= ATOL

        compared = 0
        for name, p in stacked_agent.named_parameters():
            grad = stacked_plan.param_grad(p)
            reference = mean_grads.get(name)
            if reference is None:
                assert grad is None or np.abs(grad).max() == 0.0, name
                continue
            assert grad is not None, name
            np.testing.assert_allclose(grad, reference, atol=ATOL, err_msg=name)
            compared += 1
        assert compared > 0

        # Shared-trunk (stem) BN running statistics stay on the per-path
        # trajectory: the stacked plan repeats the EMA K times per run.
        # (Branch BN buffers legitimately diverge: the stacked plan computes
        # group statistics for every union branch on all K groups.)
        reference_state = reference_agent.state_dict()
        stacked_state = stacked_agent.state_dict()
        stem_keys = [key for key in reference_state
                     if key.startswith("buffer.backbone.stem.")]
        assert stem_keys
        for key in stem_keys:
            np.testing.assert_allclose(
                stacked_state[key], reference_state[key], atol=ATOL, err_msg=key
            )

        # Per-sample gate gradients: the stacked loss averages over K, so
        # K * stacked-grad equals each per-path compilation's gradient for
        # the branches that sample activated.
        for c, cell in enumerate(stacked_result.gate_layout):
            for k in range(num_samples):
                for j, i in enumerate(actives[k][c]):
                    position = cell.index(i)
                    np.testing.assert_allclose(
                        stacked_result.gate_grads[c][k, position] * num_samples,
                        per_path_gates[k][c][j],
                        atol=ATOL,
                    )

    def test_stacked_requires_gated_paths(self):
        agent = build_agent()
        with pytest.raises(CompileError):
            compile_plan(agent, (4, 2, 28, 28), train=True, num_samples=3)

    def test_distillation_terms_tile_across_samples(self, rng):
        actives, gate_values, union, stacked = sample_paths(2)
        batch = make_batch(rng)
        teacher_probs = rng.dirichlet(np.ones(6), size=5)
        teacher_values = rng.standard_normal(5)
        args = (batch["observations"], batch["actions"], batch["returns"], batch["advantages"])

        reference_agent = build_agent()
        reference_step = CompiledTrainStep(reference_agent, max_plans=3)
        mean_grads = {}
        for k in range(2):
            plan, _ = reference_step.compute_gradients(
                *args, gated_paths=[tuple(c) for c in actives[k]], gate_values=gate_values[k],
                teacher_probs=teacher_probs, teacher_values=teacher_values,
            )
            for name, p in reference_agent.named_parameters():
                grad = plan.param_grad(p)
                if grad is not None:
                    mean_grads[name] = mean_grads.get(name, 0.0) + grad / 2
        stacked_agent = build_agent()
        stacked_plan, result = CompiledTrainStep(stacked_agent).compute_gradients(
            *args, gated_paths=union, gate_values=stacked, num_samples=2,
            teacher_probs=teacher_probs, teacher_values=teacher_values,
        )
        assert "actor_distill" in result.components
        for name, p in stacked_agent.named_parameters():
            reference = mean_grads.get(name)
            if reference is None:
                continue
            np.testing.assert_allclose(
                stacked_plan.param_grad(p), reference, atol=ATOL, err_msg=name
            )


class TestStackedSearchIntegration:
    def _run_search(self, use_compiled):
        config = SearchConfig(
            total_steps=64, num_envs=2, rollout_length=4, grad_samples=2, seed=3,
            use_compiled_train=use_compiled,
        )
        search = DRLArchitectureSearch(
            "Breakout", config=config,
            env_kwargs={"obs_size": 21, "frame_stack": 2},
            supernet_kwargs={"feature_dim": 32, "base_width": 4},
        )
        return search, search.search()

    def test_compiled_stacked_search_runs(self):
        before = cache_stats()
        search, result = self._run_search(use_compiled=True)
        after = cache_stats()
        assert search.updates > 0
        assert len(result.op_indices) == 12
        assert np.isfinite(result.final_entropy)
        # One stacked compile per new union signature; cache stats observable.
        assert after["train_plans"]["cache_misses"] - before["train_plans"]["cache_misses"] >= 1
        assert after["buffer_pools"]["bytes_fresh"] > before["buffer_pools"]["bytes_fresh"]

    def test_eager_fallback_stacked_search_runs(self):
        search, result = self._run_search(use_compiled=False)
        assert search.updates > 0
        assert len(result.op_indices) == 12
        assert np.isfinite(result.final_entropy)

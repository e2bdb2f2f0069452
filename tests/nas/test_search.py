"""DNAS-for-DRL search loop tests (one-level, bi-level, Direct-NAS)."""

import numpy as np
import pytest

from repro.cosearch import A3CSConfig, A3CSCoSearch
from repro.drl import DistillationMode, train_teacher
from repro.nas import DRLArchitectureSearch, OptimizationScheme, SearchConfig
from repro.networks import CANDIDATE_OPERATORS

ENV_KW = {"obs_size": 21, "frame_stack": 2, "max_episode_steps": 60}
SUPERNET_KW = {"input_size": 21, "in_channels": 2, "feature_dim": 32, "base_width": 4, "num_cells": 6}


def make_searcher(scheme=OptimizationScheme.ONE_LEVEL, mode=DistillationMode.NONE, teacher=None,
                  total_steps=80, hw_penalty=None, hw_weight=0.0, seed=0):
    config = SearchConfig(
        total_steps=total_steps,
        num_envs=2,
        distillation_mode=mode,
        scheme=scheme,
        hw_penalty_weight=hw_weight,
        seed=seed,
    )
    return DRLArchitectureSearch(
        "Breakout",
        teacher=teacher,
        config=config,
        hardware_penalty=hw_penalty,
        env_kwargs=ENV_KW,
        supernet_kwargs=SUPERNET_KW,
    )


class TestSchemeValidation:
    def test_valid_schemes(self):
        assert OptimizationScheme.validate("one-level") == "one-level"
        assert OptimizationScheme.validate("bi-level") == "bi-level"

    def test_invalid_scheme_raises(self):
        with pytest.raises(ValueError):
            OptimizationScheme.validate("tri-level")
        with pytest.raises(ValueError):
            make_searcher(scheme="tri-level")


class TestGradSamplesValidation:
    @pytest.mark.parametrize("grad_samples", [0, -1])
    def test_fewer_than_one_sample_raises_at_construction(self, grad_samples):
        for config in (SearchConfig(num_envs=2, grad_samples=grad_samples),
                       A3CSConfig(num_envs=2, grad_samples=grad_samples).search_config()):
            with pytest.raises(ValueError, match="grad_samples"):
                DRLArchitectureSearch("Breakout", config=config, env_kwargs=ENV_KW,
                                      supernet_kwargs=SUPERNET_KW)


class TestOneLevelSearch:
    def test_search_produces_architecture(self):
        searcher = make_searcher(total_steps=60)
        result = searcher.search()
        assert len(result.op_indices) == 6
        assert all(0 <= i < len(CANDIDATE_OPERATORS) for i in result.op_indices)
        assert result.total_env_steps >= 60

    def test_alpha_and_weights_both_updated(self):
        searcher = make_searcher(total_steps=60)
        alpha_before = [a.data.copy() for a in searcher.arch.alphas]
        weight_before = searcher.agent.policy_head.weight.data.copy()
        searcher.search()
        alpha_changed = any(
            not np.allclose(before, after.data) for before, after in zip(alpha_before, searcher.arch.alphas)
        )
        assert alpha_changed
        assert not np.allclose(weight_before, searcher.agent.policy_head.weight.data)

    def test_logger_series_present(self):
        result = make_searcher(total_steps=60).search()
        for name in ("loss/total", "loss/policy", "loss/value", "alpha_entropy"):
            steps, values = result.logger.series(name)
            assert values, name

    @pytest.mark.parametrize("kind", ["search", "cosearch"])
    def test_entropy_deficit_logged_per_update(self, kind):
        """``alpha/entropy_deficit`` = ln(#candidates) - mean cell entropy, per update."""
        if kind == "search":
            searcher = make_searcher(total_steps=20)
        else:
            config = A3CSConfig(obs_size=21, num_envs=2, num_cells=6, base_width=4,
                                feature_dim=32, max_episode_steps=60,
                                distillation_mode=DistillationMode.NONE, seed=0)
            cosearch = A3CSCoSearch("Breakout", config=config)
            cosearch._build()
            searcher = cosearch.searcher
        searcher.search(total_steps=20)
        _, deficits = searcher.logger.series("alpha/entropy_deficit")
        _, entropies = searcher.logger.series("alpha_entropy")
        assert len(deficits) == len(entropies) == searcher.updates > 1
        np.testing.assert_allclose(
            deficits, np.log(searcher.arch.num_choices) - np.asarray(entropies), rtol=0, atol=1e-15)
        assert deficits[-1] == pytest.approx(np.log(9) - searcher.arch.entropy(), abs=1e-15)
        assert min(deficits) > -1e-12

    def test_operator_names_resolve(self):
        result = make_searcher(total_steps=40).search()
        names = result.operator_names()
        assert len(names) == 6
        assert set(names) <= {spec.name for spec in CANDIDATE_OPERATORS}

    def test_derive_agent_runs_standalone(self, rng):
        searcher = make_searcher(total_steps=40)
        searcher.search()
        agent = searcher.derive_agent()
        actions, values = agent.act(rng.standard_normal((2, 2, 21, 21)), rng)
        assert actions.shape == (2,)

    def test_distillation_mode_logged(self):
        teacher, _ = train_teacher(
            "Breakout", backbone_name="Vanilla", total_steps=40, num_envs=2,
            obs_size=21, frame_stack=2, feature_dim=32, seed=1,
        )
        searcher = make_searcher(mode=DistillationMode.AC, teacher=teacher, total_steps=60)
        result = searcher.search()
        _, values = result.logger.series("loss/actor_distill")
        assert any(v != 0.0 for v in values)


class TestBiLevelSearch:
    def test_bi_level_runs_and_derives(self):
        searcher = make_searcher(scheme=OptimizationScheme.BI_LEVEL, total_steps=80)
        result = searcher.search()
        assert len(result.op_indices) == 6

    def test_bi_level_consumes_more_env_steps_per_update(self):
        one = make_searcher(scheme=OptimizationScheme.ONE_LEVEL, total_steps=80)
        one.search()
        bi = make_searcher(scheme=OptimizationScheme.BI_LEVEL, total_steps=80)
        bi.search()
        # Bi-level needs a second ("validation") rollout per update.
        assert bi.total_env_steps / max(bi.updates, 1) > one.total_env_steps / max(one.updates, 1)


class TestHardwarePenaltyHook:
    def test_hook_called_and_logged(self):
        calls = []

        def penalty(sampled_indices):
            calls.append(sampled_indices)
            return [0.5] * len(sampled_indices)

        searcher = make_searcher(total_steps=60, hw_penalty=penalty, hw_weight=0.5)
        result = searcher.search()
        assert calls
        _, values = result.logger.series("loss/hw_penalty")
        assert values and all(v > 0 for v in values)

    def test_zero_weight_skips_hook(self):
        calls = []

        def penalty(sampled_indices):
            calls.append(1)
            return None

        searcher = make_searcher(total_steps=40, hw_penalty=penalty, hw_weight=0.0)
        searcher.search()
        assert not calls

    def test_penalty_steers_alpha_towards_cheap_ops(self):
        """With a huge penalty on non-skip operators, alpha should drift toward skip."""
        skip_index = [i for i, s in enumerate(CANDIDATE_OPERATORS) if s.name == "skip"][0]

        def penalty(sampled_indices):
            return [0.0 if int(index) == skip_index else 1.0 for index in sampled_indices]

        searcher = make_searcher(total_steps=150, hw_penalty=penalty, hw_weight=50.0, seed=3)
        before_prob = searcher.arch.probabilities()[:, skip_index].mean()
        searcher.search()
        after_prob = searcher.arch.probabilities()[:, skip_index].mean()
        assert after_prob > before_prob

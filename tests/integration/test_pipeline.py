"""End-to-end integration tests across subsystems (tiny scale).

These exercise the same code paths as the benchmark harness, at budgets small
enough for the unit-test suite: training -> evaluation -> accelerator search ->
co-search -> reporting.
"""

import numpy as np

from repro.accelerator import DASConfig, DNNBuilderAccelerator, DifferentiableAcceleratorSearch
from repro.cosearch import A3CSCoSearch, A3CSConfig
from repro.drl import DistillationMode, evaluate_agent
from repro.experiments import format_table1, format_table2, run_table1, run_table2
from repro.experiments.runners import train_backbone_agent


class TestTrainingToAccelerator:
    def test_trained_agent_to_das_to_dnnbuilder(self, tiny_profile):
        result = train_backbone_agent("Breakout", "Vanilla", tiny_profile, total_steps=60)
        agent = result["agent"]
        das = DifferentiableAcceleratorSearch(agent.backbone, config=DASConfig(seed=0, objective="fps"))
        searched = das.search(steps=25)
        baseline = DNNBuilderAccelerator(agent.backbone)
        assert searched.best_metrics.feasible
        assert searched.fps > 0 and baseline.fps > 0

    def test_distilled_training_improves_or_matches_stability(self, tiny_profile):
        plain = train_backbone_agent(
            "Breakout", "Vanilla", tiny_profile, total_steps=60, distillation_mode=DistillationMode.NONE
        )
        distilled = train_backbone_agent(
            "Breakout", "Vanilla", tiny_profile, total_steps=60, distillation_mode=DistillationMode.AC,
            teacher=plain["agent"],
        )
        # Both runs must produce finite scores; the distilled run logs extra losses.
        assert np.isfinite(plain["score"]) and np.isfinite(distilled["score"])
        assert distilled["trainer"].logger.latest("loss/actor_distill") is not None


class TestExperimentHarnessSmoke:
    def test_table1_harness_rows_and_formatting(self, tiny_profile):
        rows = run_table1(tiny_profile, games=["Breakout"], backbones=["Vanilla", "ResNet-14"])
        assert len(rows) == 2
        text = format_table1(rows)
        assert "Breakout" in text and "ResNet-14" in text
        assert all(row["flops"] > 0 and row["params"] > 0 for row in rows)
        assert all(np.isfinite(row["score"]) for row in rows)

    def test_table2_harness_rows(self, tiny_profile):
        rows = run_table2(tiny_profile, games=["Breakout"], backbones=("Vanilla",))
        assert len(rows) == 1
        row = rows[0]
        for mode in ("none", "policy", "ac"):
            assert np.isfinite(row[mode])
        assert "paper_ac" in row
        assert "AC-distillation" in format_table2(rows) or "ac" in format_table2(rows)


class TestCoSearchIntegration:
    def test_cosearch_then_evaluate_and_compare(self, tiny_profile):
        config = A3CSConfig(
            obs_size=tiny_profile.obs_size,
            frame_stack=tiny_profile.frame_stack,
            max_episode_steps=tiny_profile.max_episode_steps,
            num_envs=tiny_profile.num_envs,
            base_width=tiny_profile.base_width,
            feature_dim=tiny_profile.feature_dim,
            num_cells=6,
            search_steps=50,
            teacher_steps=40,
            final_das_steps=20,
            seed=0,
        )
        result = A3CSCoSearch("Breakout", config=config).run()
        score = evaluate_agent(
            result.agent,
            "Breakout",
            episodes=1,
            seed=0,
            env_kwargs={
                "obs_size": tiny_profile.obs_size,
                "frame_stack": tiny_profile.frame_stack,
                "max_episode_steps": tiny_profile.max_episode_steps,
            },
        )
        assert np.isfinite(score)
        # The co-searched accelerator must fit the ZC706 budget and beat
        # DNNBuilder on the same derived agent (the Fig. 3 shape).
        baseline = DNNBuilderAccelerator(result.agent.backbone)
        assert result.accelerator_metrics.dsp_used <= 900
        assert result.fps > baseline.fps

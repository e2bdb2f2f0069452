"""Baseline tests: FA3C reference data, random search, manual designs."""

import pytest

from repro.baselines import (
    A3CS_PAPER_REPORTED,
    FA3C_REPORTED,
    FA3CBaseline,
    MANUAL_ACCELERATOR_RECIPES,
    build_manual_accelerator,
    fa3c_reported_games,
    random_accelerator_search,
    random_architecture,
    random_architecture_search,
)
from repro.networks import CANDIDATE_OPERATORS, VanillaNet


class TestFA3CReference:
    def test_six_games_reported(self):
        assert len(FA3C_REPORTED) == 6
        assert set(fa3c_reported_games()) == {
            "BeamRider", "Breakout", "Pong", "Qbert", "Seaquest", "SpaceInvaders",
        }

    def test_fa3c_fps_constant_260(self):
        assert all(entry.fps == 260.0 for entry in FA3C_REPORTED.values())

    def test_paper_a3cs_always_beats_fa3c(self):
        """Table III claim: A3C-S reports higher scores and 2.1-6.1x FPS."""
        for game, fa3c in FA3C_REPORTED.items():
            a3cs = A3CS_PAPER_REPORTED[game]
            assert a3cs.score > fa3c.score
            assert 2.0 <= a3cs.fps / fa3c.fps <= 6.2

    def test_reported_lookup(self):
        assert FA3CBaseline.reported("Pong").fps == 260.0
        with pytest.raises(KeyError):
            FA3CBaseline.reported("Alien")

    def test_modelled_fa3c_accelerator(self):
        baseline = FA3CBaseline(VanillaNet(in_channels=2, input_size=42, feature_dim=64))
        assert baseline.fps > 0
        assert baseline.metrics.feasible
        assert baseline.config.num_chunks == 1  # monolithic engine, no layer pipeline


class TestRandomSearch:
    def test_random_architecture_valid(self, rng):
        ops = random_architecture(12, rng)
        assert len(ops) == 12
        assert all(0 <= op < len(CANDIDATE_OPERATORS) for op in ops)

    def test_random_architecture_search_maximises(self, rng):
        # Score = number of skip ops; the best found must be at least the average.
        skip_index = [i for i, s in enumerate(CANDIDATE_OPERATORS) if s.name == "skip"][0]

        def score(ops):
            return sum(1 for op in ops if op == skip_index)

        best_ops, best_score, history = random_architecture_search(score, num_cells=6, trials=40, seed=0)
        assert best_score == max(history)
        assert score(best_ops) == best_score

    def test_random_accelerator_search_returns_feasible(self):
        net = VanillaNet(in_channels=2, input_size=42, feature_dim=64)
        config, metrics, history = random_accelerator_search(net, trials=30, seed=0)
        assert len(history) == 30
        assert metrics.fps > 0


class TestManualDesigns:
    def test_recipe_catalogue_nonempty(self):
        assert len(MANUAL_ACCELERATOR_RECIPES) >= 4

    def test_recipes_have_expected_chunk_counts(self):
        net = VanillaNet(in_channels=2, input_size=42, feature_dim=64)
        for name, spec in MANUAL_ACCELERATOR_RECIPES.items():
            config = build_manual_accelerator(net, name)
            assert config.num_chunks == spec["num_chunks"]
            assert len(config.layer_assignment) == 4

"""Co-search tests: hardware coupling, Pareto utilities, and Algorithm 1 end-to-end."""

import numpy as np
import pytest

from repro.accelerator import DASConfig
from repro.cosearch import (
    A3CSCoSearch,
    A3CSConfig,
    HardwarePenalty,
    UnitGranularityDAS,
    dominates,
    hypervolume_2d,
    pareto_front,
    unit_of_layer_map,
)
from repro.drl import DistillationMode
from repro.networks import AgentSuperNet


@pytest.fixture
def supernet():
    return AgentSuperNet(in_channels=2, input_size=21, feature_dim=32, num_cells=6, base_width=4,
                         rng=np.random.default_rng(0))


class TestUnitMapping:
    def test_stem_cells_fc_mapping(self, supernet):
        specs = supernet.layer_specs([3] * 6)  # inverted residuals expand to several convs
        units = unit_of_layer_map(specs, supernet.num_cells)
        assert units[0] == 0  # stem
        assert units[-1] == supernet.num_cells + 1  # fc
        assert set(units[1:-1]) <= set(range(1, supernet.num_cells + 1))

    def test_every_cell_with_compute_appears(self, supernet):
        specs = supernet.layer_specs([0] * 6)
        units = unit_of_layer_map(specs, supernet.num_cells)
        assert set(units) == {0, 7} | set(range(1, 7))

    def test_unknown_layer_name_raises(self, supernet):
        with pytest.raises(ValueError):
            unit_of_layer_map([{"name": "mystery", "type": "conv"}], supernet.num_cells)


class TestUnitGranularityDAS:
    def test_phi_dimensions_fixed_by_units(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        layer_dims = [name for name in das.phi if name.startswith("layer")]
        assert len(layer_dims) == supernet.num_cells + 2

    def test_set_network_and_step_across_architectures(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        for ops in ([0] * 6, [3] * 6, [8] * 6):
            specs = supernet.layer_specs(ops)
            das.set_network(specs, unit_of_layer_map(specs, supernet.num_cells))
            config, metrics, cost = das.step()
            assert metrics.fps > 0
            assert len(config.layer_assignment) == len(specs)

    def test_set_network_length_mismatch_raises(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        specs = supernet.layer_specs([0] * 6)
        with pytest.raises(ValueError):
            das.set_network(specs, [0, 1])


class TestHardwarePenalty:
    def test_penalty_charges_each_cell_its_latency(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        penalty = HardwarePenalty(supernet, das, das_steps_per_call=1)
        sampled = [0, 1, 2, 3, 4, 5]
        costs = penalty(sampled)
        np.testing.assert_array_equal(costs, penalty.cell_latencies(sampled, penalty.last_config))
        assert (costs > 0).all()
        assert penalty.last_metrics is not None
        assert len(penalty.history) == 1

    def test_one_layer_specs_build_per_update(self, supernet, monkeypatch):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        penalty = HardwarePenalty(supernet, das)
        real, calls = supernet.layer_specs, []
        monkeypatch.setattr(supernet, "layer_specs", lambda ops: calls.append(ops) or real(ops))
        for sampled in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]):
            penalty(sampled)
        assert calls == [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]]

    def test_cell_latencies_normalised(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        penalty = HardwarePenalty(supernet, das)
        config, _ = penalty.update_accelerator([0] * 6)
        latencies = penalty.cell_latencies([0] * 6, config)
        assert latencies.shape == (6,)
        assert 0.0 <= latencies.sum() <= 1.0 + 1e-9

    def test_expensive_ops_incur_larger_penalty(self, supernet):
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        penalty = HardwarePenalty(supernet, das)
        config, _ = penalty.update_accelerator([1] * 6)  # conv_k5 everywhere
        heavy = penalty.cell_latencies([1] * 6, config).sum()
        config, _ = penalty.update_accelerator([8] * 6)  # skip everywhere
        light = penalty.cell_latencies([8] * 6, config).sum()
        assert heavy >= light


class TestPareto:
    def test_dominates(self):
        assert dominates((2, 2), (1, 2))
        assert not dominates((1, 2), (2, 1))
        assert not dominates((1, 1), (1, 1))

    def test_pareto_front_indices(self):
        points = [(1, 5), (2, 4), (3, 1), (2, 5), (0, 0)]
        # (2,5) dominates (1,5) and (2,4); (3,1) survives on the x axis; (0,0) is dominated.
        assert set(pareto_front(points)) == {2, 3}

    def test_hypervolume_positive_and_monotone(self):
        small = hypervolume_2d([(1.0, 1.0)])
        large = hypervolume_2d([(2.0, 2.0)])
        assert 0 < small < large

    def test_hypervolume_of_front_vs_dominated(self):
        assert hypervolume_2d([(2.0, 2.0), (1.0, 1.0)]) == hypervolume_2d([(2.0, 2.0)])


class TestA3CSCoSearchEndToEnd:
    def test_tiny_cosearch_run(self):
        config = A3CSConfig(
            obs_size=21,
            frame_stack=2,
            max_episode_steps=60,
            num_envs=2,
            base_width=4,
            feature_dim=32,
            num_cells=6,
            search_steps=60,
            teacher_steps=40,
            final_das_steps=20,
            das_steps_per_iteration=1,
            seed=0,
        )
        result = A3CSCoSearch("Breakout", config=config).run()
        assert len(result.op_indices) == 6
        assert result.accelerator_metrics.feasible
        assert result.fps > 0
        assert result.das_cost_history  # phi was updated during the co-search
        assert "A3C-S" in result.summary()

    def test_cosearch_without_distillation_skips_teacher(self):
        config = A3CSConfig(
            obs_size=21,
            frame_stack=2,
            max_episode_steps=60,
            num_envs=2,
            base_width=4,
            feature_dim=32,
            num_cells=6,
            search_steps=40,
            final_das_steps=15,
            distillation_mode=DistillationMode.NONE,
            seed=0,
        )
        cosearch = A3CSCoSearch("Breakout", config=config)
        result = cosearch.run()
        assert cosearch.teacher is None
        assert result.teacher_score == 0.0

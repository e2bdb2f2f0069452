"""Gumbel-Softmax machinery and architecture-parameter tests."""

import numpy as np
import pytest

from repro.nas import (
    ArchitectureParameters,
    GumbelFamily,
    TemperatureSchedule,
    sample_gumbel,
    top_k_active,
)
from repro.nn import Parameter, Tensor


class TestGumbelSampling:
    def test_gumbel_noise_shape(self, rng):
        assert sample_gumbel((4, 9), rng).shape == (4, 9)

    def test_soft_sample_is_distribution(self, rng):
        logits = Tensor(rng.standard_normal(9))
        soft = GumbelFamily([logits]).sample(1.0, rng).soft
        assert soft.sum() == pytest.approx(1.0)
        assert (soft >= 0).all()

    def test_low_temperature_concentrates(self):
        family = GumbelFamily([Tensor(np.array([5.0, 0.0, -5.0]))])
        # The same seed draws the same noise at both temperatures.
        hot = family.sample(10.0, np.random.default_rng(0)).soft
        cold = family.sample(0.1, np.random.default_rng(0)).soft
        assert cold.max() > hot.max()

    def test_hard_sample_is_one_hot(self, rng):
        draw = GumbelFamily([Parameter(rng.standard_normal(9))]).sample(1.0, rng)
        gate, index = draw[0], draw.index[0]
        assert gate.data.sum() == pytest.approx(1.0)
        assert gate.data[index] == pytest.approx(1.0)
        assert np.count_nonzero(gate.data) == 1

    def test_hard_sample_index_matches_soft_argmax(self, rng):
        draw = GumbelFamily([Parameter(rng.standard_normal(9))]).sample(1.0, rng)
        assert draw.index[0] == int(np.argmax(draw.soft))

    def test_straight_through_gradient_flows_to_logits(self, rng):
        logits = Parameter(np.zeros(5))
        gate = GumbelFamily([logits]).sample(1.0, rng)[0]
        (gate * Tensor(np.arange(5.0))).sum().backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0)

    def test_strong_logit_dominates_sampling(self, rng):
        family = GumbelFamily([Parameter(np.array([10.0, -10.0, -10.0]))])
        counts = np.zeros(3)
        for _ in range(50):
            counts[family.sample(0.5, rng).index[0]] += 1
        assert counts[0] > 40


class TestTopK:
    def test_top_k_selects_highest(self):
        probs = np.array([0.1, 0.5, 0.3, 0.1])
        assert top_k_active(probs, 2) == [1, 2]

    def test_always_include_sampled_path(self):
        probs = np.array([0.5, 0.4, 0.05, 0.05])
        active = top_k_active(probs, 2, always_include=3)
        assert 3 in active
        assert len(active) == 2

    def test_k_clipped_to_valid_range(self):
        probs = np.array([0.2, 0.8])
        assert len(top_k_active(probs, 10)) == 2
        assert len(top_k_active(probs, 0)) == 1

    def test_accepts_tensor_input(self, rng):
        probs = Tensor(np.array([0.7, 0.2, 0.1]))
        assert top_k_active(probs, 1) == [0]


class TestTemperatureSchedule:
    def test_paper_defaults(self):
        schedule = TemperatureSchedule()
        assert schedule.value(0) == 5.0
        assert schedule.value(int(1e5)) == pytest.approx(5.0 * 0.98)

    def test_monotone_decay(self):
        schedule = TemperatureSchedule(initial=5.0, decay=0.9, decay_interval=10)
        values = [schedule.value(step) for step in range(0, 100, 10)]
        assert values == sorted(values, reverse=True)

    def test_floor(self):
        schedule = TemperatureSchedule(initial=1.0, decay=0.5, decay_interval=1, min_temperature=0.3)
        assert schedule.value(1000) == 0.3


class TestArchitectureParameters:
    def test_parameter_shapes(self):
        arch = ArchitectureParameters(12, 9)
        assert len(arch.parameters()) == 12
        assert all(p.data.shape == (9,) for p in arch.parameters())

    def test_sample_outputs(self, rng):
        arch = ArchitectureParameters(6, 9)
        gates, active, sampled = arch.sample(1.0, rng, num_backward_paths=3)
        assert len(gates) == len(active) == len(sampled) == 6
        for gate, act, idx in zip(gates, active, sampled):
            assert gate.data[idx] == pytest.approx(1.0)
            assert idx in act
            assert len(act) == 3

    def test_probabilities_normalised(self):
        arch = ArchitectureParameters(4, 5)
        probs = arch.probabilities()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-10)

    def test_derive_is_argmax(self):
        arch = ArchitectureParameters(3, 4)
        arch.alphas[0].data[:] = [0, 0, 5, 0]
        arch.alphas[1].data[:] = [9, 0, 0, 0]
        arch.alphas[2].data[:] = [0, 0, 0, 2]
        assert arch.derive() == [2, 0, 3]

    def test_entropy_decreases_as_alpha_sharpens(self):
        arch = ArchitectureParameters(3, 4)
        uniform_entropy = arch.entropy()
        for alpha in arch.alphas:
            alpha.data[0] = 20.0
        assert arch.entropy() < uniform_entropy

    def test_expected_cost_gradient(self):
        arch = ArchitectureParameters(2, 3)
        cost_table = np.array([[1.0, 10.0, 100.0], [5.0, 5.0, 5.0]])
        loss = arch.expected_cost(cost_table)
        loss.backward()
        assert arch.alphas[0].grad is not None
        # Minimising expected cost must push probability towards the cheap op 0.
        from repro.nn import Adam

        optimizer = Adam(arch.parameters(), lr=0.1)
        for _ in range(100):
            arch.zero_grad()
            arch.expected_cost(cost_table).backward()
            optimizer.step()
        assert arch.derive()[0] == 0

    def test_state_dict_roundtrip(self):
        arch = ArchitectureParameters(3, 4, rng=np.random.default_rng(0))
        other = ArchitectureParameters(3, 4, rng=np.random.default_rng(5))
        other.load_state_dict(arch.state_dict())
        np.testing.assert_allclose(arch.probabilities(), other.probabilities())

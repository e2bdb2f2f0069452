"""The vectorised Gumbel sampler and its closed-form VJP against the eager tape.

The reference is the per-vector tape graph the search used to build:
``F.softmax((logits + noise) / T)`` with per-vector noise draws, a
straight-through gate ``soft + (one_hot - soft)``, and ``Tensor.backward``.
The closed form must give its bytes (sample, generator state and logit
gradients); central finite differences check the formula itself.
"""

import numpy as np
import pytest

from repro.accelerator import DASConfig
from repro.cosearch import HardwarePenalty, UnitGranularityDAS, unit_of_layer_map
from repro.nas import DRLArchitectureSearch, GumbelFamily, SearchConfig, top_k_active
from repro.networks import AgentSuperNet
from repro.nn import Parameter, Tensor
from repro.nn import functional as F

NUM_CELLS, NUM_CHOICES = 12, 9


def tape_sample(params, temperature, rng):
    """Per-vector tape draws: ``[(gate, soft, index)]``."""
    draws = []
    for logits in params:
        noise = -np.log(-np.log(rng.random(logits.data.shape) + 1e-12) + 1e-12)
        soft = F.softmax((logits + Tensor(noise)) / float(temperature), axis=-1)
        index = int(np.argmax(soft.data))
        one_hot = np.zeros_like(soft.data)
        one_hot[index] = 1.0
        draws.append((soft + Tensor(one_hot - soft.data), soft, index))
    return draws


def das_dimensions():
    """The co-search's DAS logit vectors: 51 knobs of 3-11 choices."""
    das = UnitGranularityDAS(num_units=NUM_CELLS + 2, config=DASConfig(seed=0))
    return [len(choices) for _, choices in das.space.dimensions()]


def fresh(sizes, seed):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.normal(0.0, 0.5, size)) for size in sizes]


FAMILIES = {"das": das_dimensions(), "alpha": [NUM_CHOICES] * NUM_CELLS}


def test_das_family_matches_the_co_search_space():
    sizes = FAMILIES["das"]
    assert len(sizes) == 51 and sum(sizes) == 240
    assert {n: sizes.count(n) for n in set(sizes)} == {3: 8, 4: 27, 5: 8, 6: 4, 11: 4}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("temperature", [5.0, 0.1])
@pytest.mark.parametrize("advantage", [0.0, 0.37, -2.5])
def test_closed_form_gives_the_tape_bytes(family, temperature, advantage):
    sizes = FAMILIES[family]
    tape_params, params = fresh(sizes, 1), fresh(sizes, 1)
    tape_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    tape = tape_sample(tape_params, temperature, tape_rng)
    draw = GumbelFamily(params).sample(temperature, rng)
    assert rng.bit_generator.state == tape_rng.bit_generator.state
    assert [index for _, _, index in tape] == list(draw.index)
    assert np.concatenate([gate.data for gate, _, _ in tape]).tobytes() == draw.data.tobytes()
    assert np.concatenate([soft.data for _, soft, _ in tape]).tobytes() == draw.soft.tobytes()

    grad = np.zeros_like(draw.data)
    if family == "das":
        # DAS: advantage * sum of the sampled choices' soft probabilities.
        loss = None
        for _, soft, index in tape:
            loss = soft[index] if loss is None else loss + soft[index]
        (loss * advantage).backward()
        grad[draw.sampled_at] += advantage
    else:
        # Alpha: two active gates seeded with plan gradients (scaled by the
        # advantage), plus the Eq. 8 penalty term on the sampled gate.
        costs = np.random.default_rng(3).random(NUM_CELLS)
        plan_grads = np.random.default_rng(4).standard_normal((NUM_CELLS, 2)) * advantage
        seed = penalty = None
        for c, ((gate, soft, index), cost) in enumerate(zip(tape, costs)):
            cell = top_k_active(soft, 2, always_include=index)
            full = np.zeros(NUM_CHOICES)
            full[cell] = plan_grads[c]
            grad[c * NUM_CHOICES + np.asarray(cell)] = plan_grads[c]
            term = (gate * Tensor(full)).sum()
            seed = term if seed is None else seed + term
            term = gate[index] * float(cost)
            penalty = term if penalty is None else penalty + term
        (seed + penalty * 0.1).backward()
        extra = np.zeros_like(grad)
        extra[draw.sampled_at] += 0.1 * costs
        grad = grad + extra
    draw.backward(grad)
    for reference, param in zip(tape_params, params):
        assert param.grad.tobytes() == reference.grad.tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("temperature", [5.0, 0.1])
def test_closed_form_matches_finite_differences(family, temperature):
    sizes = FAMILIES[family]
    params = fresh(sizes, 2)
    upstream = np.random.default_rng(5).standard_normal(sum(sizes))

    def objective():
        # The same seed redraws the same noise: the relaxation is a smooth
        # function of the logits.
        draw = GumbelFamily(params).sample(temperature, np.random.default_rng(9))
        return float(upstream @ draw.soft), draw

    _, draw = objective()
    draw.backward(upstream)
    analytic = np.concatenate([p.grad for p in params])
    numeric = np.empty_like(analytic)
    step, flat = 1e-6, 0
    for param in params:
        for j in range(param.data.size):
            param.data[j] += step
            plus, _ = objective()
            param.data[j] -= 2 * step
            minus, _ = objective()
            param.data[j] += step
            numeric[flat] = (plus - minus) / (2 * step)
            flat += 1
    assert np.max(np.abs(numeric - analytic)) <= 1e-6 * np.max(np.abs(analytic))


def tape_das_step(das):
    """The per-dimension DAS step on the tape (the update before vectorising)."""
    temperature = das.temperature.value(das.steps_taken)
    tape = tape_sample(das.phi.values(), temperature, das.rng)
    indices = {name: index for name, (_, _, index) in zip(das.phi, tape)}
    config, metrics, cost = das.evaluate_indices(indices)
    if das._baseline is None:
        das._baseline = cost
    advantage = cost - das._baseline
    momentum = das.config.baseline_momentum
    das._baseline = momentum * das._baseline + (1.0 - momentum) * cost
    relaxation = None
    for _, soft, index in tape:
        relaxation = soft[index] if relaxation is None else relaxation + soft[index]
    das.optimizer.zero_grad()
    (relaxation * float(advantage)).backward()
    das.optimizer.step()
    das.steps_taken += 1
    return config, metrics, cost


def tape_arch_sample(arch):
    """``ArchitectureParameters.sample`` with list-of-tape-gates output."""

    def sample(temperature, rng, num_backward_paths=2):
        draws = tape_sample(arch.alphas, temperature, rng)
        active = [top_k_active(soft, num_backward_paths, always_include=i) for _, soft, i in draws]
        return [gate for gate, _, _ in draws], active, [i for _, _, i in draws]

    return sample


def bound_das():
    """The co-search's unit-level DAS, bound to a 12-cell supernet path."""
    supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=16, base_width=4,
                             rng=np.random.default_rng(0))
    das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
    specs = supernet.layer_specs([0] * supernet.num_cells)
    return das.set_network(specs, unit_of_layer_map(specs, supernet.num_cells))


def state_bytes(searcher):
    return {
        name: {key: np.asarray(value).tobytes() for key, value in part.state_dict().items()}
        for name, part in searcher.checkpoint_parts.items()
    }


def make_cosearch(**config):
    """A tiny one-level search with the Eq. 8 penalty on a unit-level DAS."""
    searcher = DRLArchitectureSearch(
        "Breakout",
        config=SearchConfig(num_envs=2, hw_penalty_weight=0.5, seed=0, **config),
        env_kwargs={"obs_size": 16, "frame_stack": 2, "max_episode_steps": 40},
        supernet_kwargs={"feature_dim": 16, "base_width": 4, "num_cells": 6},
    )
    das = UnitGranularityDAS(num_units=searcher.supernet.num_cells + 2, config=DASConfig(seed=0))
    searcher.hardware_penalty = HardwarePenalty(searcher.supernet, das)
    searcher.checkpoint_parts["das"] = das
    return searcher, das


def run_updates(searcher, updates):
    for _ in range(updates):
        searcher.search(total_steps=searcher.total_env_steps + 1)


class TestCoSearchUpdates:
    def test_das_steps_match_the_per_dimension_reference(self):
        vectorised, reference = bound_das(), bound_das()
        assert len(vectorised.phi) == 51
        for _ in range(5):
            vectorised.step()
            tape_das_step(reference)
        assert {k: np.asarray(v).tobytes() for k, v in vectorised.state_dict().items()} == {
            k: np.asarray(v).tobytes() for k, v in reference.state_dict().items()
        }

    def test_compiled_update_builds_no_tensor(self, monkeypatch):
        searcher, _ = make_cosearch()
        run_updates(searcher, 1)  # compile outside the count
        created = []
        real_init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        run_updates(searcher, 3)
        monkeypatch.undo()
        assert searcher.updates == 4
        assert len(created) == 0

    def test_compiled_alpha_update_gives_the_tape_bytes(self, monkeypatch):
        """The plan's gate gradients plus Eq. 8, chained onto alpha as the tape does."""
        searcher, _ = make_cosearch()
        run_updates(searcher, 1)
        alphas = [Parameter(alpha.data.copy()) for alpha in searcher.arch.alphas]
        rng = np.random.default_rng()
        rng.bit_generator.state = searcher.rng.bit_generator.state
        temperature = searcher.temperature.value(searcher.total_env_steps)
        seen = {}
        step, penalty = searcher._compiled_step, searcher.hardware_penalty
        monkeypatch.setattr(searcher, "_compiled_step",
                            lambda *a, **k: seen.setdefault("result", step(*a, **k)))
        monkeypatch.setattr(searcher, "hardware_penalty", lambda s: seen.setdefault("costs", penalty(s)))
        monkeypatch.setattr(searcher.alpha_optimizer, "step", lambda: seen.setdefault(
            "grads", [alpha.grad.tobytes() for alpha in searcher.arch.alphas]))
        run_updates(searcher, 1)

        seed = hw = None
        plan_grads, costs = seen["result"].gate_grads, seen["costs"]
        for (gate, soft, index), gate_grad, cost in zip(tape_sample(alphas, temperature, rng),
                                                        plan_grads, costs):
            full = np.zeros(gate.data.shape)
            full[top_k_active(soft, 2, always_include=index)] = gate_grad
            term = (gate * Tensor(full)).sum()
            seed = term if seed is None else seed + term
            term = gate[index] * float(cost)
            hw = term if hw is None else hw + term
        (seed + hw * searcher.config.hw_penalty_weight).backward()
        assert seen["grads"] == [alpha.grad.tobytes() for alpha in alphas]
        assert searcher.logger.latest("loss/hw_penalty") == hw.item()

    @pytest.mark.parametrize("variant", ["grad_samples=2", "eager"])
    def test_eager_updates_give_the_tape_bytes(self, monkeypatch, variant):
        config = {"grad_samples": 2} if variant == "grad_samples=2" else {"use_compiled_train": False}
        runs = []
        for tape in (False, True):
            searcher, das = make_cosearch(**config)
            if variant == "eager":
                searcher.agent.use_runtime = False
            if tape:
                monkeypatch.setattr(searcher.arch, "sample", tape_arch_sample(searcher.arch))
                monkeypatch.setattr(das, "step", lambda das=das: tape_das_step(das))
            run_updates(searcher, 3)
            _, penalties = searcher.logger.series("loss/hw_penalty")
            runs.append((state_bytes(searcher), penalties))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == 3

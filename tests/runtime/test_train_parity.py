"""Gradient parity: compiled reverse-mode plans vs the eager autograd tape."""

import numpy as np
import pytest

from repro.drl import make_agent
from repro.drl.agent import ActorCriticAgent
from repro.drl.losses import (
    TaskLossWeights,
    combine_task_loss,
    entropy_loss,
    policy_gradient_loss,
    value_loss,
)
from repro.nas.arch_params import ArchitectureParameters
from repro.networks import AgentSuperNet
from repro.nn import Tensor
from repro.nn import functional as F
from repro.runtime import CompileError, CompiledTrainStep, compile_plan

ATOL_F64 = 1e-6  # acceptance tolerance; observed diffs are ~1e-15
ATOL_F32 = 5e-3


def make_batch(rng, batch=6, obs_size=28):
    return {
        "observations": rng.random((batch, 2, obs_size, obs_size)).astype(np.float32),
        "actions": rng.integers(0, 6, size=batch),
        "returns": rng.standard_normal(batch).astype(np.float32),
        "advantages": rng.standard_normal(batch).astype(np.float32),
    }


def eager_gradients(agent, batch, weights, teacher_probs=None, teacher_values=None, **fwd_kwargs):
    """Reference gradients: the exact loss the eager A2C/search update builds."""
    chosen_log_probs, _, values, output = agent.evaluate_actions(
        batch["observations"], batch["actions"], **fwd_kwargs
    )
    actor_distill = critic_distill = None
    if teacher_probs is not None:
        actor_distill = F.kl_divergence(Tensor(teacher_probs), output.log_probs)
    if teacher_values is not None:
        diff = values - Tensor(np.asarray(teacher_values, dtype=np.float64))
        critic_distill = (diff * diff).mean() * 0.5
    total = combine_task_loss(
        policy_gradient_loss(chosen_log_probs, batch["advantages"]),
        value_loss(values, batch["returns"]),
        entropy_loss(output.probs, output.log_probs),
        actor_distill=actor_distill,
        critic_distill=critic_distill,
        weights=weights,
    )
    agent.zero_grad()
    total.backward()
    return float(total.item()), {name: p.grad for name, p in agent.named_parameters()}


def assert_grad_parity(agent, plan, eager_grads, atol):
    compared = 0
    for name, param in agent.named_parameters():
        compiled = plan.param_grad(param)
        eager = eager_grads[name]
        if eager is None:
            assert compiled is None or np.abs(compiled).max() == 0.0, name
            continue
        assert compiled is not None, "missing compiled grad for {}".format(name)
        np.testing.assert_allclose(compiled, eager, atol=atol, err_msg=name)
        compared += 1
    assert compared > 0


class TestBackboneGradientParity:
    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14", "ResNet-20"])
    def test_a2c_loss_gradients_match_eager(self, name, rng):
        agent = make_agent(name, obs_size=28, frame_stack=2, feature_dim=32, base_width=4, seed=0)
        agent.train()
        batch = make_batch(rng)
        weights = TaskLossWeights()
        total, eager_grads = eager_gradients(agent, batch, weights)
        step = CompiledTrainStep(agent)
        plan, result = step.compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
            weights=weights,
        )
        assert abs(result.total - total) <= ATOL_F64
        assert_grad_parity(agent, plan, eager_grads, ATOL_F64)

    def test_distillation_terms_match_eager(self, rng):
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.train()
        batch = make_batch(rng)
        weights = TaskLossWeights()
        teacher_probs = rng.dirichlet(np.ones(6), size=6)
        teacher_values = rng.standard_normal(6)
        total, eager_grads = eager_gradients(
            agent, batch, weights, teacher_probs=teacher_probs, teacher_values=teacher_values
        )
        step = CompiledTrainStep(agent)
        plan, result = step.compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
            weights=weights, teacher_probs=teacher_probs, teacher_values=teacher_values,
        )
        assert abs(result.total - total) <= ATOL_F64
        assert "actor_distill" in result.components and "critic_distill" in result.components
        assert_grad_parity(agent, plan, eager_grads, ATOL_F64)

    def test_train_mode_bn_running_stats_updated_identically(self, rng):
        compiled_agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                                    base_width=4, seed=0)
        eager_agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                                 base_width=4, seed=0)
        compiled_agent.train()
        eager_agent.train()
        batch = make_batch(rng)
        eager_gradients(eager_agent, batch, TaskLossWeights())
        CompiledTrainStep(compiled_agent).compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"]
        )
        eager_state = eager_agent.state_dict()
        compiled_state = compiled_agent.state_dict()
        for key in eager_state:
            if key.startswith("buffer."):
                np.testing.assert_allclose(compiled_state[key], eager_state[key], atol=ATOL_F64)

    def test_float32_fast_path_within_tolerance(self, rng):
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.train()
        batch = make_batch(rng)
        weights = TaskLossWeights()
        _, eager_grads = eager_gradients(agent, batch, weights)
        step = CompiledTrainStep(agent, dtype=np.float32)
        plan, _ = step.compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
            weights=weights,
        )
        for name, param in agent.named_parameters():
            compiled = plan.param_grad(param)
            eager = eager_grads[name]
            assert compiled.dtype == np.float32
            scale = max(float(np.abs(eager).max()), 1e-6)
            assert float(np.abs(compiled - eager).max()) / scale <= ATOL_F32, name

    def test_batch_size_change_reallocates_and_stays_correct(self, rng):
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.train()
        weights = TaskLossWeights()
        step = CompiledTrainStep(agent)
        for batch_size in (4, 9, 4):
            batch = make_batch(rng, batch=batch_size)
            _, eager_grads = eager_gradients(agent, batch, weights)
            plan, _ = step.compute_gradients(
                batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
                weights=weights,
            )
            assert_grad_parity(agent, plan, eager_grads, ATOL_F64)
        assert step.num_plans == 2  # 4 and 9; the second batch-4 call reused its plan


class TestSupernetGradientParity:
    def build_agent(self, seed=0):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                                 rng=np.random.default_rng(seed))
        agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                                 rng=np.random.default_rng(seed))
        agent.train()
        return agent

    def test_sampled_path_gradients_match_eager(self, rng):
        batch = make_batch(rng)
        weights = TaskLossWeights()
        path = [int(i) for i in rng.integers(9, size=12)]
        eager_agent = self.build_agent()
        total, eager_grads = eager_gradients(eager_agent, batch, weights, op_indices=path)
        compiled_agent = self.build_agent()
        step = CompiledTrainStep(compiled_agent)
        plan, result = step.compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
            weights=weights, op_indices=path,
        )
        assert abs(result.total - total) <= ATOL_F64
        assert_grad_parity(compiled_agent, plan, eager_grads, ATOL_F64)

    def test_gated_multi_path_gradients_match_eager_including_alpha(self, rng):
        batch = make_batch(rng)
        weights = TaskLossWeights()

        def sample():
            arch = ArchitectureParameters(12, 9, rng=np.random.default_rng(3))
            gates, active, sampled = arch.sample(5.0, np.random.default_rng(5),
                                                 num_backward_paths=2)
            return arch, gates, active

        # Eager reference (its gates graph is consumed by the backward pass).
        arch1, gates1, active1 = sample()
        eager_agent = self.build_agent()
        total, eager_grads = eager_gradients(
            eager_agent, batch, weights, gates=gates1, active_indices=active1
        )
        eager_alpha = [alpha.grad.copy() for alpha in arch1.alphas]

        # Compiled, on an identically-seeded fresh sample.
        arch2, gates2, active2 = sample()
        assert active1 == active2
        compiled_agent = self.build_agent()
        step = CompiledTrainStep(compiled_agent)
        plan, result = step.compute_gradients(
            batch["observations"], batch["actions"], batch["returns"], batch["advantages"],
            weights=weights,
            gated_paths=tuple(tuple(cell) for cell in active2),
            gate_values=[np.array([gates2[c].data[i] for i in cell])
                         for c, cell in enumerate(active2)],
        )
        assert abs(result.total - total) <= ATOL_F64
        assert_grad_parity(compiled_agent, plan, eager_grads, ATOL_F64)

        # Gate grads -> alpha through the straight-through Gumbel relaxation.
        seed = None
        for gate, gate_grad, cell in zip(gates2, result.gate_grads, active2):
            full = np.zeros(gate.data.shape)
            full[list(cell)] = gate_grad
            term = (gate * Tensor(full)).sum()
            seed = term if seed is None else seed + term
        seed.backward()
        for alpha, expected in zip(arch2.alphas, eager_alpha):
            np.testing.assert_allclose(alpha.grad, expected, atol=ATOL_F64)


class TestPoolingBackward:
    @pytest.mark.parametrize("pool_cls", ["MaxPool2d", "AvgPool2d"])
    def test_pool_backward_matches_eager(self, pool_cls, rng):
        from repro.nn import AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Sequential

        pool = MaxPool2d(2) if pool_cls == "MaxPool2d" else AvgPool2d(2)
        net = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(0)),
            pool,
            Flatten(),
            Linear(4 * 7 * 7, 5, rng=np.random.default_rng(1)),
        )
        x = rng.random((3, 2, 14, 14))
        seed = rng.standard_normal((3, 5))

        out = net(Tensor(x))
        net.zero_grad()
        out.backward(seed)
        eager_grads = {name: p.grad for name, p in net.named_parameters()}

        plan = compile_plan(net, x.shape, train=True)
        plan.run(x)
        plan.zero_grads()
        plan.seed_grad(plan.output_slots[0], seed)
        plan.run_backward()
        for name, param in net.named_parameters():
            np.testing.assert_allclose(plan.param_grad(param), eager_grads[name],
                                       atol=ATOL_F64, err_msg=name)


class TestTrainCompileErrors:
    @pytest.mark.parametrize("train", [False, True], ids=["infer", "train"])
    @pytest.mark.parametrize("conv", [
        dict(in_channels=4, out_channels=8, kernel_size=3, padding=1, groups=2),
        dict(in_channels=4, out_channels=8, kernel_size=1, padding=1),
    ], ids=["grouped", "padded_by_a_whole_kernel"])
    def test_conv_without_a_kernel_raises_compile_error(self, conv, train):
        """Grouped non-depthwise convs, and convs padded by a whole kernel,
        have no kernel: the compile fails, so callers stay on the eager tape."""
        from repro.nn import Conv2d

        module = Conv2d(rng=np.random.default_rng(0), **conv)
        with pytest.raises(CompileError, match="no conv kernel serves"):
            compile_plan(module, (2, 4, 8, 8), train=train)

    def test_dropout_rejected_in_training_plans(self):
        from repro.nn import Dropout, Linear, Sequential

        net = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), Dropout(0.5))
        with pytest.raises(CompileError):
            compile_plan(net, (2, 4), train=True)

    def test_opaque_module_rejected_in_training_plans(self):
        from repro.nn import Module

        class Custom(Module):
            def forward(self, x):
                return x * 2.0

        with pytest.raises(CompileError):
            compile_plan(Custom(), (2, 4), train=True)

    def test_non_agent_module_rejected_by_train_step(self, rng):
        from repro.networks import VanillaNet

        backbone = VanillaNet(in_channels=2, input_size=28, feature_dim=32,
                              rng=np.random.default_rng(0))
        step = CompiledTrainStep(backbone)
        with pytest.raises(CompileError):
            step.compute_gradients(rng.random((2, 2, 28, 28)), [0, 1], [0.0, 0.0], [0.0, 0.0])

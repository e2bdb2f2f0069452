"""Compiler-emitted fusion and the plan-optimizer passes: parity,
invalidation, pruning, and memory wins."""

import numpy as np
import pytest

from repro.drl import make_agent
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet, build_backbone
from repro.nn import SGD, Sequential, Tensor, no_grad
from repro.nn.modules import BatchNorm2d, Conv2d, ReLU
from repro.runtime import CompiledTrainStep, compile_plan
from repro.runtime.passes import ENV_VAR, PASS_NAMES, enabled_passes
from repro.runtime.plan import ActivationStep, AddStep, BatchNormStep, Conv2dStep, TransposeStep

ATOL_F64 = 1e-12
ATOL_F32 = 1e-6


def eager_forward(module, obs, **kwargs):
    with no_grad():
        out = module(Tensor(obs), **kwargs)
    return out.data


def build_supernet(seed=0):
    return AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                         rng=np.random.default_rng(seed))


class TestPassSelection:
    def test_default_is_all_passes(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert enabled_passes() == frozenset(PASS_NAMES)

    def test_env_var_controls_selection(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "none")
        assert enabled_passes() == frozenset()
        monkeypatch.setenv(ENV_VAR, "quantize,alias_slots")
        assert enabled_passes() == frozenset({"quantize", "alias_slots"})

    def test_unknown_pass_name_raises(self):
        with pytest.raises(ValueError):
            enabled_passes("alias_slots,warp_drive")

    def test_single_pass_disable_via_compile(self, rng):
        """Any single pass can be dropped for bisection."""
        backbone = build_backbone("ResNet-14", in_channels=2, input_size=28,
                                  feature_dim=32, base_width=4,
                                  rng=np.random.default_rng(3))
        backbone.eval()
        x = rng.random((3, 2, 28, 28))
        reference = eager_forward(backbone, x)
        for dropped in PASS_NAMES:
            keep = frozenset(PASS_NAMES) - {dropped}
            plan = compile_plan(backbone, x.shape, passes=keep)
            np.testing.assert_allclose(plan.run(x), reference, atol=ATOL_F64)


class TestLintEveryPlan:
    def test_pass_free_and_calibration_plans_are_linted(self, monkeypatch):
        """Lint runs after the passes whether or not any pass is enabled, so
        ``passes="none"`` compiles and the calibrator's plans are checked too."""
        from repro.runtime import Calibrator, passes

        linted = []
        real = passes.lint_plan

        def counted(plan, ctx=None):
            linted.append(plan)
            return real(plan, ctx)

        monkeypatch.setattr(passes, "lint_plan", counted)
        backbone = build_backbone("ResNet-14", in_channels=2, input_size=28,
                                  feature_dim=32, base_width=4, rng=np.random.default_rng(3))
        backbone.eval()
        plan = compile_plan(backbone, (2, 2, 28, 28), passes="none")
        assert linted == [plan]
        calibrator = Calibrator(backbone, (2, 2, 28, 28), dtype=np.float32)
        assert linted == [plan, calibrator._plan]


class TestFoldingAndFusionParity:
    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14", "ResNet-20"])
    def test_backbone_parity_f64(self, name, rng):
        kwargs = {"in_channels": 2, "input_size": 28, "feature_dim": 32,
                  "rng": np.random.default_rng(3)}
        if name != "Vanilla":
            kwargs["base_width"] = 4
        backbone = build_backbone(name, **kwargs)
        backbone.eval()
        x = rng.random((4, 2, 28, 28))
        plain = compile_plan(backbone, x.shape, passes="none")
        optimized = compile_plan(backbone, x.shape, passes="all")
        np.testing.assert_allclose(optimized.run(x), plain.run(x), atol=ATOL_F64)
        np.testing.assert_allclose(optimized.run(x), eager_forward(backbone, x), atol=ATOL_F64)

    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14"])
    def test_backbone_parity_f32(self, name, rng):
        kwargs = {"in_channels": 2, "input_size": 28, "feature_dim": 32,
                  "rng": np.random.default_rng(3)}
        if name != "Vanilla":
            kwargs["base_width"] = 4
        backbone = build_backbone(name, **kwargs)
        backbone.eval()
        x = rng.random((4, 2, 28, 28)).astype(np.float32)
        plain = compile_plan(backbone, x.shape, dtype=np.float32, passes="none")
        optimized = compile_plan(backbone, x.shape, dtype=np.float32, passes="all")
        np.testing.assert_allclose(optimized.run(x), plain.run(x), atol=ATOL_F32)

    def test_supernet_sampled_paths_parity(self, rng):
        supernet = build_supernet()
        supernet.eval()
        x = rng.random((4, 2, 28, 28))
        for trial in range(3):
            path = [int(i) for i in
                    np.random.default_rng(trial).integers(supernet.num_choices_per_cell, size=12)]
            plain = compile_plan(supernet, x.shape, path=path, passes="none")
            optimized = compile_plan(supernet, x.shape, path=path, passes="all")
            np.testing.assert_allclose(optimized.run(x), plain.run(x), atol=ATOL_F64)

    def test_agent_heads_parity(self, rng):
        agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                           base_width=4, seed=0)
        agent.eval()
        x = rng.random((5, 2, 28, 28))
        plain = compile_plan(agent, x.shape, passes="none")
        optimized = compile_plan(agent, x.shape, passes="all")
        probs_p, values_p = plain.run(x)
        probs_o, values_o = optimized.run(x)
        np.testing.assert_allclose(probs_o, probs_p, atol=ATOL_F64)
        np.testing.assert_allclose(values_o, values_p, atol=ATOL_F64)

    def test_fusion_removes_steps_and_standalone_bn(self, rng):
        """A hand-rolled Sequential(conv, BN, ReLU) compiles to one conv step
        carrying the BN and the ReLU, with or without passes."""
        r = np.random.default_rng(0)
        bn = BatchNorm2d(8)
        bn.gamma.data = r.standard_normal(8)
        bn.beta.data = r.standard_normal(8)
        bn.running_mean[...] = r.standard_normal(8)
        bn.running_var[...] = r.random(8) + 0.5
        seq = Sequential(Conv2d(2, 8, 3, padding=1, rng=r), bn, ReLU())
        seq.eval()
        y = rng.random((2, 2, 12, 12))
        for passes in ("none", "all"):
            plan = compile_plan(seq, y.shape, passes=passes)
            [conv] = [s for s in plan.steps if not isinstance(s, TransposeStep)]
            assert isinstance(conv, Conv2dStep)
            assert conv.bn is bn and conv.activation == "relu"
            np.testing.assert_allclose(plan.run(y), eager_forward(seq, y), atol=ATOL_F64)

    def test_train_mode_bn_falls_back_at_run_time(self, rng):
        """A folded plan serves train-mode BN (batch stats) without recompiling."""
        backbone = build_backbone("ResNet-14", in_channels=2, input_size=28,
                                  feature_dim=32, base_width=4,
                                  rng=np.random.default_rng(5))
        reference = build_backbone("ResNet-14", in_channels=2, input_size=28,
                                   feature_dim=32, base_width=4,
                                   rng=np.random.default_rng(5))
        reference.load_state_dict(backbone.state_dict())
        x = rng.random((4, 2, 28, 28))
        backbone.eval()
        plan = compile_plan(backbone, x.shape, passes="all")
        plan.run(x)
        backbone.train()
        reference.train()
        np.testing.assert_allclose(plan.run(x), eager_forward(reference, x), atol=ATOL_F64)


def joins(plan):
    """``(fused, total)`` residual joins of a plan: fused ones ride a conv."""
    fused = sum(isinstance(s, Conv2dStep) and s.res_slot is not None for s in plan.steps)
    return fused, fused + sum(isinstance(s, AddStep) for s in plan.steps)


class TestCompilerFusion:
    @pytest.mark.parametrize("name, fused, total", [
        ("Vanilla", 0, 0), ("ResNet-14", 4, 6), ("ResNet-20", 7, 9),
    ])
    def test_backbone_joins_fuse(self, name, fused, total):
        """A join fuses into the body conv unless a projection shortcut runs
        after it; training plans keep every join."""
        kwargs = {"in_channels": 2, "input_size": 28, "feature_dim": 32,
                  "rng": np.random.default_rng(3)}
        if name != "Vanilla":
            kwargs["base_width"] = 4
        backbone = build_backbone(name, **kwargs)
        shape = (2, 2, 28, 28)
        assert joins(compile_plan(backbone.eval(), shape)) == (fused, total)
        assert joins(compile_plan(backbone.train(), shape, train=True)) == (0, total)

    def test_supernet_joins_fuse(self):
        supernet = build_supernet()
        shape = (2, 2, 28, 28)
        derived = supernet.derive([4, 5, 6] * 4)
        assert joins(compile_plan(derived.eval(), shape)) == (10, 10)
        assert joins(compile_plan(derived.train(), shape, train=True)) == (0, 10)
        assert joins(compile_plan(supernet.eval(), shape, gated_paths="all")) == (60, 60)
        assert joins(compile_plan(supernet.train(), shape, train=True,
                                  gated_paths="all")) == (0, 60)

    def test_unfusable_activation_runs_on_activation_step(self, rng):
        """An activation with no producer to ride copies into a slot of its
        own: inference and the VJP match the eager tape."""
        r = np.random.default_rng(0)
        net = Sequential(ReLU(), Conv2d(2, 4, 3, padding=1, rng=r),
                         ReLU(), Conv2d(4, 3, 3, padding=1, rng=r))
        x = rng.standard_normal((2, 2, 8, 8))
        plan = compile_plan(net, x.shape)
        # The first ReLU reads the plan input; the second rides its conv.
        assert sum(isinstance(s, ActivationStep) for s in plan.steps) == 1
        np.testing.assert_allclose(plan.run(x), eager_forward(net, x), atol=ATOL_F64)

        seed = rng.standard_normal((2, 3, 8, 8))
        out = net(Tensor(x))
        net.zero_grad()
        out.backward(seed)
        eager_grads = {name: p.grad for name, p in net.named_parameters()}
        train = compile_plan(net, x.shape, train=True)
        assert sum(isinstance(s, ActivationStep) for s in train.steps) == 2
        np.testing.assert_allclose(train.run(x), out.data, atol=ATOL_F64)
        train.zero_grads()
        train.seed_grad(train.output_slots[0], seed)
        train.run_backward()
        for name, param in net.named_parameters():
            np.testing.assert_allclose(train.param_grad(param), eager_grads[name],
                                       atol=ATOL_F64, err_msg=name)


class TestFoldInvalidation:
    def _agent_and_plan(self, rng):
        agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                           base_width=4, seed=0)
        agent.eval()
        x = rng.random((4, 2, 28, 28))
        plan = compile_plan(agent, x.shape, passes="all")
        plan.run(x)  # folds the weights
        return agent, plan, x

    def _assert_live(self, agent, plan, x):
        agent.use_runtime = False
        eager_probs, eager_values = agent.policy_value(x)
        probs, values = plan.run(x)
        np.testing.assert_allclose(probs, eager_probs, atol=ATOL_F64)
        np.testing.assert_allclose(values, eager_values, atol=ATOL_F64)

    def test_optimizer_step_refreshes_folded_weights(self, rng):
        agent, plan, x = self._agent_and_plan(rng)
        optimizer = SGD(agent.parameters(), lr=0.05)
        for param in agent.parameters():
            param.grad = rng.standard_normal(param.data.shape)
        optimizer.step()
        self._assert_live(agent, plan, x)

    def test_direct_data_mutation_refreshes_folded_weights(self, rng):
        agent, plan, x = self._agent_and_plan(rng)
        for param in agent.parameters():
            param.data += 0.03
        self._assert_live(agent, plan, x)

    def test_load_state_dict_refreshes_folded_weights(self, rng):
        agent, plan, x = self._agent_and_plan(rng)
        donor = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                           base_width=4, seed=9)
        agent.load_state_dict(donor.state_dict())
        self._assert_live(agent, plan, x)

    def test_running_stat_updates_refresh_folded_weights(self, rng):
        """Train-mode forwards move the BN buffers; eval plans must refold."""
        agent, plan, x = self._agent_and_plan(rng)
        agent.train()
        agent.use_runtime = False
        with no_grad():
            agent.forward(rng.random((4, 2, 28, 28)))
        agent.eval()
        self._assert_live(agent, plan, x)


class TestBufferAliasing:
    def test_inference_plan_memory_shrinks(self, rng):
        backbone = build_backbone("ResNet-20", in_channels=2, input_size=28,
                                  feature_dim=64, base_width=8,
                                  rng=np.random.default_rng(1))
        backbone.eval()
        shape = (8, 2, 28, 28)
        plain = compile_plan(backbone, shape, passes="none")
        optimized = compile_plan(backbone, shape, passes="all")
        assert optimized.alloc_bytes < 0.7 * plain.alloc_bytes
        x = rng.random(shape)
        np.testing.assert_allclose(optimized.run(x), plain.run(x), atol=ATOL_F64)

    def test_training_plan_grad_aliasing_keeps_gradients_exact(self, rng):
        agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                           base_width=4, seed=0)
        agent.train()
        batch = 5
        obs = rng.random((batch, 2, 28, 28))
        actions = rng.integers(0, 6, size=batch)
        returns = rng.standard_normal(batch)
        advantages = rng.standard_normal(batch)

        def gradients(passes):
            fresh = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                               base_width=4, seed=0)
            fresh.train()
            shape = obs.shape
            plan = compile_plan(fresh, shape, train=True, passes=passes)
            step = CompiledTrainStep(fresh)
            step.plans.get((tuple(shape), False), lambda: plan)
            plan_out, _ = step.compute_gradients(obs, actions, returns, advantages)
            return plan_out, {
                name: plan_out.param_grad(p)
                for name, p in fresh.named_parameters()
                if plan_out.param_grad(p) is not None
            }

        plain_plan, plain_grads = gradients("none")
        aliased_plan, aliased_grads = gradients("all")
        assert aliased_plan.alloc_bytes < plain_plan.alloc_bytes
        assert set(plain_grads) == set(aliased_grads)
        for name in plain_grads:
            np.testing.assert_allclose(aliased_grads[name], plain_grads[name],
                                       atol=0.0, err_msg=name)

    def test_derived_agent_plans_shrink(self):
        """The passes cut >= 30% of the derived agent's rollout and search
        plans, whose joins and BNs the compiler already fused."""

        def agent(derived):
            supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128,
                                     base_width=16, rng=np.random.default_rng(0))
            backbone = supernet.derive([4, 5, 6] * 4) if derived else supernet
            agent = ActorCriticAgent(backbone, num_actions=6, feature_dim=128,
                                     rng=np.random.default_rng(0))
            return agent.train(not derived)

        rollout = {
            passes: compile_plan(agent(derived=True), (16, 2, 32, 32), dtype=np.float32,
                                 passes=passes)
            for passes in ("none", "all")
        }
        gated_paths = tuple((1, 4) for _ in range(12))
        train = {
            passes: compile_plan(agent(derived=False), (8, 2, 32, 32), train=True,
                                 gated_paths=gated_paths, passes=passes)
            for passes in ("none", "all")
        }
        for plans in (rollout, train):
            assert plans["all"].alloc_bytes <= 0.7 * plans["none"].alloc_bytes
        for step in rollout["none"].steps:
            assert not isinstance(step, (AddStep, BatchNormStep)), step

    def test_repeated_runs_are_stable(self, rng):
        """Aliased buffers must not leak state between runs."""
        backbone = build_backbone("ResNet-14", in_channels=2, input_size=28,
                                  feature_dim=32, base_width=4,
                                  rng=np.random.default_rng(2))
        backbone.eval()
        plan = compile_plan(backbone, (3, 2, 28, 28), passes="all")
        x = rng.random((3, 2, 28, 28))
        first = plan.run(x).copy()
        plan.run(rng.random((3, 2, 28, 28)))
        np.testing.assert_allclose(plan.run(x), first, atol=0.0)

"""Runtime/autograd parity: the tape-free engine must match eager forwards."""

import numpy as np
import pytest

from repro.drl import ActorCriticAgent, make_agent
from repro.networks import AgentSuperNet, VanillaNet, build_backbone
from repro.nn import Tensor, no_grad
from repro.runtime import InferenceEngine, RuntimePolicy
from repro.runtime.compiler import CompileError, compile_plan

ATOL = 1e-6


def eager_forward(module, obs, **kwargs):
    with no_grad():
        return module(Tensor(obs), **kwargs).data


@pytest.fixture
def obs(rng):
    return rng.random((4, 2, 28, 28))


class TestBackboneParity:
    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14", "ResNet-20"])
    def test_backbone_matches_eager(self, name, obs, rng):
        kwargs = {"in_channels": 2, "input_size": 28, "feature_dim": 32,
                  "rng": np.random.default_rng(3)}
        if name != "Vanilla":
            kwargs["base_width"] = 4
        backbone = build_backbone(name, **kwargs)
        backbone.eval()
        engine = InferenceEngine(backbone)
        np.testing.assert_allclose(engine.run(obs), eager_forward(backbone, obs), atol=ATOL)

    def test_sampled_supernet_path_matches_eager(self, obs, rng):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                                 rng=np.random.default_rng(0))
        supernet.eval()
        engine = InferenceEngine(supernet)
        for trial in range(3):
            path = [int(i) for i in
                    np.random.default_rng(trial).integers(supernet.num_choices_per_cell, size=12)]
            expected = eager_forward(supernet, obs, op_indices=path)
            np.testing.assert_allclose(engine.run(obs, path=path), expected, atol=ATOL)
        assert engine.num_plans == 1  # every sampled path selects branches of one plan

    def test_derived_agent_matches_eager(self, obs):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                                 rng=np.random.default_rng(0))
        derived = supernet.derive([0, 2, 4, 6, 8, 1, 3, 5, 7, 0, 2, 4])
        derived.eval()
        engine = InferenceEngine(derived)
        np.testing.assert_allclose(engine.run(obs), eager_forward(derived, obs), atol=ATOL)

    def test_train_mode_batch_norm_matches_eager(self, obs):
        """Train-mode BN must use batch stats and update running buffers."""
        eager_net = build_backbone("ResNet-14", in_channels=2, input_size=28, feature_dim=32,
                                   base_width=4, rng=np.random.default_rng(5))
        runtime_net = build_backbone("ResNet-14", in_channels=2, input_size=28, feature_dim=32,
                                     base_width=4, rng=np.random.default_rng(5))
        runtime_net.load_state_dict(eager_net.state_dict())
        eager_net.train()
        runtime_net.train()
        expected = eager_forward(eager_net, obs)
        produced = InferenceEngine(runtime_net).run(obs)
        np.testing.assert_allclose(produced, expected, atol=ATOL)
        eager_state = eager_net.state_dict()
        runtime_state = runtime_net.state_dict()
        for key in eager_state:
            if key.startswith("buffer."):
                np.testing.assert_allclose(runtime_state[key], eager_state[key], atol=ATOL)


class TestBatchSizeChanges:
    def test_batch_change_triggers_reallocation_and_stays_correct(self, rng):
        backbone = VanillaNet(in_channels=2, input_size=28, feature_dim=32,
                              rng=np.random.default_rng(0))
        backbone.eval()
        engine = InferenceEngine(backbone)
        for batch in (4, 9, 1, 4):
            x = rng.random((batch, 2, 28, 28))
            np.testing.assert_allclose(engine.run(x), eager_forward(backbone, x), atol=ATOL)
        # 4, 9 and 1 each compiled a plan; the second batch-4 run reused one.
        assert engine.num_plans == 3

    def test_plan_cache_is_bounded(self, rng):
        backbone = VanillaNet(in_channels=2, input_size=14, feature_dim=16,
                              rng=np.random.default_rng(0))
        backbone.eval()
        engine = InferenceEngine(backbone, max_plans=2)
        for batch in (1, 2, 3, 4):
            engine.run(rng.random((batch, 2, 14, 14)))
        assert engine.num_plans == 2


class TestAgentRuntime:
    def test_policy_value_matches_eager_across_backbones(self, obs, rng):
        for name in ("Vanilla", "ResNet-14"):
            agent = make_agent(name, obs_size=28, frame_stack=2, feature_dim=32, base_width=4,
                               seed=0)
            agent.eval()
            agent.use_runtime = False
            eager_probs, eager_values = agent.policy_value(obs)
            agent.use_runtime = True
            probs, values = agent.policy_value(obs)
            np.testing.assert_allclose(probs, eager_probs, atol=ATOL)
            np.testing.assert_allclose(values, eager_values, atol=ATOL)

    def test_float32_action_distribution_within_tolerance(self, obs):
        """The float32 fast path keeps action distributions within 1e-6."""
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.eval()
        agent.use_runtime = False
        eager_probs, _ = agent.policy_value(obs)
        agent.use_runtime = True
        agent.runtime_dtype = np.float32
        probs, values = agent.policy_value(obs)
        assert probs.dtype == np.float32
        np.testing.assert_allclose(probs, eager_probs, atol=ATOL)

    def test_act_greedy_identical_between_paths(self, obs, rng):
        agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32, base_width=4,
                           seed=0)
        agent.eval()
        agent.use_runtime = False
        eager_actions, _ = agent.act(obs, np.random.default_rng(0), greedy=True)
        agent.use_runtime = True
        runtime_actions, _ = agent.act(obs, np.random.default_rng(0), greedy=True)
        np.testing.assert_array_equal(runtime_actions, eager_actions)

    def test_parameter_updates_visible_without_recompiling(self, obs):
        """Plans read parameters live: training between rollouts must show up."""
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.eval()
        probs_before, _ = agent.policy_value(obs)
        for param in agent.parameters():
            param.data += 0.05
        probs_after, runtime_values = agent.policy_value(obs)
        agent.use_runtime = False
        eager_probs, eager_values = agent.policy_value(obs)
        assert not np.allclose(probs_before, probs_after)
        np.testing.assert_allclose(probs_after, eager_probs, atol=ATOL)
        np.testing.assert_allclose(runtime_values, eager_values, atol=ATOL)

    def test_gated_forward_falls_back_to_eager(self, obs):
        """Gated (multi-path) supernet forwards cannot compile: eager fallback."""
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                                 rng=np.random.default_rng(0))
        agent.eval()
        runtime = RuntimePolicy(agent)
        gates = [Tensor(np.eye(supernet.num_choices_per_cell)[0]) for _ in range(12)]
        with pytest.raises(CompileError):
            runtime.policy_value(obs, gates=gates)
        probs, values = agent.policy_value(obs, gates=gates)  # falls back silently
        assert probs.shape == (4, 6) and values.shape == (4,)

    def test_supernet_requires_path(self, obs):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                                 rng=np.random.default_rng(0))
        with pytest.raises(CompileError):
            compile_plan(supernet, obs.shape)

    def test_path_to_non_supernet_backbone_rejected(self, obs):
        """op_indices on a plain backbone must error like eager, not be ignored."""
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        agent.eval()
        with pytest.raises(CompileError):
            agent.runtime.policy_value(obs, op_indices=[1, 2, 3])
        # Through the agent, the runtime rejection falls back to the eager
        # path, which raises the same TypeError it always did.
        with pytest.raises(TypeError):
            agent.policy_value(obs, op_indices=[1, 2, 3])


class TestOpaqueFallback:
    def test_unknown_module_runs_via_eager_fallback(self, rng):
        from repro.nn import Module

        class Doubler(Module):
            def forward(self, x):
                return x * 2.0

        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.doubler = Doubler()

            def forward(self, x):
                return self.doubler(x)

        x = rng.random((3, 5))
        engine = InferenceEngine(Custom())
        np.testing.assert_allclose(engine.run(x), x * 2.0, atol=ATOL)

    def test_opaque_probe_does_not_mutate_training_state(self, rng):
        """Compile-time shape discovery must not touch BN running statistics."""
        from repro.nn import BatchNorm2d, Conv2d, Module

        class CustomBNNet(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
                self.bn = BatchNorm2d(3)

            def forward(self, x):
                return self.bn(self.conv(x))

        net = CustomBNNet()
        net.train()
        before = {k: v.copy() for k, v in net.state_dict().items() if k.startswith("buffer.")}
        engine = InferenceEngine(net)
        engine.plan_for((2, 2, 8, 8))  # compile only: no real data has flowed
        after = {k: v for k, v in net.state_dict().items() if k.startswith("buffer.")}
        for key in before:
            np.testing.assert_array_equal(after[key], before[key])
        assert net.training  # mode restored

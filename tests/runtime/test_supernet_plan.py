"""One compiled supernet plan per signature; each Gumbel sample selects branches.

The co-search compiles its train plan and its rollout/bootstrap plan once
per batch shape.  Each plan holds every
candidate branch of every cell, and a sample only picks which branches run.
These tests pin the three promises that rest on: no steady-state recompiles
or fresh buffers, results identical to a plan compiled with exactly the
sample's branches, and every conv channels-last behind one transpose of
the plan input, in ``auto`` and ``heuristic`` kernel modes.
"""

import numpy as np
import pytest

from repro.cosearch import A3CSConfig, A3CSCoSearch
from repro.drl import make_agent
from repro.drl.agent import ActorCriticAgent
from repro.nas.gumbel import GumbelFamily, top_k_active
from repro.networks import AgentSuperNet
from repro.nn import RMSProp, Tensor
from repro.runtime import CompiledTrainStep, cache_stats, compile_plan
from repro.runtime.compiler import ALL_CANDIDATES
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV
from repro.runtime.plan import Conv2dStep, TransposeStep

TOL = 1e-12
NUM_CELLS = 12
NUM_CHOICES = 9


class TestSteadyStateHasNoCompiles:
    """Updates 3-8 of a tiny co-search compile nothing and allocate nothing."""

    # The trainers' float32 default, and float64 pinned through the config
    # (the ids name one Gumbel sample per update).
    @pytest.mark.parametrize("dtype", [None, np.float64], ids=["1", "1-f64"])
    def test_no_plan_misses_or_fresh_bytes(self, dtype, monkeypatch):
        teacher = make_agent("ResNet-14", obs_size=14, frame_stack=2, feature_dim=16,
                             base_width=4, seed=1)
        teacher.eval()
        config = A3CSConfig(obs_size=14, frame_stack=2, num_envs=2, base_width=4,
                            feature_dim=16, max_episode_steps=40, seed=0)
        if dtype is None:
            dtype = np.float32
        else:
            search_config = config.search_config()
            search_config.compiled_train_dtype = dtype
            monkeypatch.setattr(config, "search_config", lambda: search_config)
        cosearch = A3CSCoSearch("Breakout", config=config, teacher=teacher)
        cosearch._build()
        searcher = cosearch.searcher
        assert searcher.distiller.dtype == dtype
        for _ in range(8):
            searcher.search(total_steps=searcher.total_env_steps + 1)
        assert searcher.updates == 8
        assert searcher._train_step.dtype == dtype
        for name in ("train_plan_misses", "rollout_plan_misses", "pool_bytes_fresh"):
            _, values = searcher.logger.series("runtime/" + name)
            assert len(values) == 8
            assert values[2:] == [0.0] * 6, name
        # The first update did compile: the deltas are per update, not totals.
        _, misses = searcher.logger.series("runtime/train_plan_misses")
        assert misses[0] >= 1


def _agent(seed=0):
    supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=16, base_width=4,
                             rng=np.random.default_rng(seed))
    agent = ActorCriticAgent(supernet, num_actions=4, feature_dim=16,
                             rng=np.random.default_rng(seed))
    agent.train()
    return agent


def _sample(rng):
    """Per-cell two-path active sets (Eq. 6-7) and their Gumbel gate values."""
    active, values = [], []
    for _ in range(NUM_CELLS):
        alpha = Tensor(rng.standard_normal(NUM_CHOICES) * 0.5, requires_grad=True)
        draw = GumbelFamily([alpha]).sample(1.0, rng)
        cell = tuple(top_k_active(draw.soft, 2, always_include=int(draw.index[0])))
        active.append(cell)
        values.append(draw.soft[list(cell)])
    return tuple(active), values


class TestAllCandidatePlanParity:
    """The all-candidate plan equals a plan holding exactly the active branches."""

    BATCH = 5

    def _batch(self, rng):
        return (
            rng.random((self.BATCH, 2, 16, 16)),
            rng.integers(0, 4, size=self.BATCH),
            rng.standard_normal(self.BATCH),
            rng.standard_normal(self.BATCH),
        )

    def _update(self, step, optimizer, batch, gated, values):
        plan, result = step.compute_gradients(*batch, gated_paths=gated, gate_values=values)
        grads = [plan.param_grad(p) for p in optimizer.parameters]
        snapshot = [None if g is None else g.copy() for g in grads]
        optimizer.apply_gradients(grads, max_norm=0.5)
        return result, snapshot

    def test_matches_exact_branch_plan(self, rng):
        agent, reference = _agent(), _agent()
        optimizer = RMSProp(agent.parameters(), lr=1e-3)
        ref_optimizer = RMSProp(reference.parameters(), lr=1e-3)
        step = CompiledTrainStep(agent, optimizer)
        misses = 0
        names = [name for name, _ in agent.named_parameters()]
        for _ in range(5):
            gated, values = _sample(rng)
            batch = self._batch(rng)
            # Both agents start every update from the same state.
            reference.load_state_dict(agent.state_dict())
            ref_optimizer.load_state_dict(optimizer.state_dict())
            before = [s.copy() for s in optimizer._state_buffers()]

            ref_step = CompiledTrainStep(reference, ref_optimizer)
            ref_step.plans.get((batch[0].shape, True), lambda: compile_plan(
                reference, batch[0].shape, train=True, gated_paths=gated,
            ))
            compiled = cache_stats()["train_plans"]["cache_misses"]
            result, grads = self._update(step, optimizer, batch, gated, values)
            misses += cache_stats()["train_plans"]["cache_misses"] - compiled
            ref_result, ref_grads = self._update(ref_step, ref_optimizer, batch, gated, values)

            assert abs(result.total - ref_result.total) <= TOL
            for cell, got, want in zip(gated, result.gate_grads, ref_result.gate_grads):
                assert got.shape == want.shape == (len(cell),)
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
            assert any(grad is None for grad in grads)  # inactive branches exist
            for name, got, want in zip(names, grads, ref_grads):
                assert (got is None) == (want is None), name
                if got is not None:
                    np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=name)
            state, ref_state = agent.state_dict(), reference.state_dict()
            for key in state:
                if "running" in key:
                    np.testing.assert_allclose(state[key], ref_state[key], rtol=0, atol=TOL,
                                               err_msg=key)
            for name, got, want, old, grad in zip(
                names, optimizer._state_buffers(), ref_optimizer._state_buffers(), before, grads
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=name)
                if grad is None:
                    np.testing.assert_array_equal(got, old, err_msg=name)
        assert step.num_plans == 1
        assert misses == 1

    def test_path_selection_matches_path_compile(self, rng):
        """``op_indices`` steps reuse the gated plan at gate 1.0."""
        agent, reference = _agent(), _agent()
        step = CompiledTrainStep(agent)
        batch = self._batch(rng)
        step.compute_gradients(*batch, gated_paths=((1, 2),) * NUM_CELLS,
                               gate_values=[np.array([0.5, 0.5])] * NUM_CELLS)
        reference.load_state_dict(agent.state_dict())
        path = [int(i) for i in rng.integers(NUM_CHOICES, size=NUM_CELLS)]
        plan, result = step.compute_gradients(*batch, op_indices=path)
        assert step.num_plans == 1
        exact = compile_plan(reference, batch[0].shape, train=True,
                             gated_paths=[(i,) for i in path])
        ref_step = CompiledTrainStep(reference)
        ref_step.plans.get((batch[0].shape, True), lambda: exact)
        ref_plan, ref_result = ref_step.compute_gradients(*batch, op_indices=path)
        assert abs(result.total - ref_result.total) <= TOL
        for param, ref_param in zip(agent.parameters(), reference.parameters()):
            got, want = plan.param_grad(param), ref_plan.param_grad(ref_param)
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


class TestLayoutRule:
    """Every conv runs channels-last in ``auto`` and ``heuristic`` mode."""

    @pytest.fixture(params=["auto", "heuristic"])
    def kernel_mode(self, request, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, request.param)
        return request.param

    @staticmethod
    def _layout_counts(plan):
        convs = [step for step in plan.steps if isinstance(step, Conv2dStep)]
        nhwc = sum(1 for step in convs if step.layout == "NHWC")
        transposes = sum(1 for step in plan.steps if isinstance(step, TransposeStep))
        return nhwc, len(convs), transposes

    def test_derived_agent_layouts(self, kernel_mode):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=64, base_width=8,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                                 feature_dim=64, rng=np.random.default_rng(0))
        agent.eval()
        rollout = compile_plan(agent, (16, 2, 28, 28), dtype=np.float32)
        # The dense stem runs channels-last on im2col_nhwc too, in either
        # direction: only the plan input is transposed.
        assert self._layout_counts(rollout) == (33, 33, 1)
        agent.train()
        train = compile_plan(agent, (80, 2, 28, 28), dtype=np.float32, train=True)
        assert self._layout_counts(train) == (33, 33, 1)

    @pytest.mark.parametrize("train", [False, True])
    def test_all_candidate_plans_transpose_only_their_input(self, kernel_mode, train):
        agent = _agent()
        agent.train(train)
        plan = compile_plan(agent, (4, 2, 16, 16), train=train, gated_paths=ALL_CANDIDATES)
        [transpose] = [step for step in plan.steps if isinstance(step, TransposeStep)]
        assert transpose.in_slot == plan.input_slot and transpose.branch is None
        assert {step.layout for step in plan.steps if isinstance(step, Conv2dStep)} == {"NHWC"}

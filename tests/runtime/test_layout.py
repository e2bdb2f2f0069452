"""Channels-last plans: parity with the eager modules, emitted layouts, plan lint.

The compiler decides each step's layout as it emits it: conv, batch-norm,
join and global-pool steps run channels-last (NHWC); pooling windows,
flatten, opaque modules and 4-D plan outputs read NCHW; an explicit
transpose sits only where a read needs the other layout.  Parity is checked
against the eager module (NCHW, the reference) at float64 — its forward, and
its autograd gradients of the A2C loss — at the reassociation tolerances
the kernel suite enforces (1e-12 f64 / 1e-6 f32, relative to the output
scale).
"""

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
from repro.networks import AgentSuperNet, build_backbone
from repro.nn import BasicResBlock, Sequential, Tensor, no_grad
from repro.nn.modules import BatchNorm2d, Conv2d, MaxPool2d, ReLU
from repro.runtime import CompiledTrainStep, compile_plan
from repro.runtime.compiler import ALL_CANDIDATES
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV, _native, selection_table
from repro.runtime.kernels.registry import reset_selections
from repro.runtime.passes import (
    LINT_ENV_VAR,
    PlanLintError,
    enabled_passes,
    lint_enabled,
    lint_plan,
)
from repro.runtime.plan import Conv2dStep, TransposeStep

F64_TOL = 1e-12
F32_TOL = 1e-6


@pytest.fixture(autouse=True)
def _fresh_selection_table():
    """The selection table is process-global; tests inspect only their own rows."""
    reset_selections()
    yield
    reset_selections()


def assert_parity(result, reference, tol):
    """Max-abs parity scaled by the reference magnitude (min scale 1)."""
    results = result if isinstance(result, tuple) else (result,)
    references = reference if isinstance(reference, tuple) else (reference,)
    for got, want in zip(results, references):
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(got, want, atol=tol * scale, rtol=0.0)


def eager_forward(module, x, **kwargs):
    """The eager module's float64 forward: the reference of every plan."""
    with no_grad():
        return module(Tensor(np.asarray(x, dtype=np.float64)), **kwargs).data


def derived_supernet(seed=0, input_size=28):
    net = AgentSuperNet(in_channels=2, input_size=input_size, feature_dim=32,
                        base_width=4, rng=np.random.default_rng(seed))
    net = net.derive([4, 5, 6] * 4)
    net.eval()
    return net


def depthwise_stack(cin=6, k=5, stride=2, seed=3):
    """Inverted-residual-flavoured stack: pointwise / depthwise / pointwise."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(cin, 2 * cin, 1, rng=rng),
        BatchNorm2d(2 * cin),
        ReLU(),
        Conv2d(2 * cin, 2 * cin, k, stride=stride, padding=k // 2,
               groups=2 * cin, rng=rng),
        BatchNorm2d(2 * cin),
        ReLU(),
        Conv2d(2 * cin, cin, 1, rng=rng),
    )


class TestInferenceParity:
    """Channels-last plans match the eager modules numerically."""

    @pytest.mark.parametrize("name", ["Vanilla", "ResNet-14"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_backbones(self, rng, name, dtype, tol):
        kwargs = {} if name == "Vanilla" else {"base_width": 4}
        backbone = build_backbone(name, in_channels=2, input_size=28,
                                  feature_dim=32,
                                  rng=np.random.default_rng(1), **kwargs)
        backbone.eval()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(backbone, x.shape, dtype=dtype)
        assert_parity(plan.run(x), eager_forward(backbone, x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_derived_supernet(self, rng, dtype, tol):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        assert_parity(plan.run(x), eager_forward(net, x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_heuristic_mode(self, rng, monkeypatch, dtype, tol):
        """The einsum depthwise pin keeps parity too."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        assert_parity(plan.run(x), eager_forward(net, x), tol)

    @pytest.mark.parametrize("size,stride", [(13, 1), (13, 2), (9, 2)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_odd_spatial_and_stride(self, rng, monkeypatch, size, stride, dtype, tol):
        """Odd sizes + stride-2 clip the depthwise taps asymmetrically."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = depthwise_stack(stride=stride)
        net.eval()
        x = rng.random((4, 6, size, size)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        assert_parity(plan.run(x), eager_forward(net, x), tol)

    def test_supernet_path_argument(self, rng):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                                 base_width=4, rng=np.random.default_rng(0))
        supernet.eval()
        x = rng.random((3, 2, 28, 28))
        path = [4, 5, 6] * 4
        plan = compile_plan(supernet, x.shape, path=path)
        assert_parity(plan.run(x), eager_forward(supernet, x, op_indices=path), F64_TOL)


class TestTrainingParity:
    """Gradients of channels-last training plans match the eager tape's."""

    WEIGHTS = TaskLossWeights()

    def _agent(self, seed=0, derive=True):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                                 base_width=4, rng=np.random.default_rng(seed))
        if derive:
            supernet = supernet.derive([4, 5, 6] * 4)
        agent = ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                                 rng=np.random.default_rng(seed))
        agent.train()
        return agent

    def _batch(self, rng, batch=5):
        return (
            rng.random((batch, 2, 28, 28)),
            rng.integers(0, 6, size=batch),
            rng.standard_normal(batch),
            rng.standard_normal(batch),
        )

    def _grads(self, agent, args, **kwargs):
        step = CompiledTrainStep(agent)
        plan, result = step.compute_gradients(*args, weights=self.WEIGHTS, **kwargs)
        return result.total, {
            name: np.array(plan.param_grad(p))
            for name, p in agent.named_parameters()
            if plan.param_grad(p) is not None
        }

    def _eager_grads(self, agent, args, **kwargs):
        """The A2C loss on the eager tape at float64, and its autograd gradients."""
        obs, actions, returns, advantages = args
        chosen, _, values, output = agent.evaluate_actions(obs, actions, **kwargs)
        total = combine_task_loss(
            policy_gradient_loss(chosen, advantages),
            value_loss(values, returns),
            entropy_loss(output.probs, output.log_probs),
            weights=self.WEIGHTS,
        )
        agent.zero_grad()
        total.backward()
        return float(total.item()), {
            name: p.grad for name, p in agent.named_parameters() if p.grad is not None
        }

    def _compare(self, rng, derive=True, eager_kwargs=None, **kwargs):
        args = self._batch(rng)
        control_total, control = self._eager_grads(self._agent(derive=derive), args,
                                                   **(eager_kwargs or {}))
        total, grads = self._grads(self._agent(derive=derive), args, **kwargs)
        assert abs(total - control_total) <= F64_TOL * max(1.0, abs(control_total))
        assert set(grads) == set(control)
        for name in control:
            scale = max(1.0, float(np.abs(control[name]).max()))
            np.testing.assert_allclose(grads[name], control[name],
                                       atol=F64_TOL * scale, rtol=0.0,
                                       err_msg=name)

    def test_train_gradients(self, rng):
        self._compare(rng)

    def test_gated_path_gradients(self, rng):
        """A gated supernet sample keeps gradient parity."""
        r = np.random.default_rng(100)
        gated = [tuple(sorted(int(i) for i in r.choice(9, size=2, replace=False)))
                 for _ in range(12)]
        gate_values = [r.random(2) for _ in gated]
        gates = []
        for cell, values in zip(gated, gate_values):
            full = np.zeros(9)
            full[list(cell)] = values
            gates.append(Tensor(full))
        self._compare(rng, derive=False, gated_paths=gated, gate_values=gate_values,
                      eager_kwargs={"gates": gates, "active_indices": gated})


def derived_agent():
    """The 33-conv inverted-residual agent derived along path ``[4, 5, 6] * 4``."""
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=64, base_width=8,
                             rng=np.random.default_rng(0))
    agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                             feature_dim=64, rng=np.random.default_rng(0))
    agent.eval()
    return agent


def conv_tags(plan):
    return [step.layout for step in plan.steps if isinstance(step, Conv2dStep)]


def transposes(plan):
    return [step for step in plan.steps if isinstance(step, TransposeStep)]


def resnet20_plan():
    agent = make_agent("ResNet-20", obs_size=28, frame_stack=2, feature_dim=32,
                       base_width=4, seed=0)
    agent.eval()
    return compile_plan(agent, (4, 2, 28, 28))


def supernet_agent():
    supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=16, base_width=4,
                             rng=np.random.default_rng(0))
    agent = ActorCriticAgent(supernet, num_actions=4, feature_dim=16,
                             rng=np.random.default_rng(0))
    agent.train()
    return agent


#: Kernel modes: the rule, the einsum depthwise pin, and the rule on a host
#: without the C library.
MODES = ["auto", "heuristic", "no_library"]


def set_mode(monkeypatch, mode):
    monkeypatch.setenv(KERNELS_ENV, "auto" if mode == "no_library" else mode)
    if mode == "no_library":
        monkeypatch.setattr(_native, "available", lambda: False)


class TestEmittedLayouts:
    """Every conv runs channels-last, behind transposes only where a read
    needs NCHW, in every kernel mode and both directions."""

    @pytest.mark.parametrize("mode", MODES)
    def test_agent_plans_transpose_only_their_input(self, monkeypatch, mode):
        set_mode(monkeypatch, mode)
        agent = derived_agent()
        plans = [compile_plan(agent, (16, 2, 28, 28), dtype=np.float32)]
        agent.train()
        plans.append(compile_plan(agent, (16, 2, 28, 28), dtype=np.float32, train=True))
        plans.append(resnet20_plan())
        agent = supernet_agent()
        plans.append(compile_plan(agent, (4, 2, 16, 16), dtype=np.float32,
                                  path=[0] * agent.backbone.num_cells))
        plans.append(compile_plan(agent, (4, 2, 16, 16), train=True, gated_paths=ALL_CANDIDATES))
        assert conv_tags(plans[0]) == conv_tags(plans[1]) == ["NHWC"] * 33
        for plan in plans:
            assert set(conv_tags(plan)) == {"NHWC"}
            [transpose] = transposes(plan)
            assert transpose.in_slot == plan.input_slot and transpose.branch is None
            assert (transpose.from_layout, transpose.to_layout) == ("NCHW", "NHWC")
        dense = {row["kernel"] for key, row in selection_table().items()
                 if key.startswith("dense:")}
        assert dense == {"im2col_nhwc"}
        assert {row["layout"] for row in selection_table().values()} == {"NHWC"}

    def test_logical_shapes_stay_nchw(self, rng):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28))
        plan = compile_plan(net, x.shape)
        assert plan.layout(plan.input_slot) == "NCHW"
        for step in plan.steps:
            if isinstance(step, Conv2dStep):
                n, c, h, w = plan.shape(step.out_slot)
                assert plan.physical_shape(step.out_slot) == (n, h, w, c)

    def test_nchw_reads_get_transposes(self, rng):
        """Pooling windows and the 4-D plan output read NCHW; one transpose of
        the pooled slot feeds both the block's conv and its shortcut join."""
        r = np.random.default_rng(0)
        net = Sequential(Conv2d(2, 4, 3, padding=1, rng=r), MaxPool2d(2),
                         BasicResBlock(4, 4, rng=r))
        net.eval()
        x = rng.random((2, 2, 12, 12))
        plan = compile_plan(net, x.shape)
        pairs = [(t.from_layout, t.to_layout) for t in transposes(plan)]
        # Input -> stem conv, conv -> pool, pool -> block, block -> output.
        assert pairs == [("NCHW", "NHWC"), ("NHWC", "NCHW"), ("NCHW", "NHWC"), ("NHWC", "NCHW")]
        assert plan.layout(plan.output_slots[0]) == "NCHW"
        assert_parity(plan.run(x), eager_forward(net, x), F64_TOL)

    def test_no_adjacent_transpose_pairs(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        plan = compile_plan(net, (3, 2, 28, 28))
        producer_is_transpose = {}
        for step in plan.steps:
            if isinstance(step, TransposeStep):
                assert not producer_is_transpose.get(step.in_slot, False)
            for slot in (getattr(step, "out_slot", None),):
                if slot is not None:
                    producer_is_transpose[slot] = isinstance(step, TransposeStep)

    def test_layout_is_no_pass(self):
        """Layouts, epilogue fusion and BN folding are the compiler's."""
        for name in ("layout", "fuse_epilogue", "fold_bn"):
            with pytest.raises(ValueError, match="unknown runtime passes"):
                enabled_passes("alias_slots," + name)


class TestPlanLint:
    def test_enabled_under_pytest_by_default(self, monkeypatch):
        monkeypatch.delenv(LINT_ENV_VAR, raising=False)
        assert lint_enabled()  # PYTEST_CURRENT_TEST is in the environment
        monkeypatch.setenv(LINT_ENV_VAR, "0")
        assert not lint_enabled()
        monkeypatch.setenv(LINT_ENV_VAR, "1")
        assert lint_enabled()

    def test_compiled_plans_pass(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        plan = compile_plan(derived_supernet(), (3, 2, 28, 28))
        assert lint_plan(plan) is plan

    def _nhwc_plan(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        return compile_plan(derived_supernet(), (3, 2, 28, 28))

    def test_layout_mismatch_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        conv = next(s for s in plan.steps
                    if isinstance(s, Conv2dStep) and s.layout == "NHWC")
        plan._layouts[conv.out_slot] = "NCHW"
        with pytest.raises(PlanLintError, match="tagged NCHW but step expects NHWC"):
            lint_plan(plan)

    def test_noop_transpose_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        transpose = next(s for s in plan.steps if isinstance(s, TransposeStep))
        original = transpose.to_layout
        transpose.to_layout = transpose.from_layout
        try:
            with pytest.raises(PlanLintError, match="no-op"):
                lint_plan(plan)
        finally:
            transpose.to_layout = original

    def test_uncancelled_pair_fails_loudly(self, monkeypatch):
        plan = self._nhwc_plan(monkeypatch)
        index, transpose = next(
            (i, s) for i, s in enumerate(plan.steps) if isinstance(s, TransposeStep)
        )
        inverse = TransposeStep(
            in_slot=transpose.out_slot,
            out_slot=transpose.in_slot,
            from_layout=transpose.to_layout,
            to_layout=transpose.from_layout,
        )
        plan.steps.insert(index + 1, inverse)
        try:
            with pytest.raises(PlanLintError, match="uncancelled adjacent pair"):
                lint_plan(plan)
        finally:
            plan.steps.pop(index + 1)


class TestCacheStatsLayout:
    def test_selection_rows_record_layout(self, rng, monkeypatch):
        from repro.runtime import cache_stats

        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        plan = compile_plan(derived_supernet(), (3, 2, 28, 28))
        rows = cache_stats()["kernels"]
        layouts = {entry["layout"] for entry in rows.values()}
        assert "NHWC" in layouts
        for signature, entry in rows.items():
            assert entry["layout"].lower() in signature

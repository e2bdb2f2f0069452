"""Layout-aware plan IR: propagation parity, opt-out, and plan lint.

The ``layout`` pass re-tags slots channels-last (NHWC) by a static rule —
every conv with an NHWC kernel — inserting explicit transposes only at
boundaries.  Different layouts
legitimately dispatch different kernels (e.g. the NHWC einsum depthwise vs
the NCHW im2col path), which agree only up to float reassociation — so
parity here is checked against the same plan compiled with the layout pass
disabled, at the reassociation tolerances the kernel suite already enforces
(1e-12 f64 / 1e-6 f32, relative to the output scale).
"""

import numpy as np
import pytest

from repro.drl import make_agent
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet, build_backbone
from repro.nn import Sequential
from repro.nn.modules import BatchNorm2d, Conv2d, ReLU
from repro.runtime import CompiledTrainStep, compile_plan
from repro.runtime.compiler import ALL_CANDIDATES
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV, _native, selection_table
from repro.runtime.kernels.registry import reset_selections, scratch_upper_bound, ConvSpec
from repro.runtime.passes import (
    ENV_VAR as PASSES_ENV,
    LINT_ENV_VAR,
    PASS_NAMES,
    PlanLintError,
    lint_enabled,
    lint_plan,
)
from repro.runtime.plan import Conv2dStep, TransposeStep

F64_TOL = 1e-12
F32_TOL = 1e-6

#: Every pass except the layout assignment: the control plans below.
NO_LAYOUT = frozenset(PASS_NAMES) - {"layout"}


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
    """Layout-propagated plans match layout-disabled plans numerically."""

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
        control = compile_plan(backbone, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_derived_supernet(self, rng, dtype, tol):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_heuristic_mode(self, rng, monkeypatch, dtype, tol):
        """The einsum depthwise pin keeps parity too."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    @pytest.mark.parametrize("size,stride", [(13, 1), (13, 2), (9, 2)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_odd_spatial_and_stride(self, rng, monkeypatch, size, stride, dtype, tol):
        """Odd sizes + stride-2 clip the depthwise taps asymmetrically."""
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = depthwise_stack(stride=stride)
        net.eval()
        x = rng.random((4, 6, size, size)).astype(dtype)
        plan = compile_plan(net, x.shape, dtype=dtype)
        control = compile_plan(net, x.shape, dtype=dtype, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), tol)

    def test_supernet_path_argument(self, rng):
        supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32,
                                 base_width=4, rng=np.random.default_rng(0))
        supernet.eval()
        x = rng.random((3, 2, 28, 28))
        path = [4, 5, 6] * 4
        plan = compile_plan(supernet, x.shape, path=path)
        control = compile_plan(supernet, x.shape, path=path, passes=NO_LAYOUT)
        assert_parity(plan.run(x), control.run(x), F64_TOL)


class TestTrainingParity:
    """Gradients of layout-propagated training plans match layout-off plans."""

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
        plan, result = step.compute_gradients(*args, **kwargs)
        return result.total, {
            name: np.array(plan.param_grad(p))
            for name, p in agent.named_parameters()
            if plan.param_grad(p) is not None
        }

    def _compare(self, monkeypatch, rng, derive=True, **kwargs):
        args = self._batch(rng)
        monkeypatch.setenv(PASSES_ENV, ",".join(sorted(NO_LAYOUT)))
        control_total, control = self._grads(self._agent(derive=derive), args, **kwargs)
        monkeypatch.delenv(PASSES_ENV)
        total, grads = self._grads(self._agent(derive=derive), args, **kwargs)
        assert abs(total - control_total) <= F64_TOL * max(1.0, abs(control_total))
        assert set(grads) == set(control)
        for name in control:
            scale = max(1.0, float(np.abs(control[name]).max()))
            np.testing.assert_allclose(grads[name], control[name],
                                       atol=F64_TOL * scale, rtol=0.0,
                                       err_msg=name)

    def test_train_gradients(self, rng, monkeypatch):
        self._compare(monkeypatch, rng)

    def test_gated_path_gradients(self, rng, monkeypatch):
        """A gated supernet sample keeps gradient parity under layouts."""
        r = np.random.default_rng(100)
        gated = [tuple(sorted(int(i) for i in r.choice(9, size=2, replace=False)))
                 for _ in range(12)]
        gate_values = [r.random(2) for _ in gated]
        self._compare(monkeypatch, rng, derive=False, gated_paths=gated,
                      gate_values=gate_values)


class TestOptOut:
    """Disabling the layout pass restores the all-NCHW program bit-exactly."""

    def test_env_var_opt_out_matches_explicit_disable(self, rng, monkeypatch):
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28))
        control = compile_plan(net, x.shape, passes=NO_LAYOUT)
        monkeypatch.setenv(PASSES_ENV, ",".join(sorted(NO_LAYOUT)))
        plan = compile_plan(net, x.shape)
        assert not any(isinstance(s, TransposeStep) for s in plan.steps)
        for step in plan.steps:
            if isinstance(step, Conv2dStep):
                assert step.layout == "NCHW"
                assert plan.layout(step.out_slot) in (None, "NCHW")
        np.testing.assert_allclose(plan.run(x), control.run(x), atol=0.0)


class TestPropagationStructure:
    """Deterministic (heuristic-mode) structural expectations."""

    def test_channels_last_propagates_through_cells(self, rng, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        net = derived_supernet()
        x = rng.random((3, 2, 28, 28))
        plan = compile_plan(net, x.shape)
        convs = [s for s in plan.steps if isinstance(s, Conv2dStep)]
        nhwc = [s for s in convs if s.layout == "NHWC"]
        transposes = [s for s in plan.steps if isinstance(s, TransposeStep)]
        # Every depthwise / pointwise chain runs channels-last; propagation
        # through whole inverted-residual chains needs only a boundary
        # transpose or two, never one per conv.
        assert len(nhwc) >= len(convs) // 2
        assert len(transposes) <= 3
        assert plan.layout(plan.input_slot) in (None, "NCHW")
        # Logical shapes stay NCHW; the physical view follows the tag.
        for step in nhwc:
            n, c, h, w = plan.shape(step.out_slot)
            assert plan.physical_shape(step.out_slot) == (n, h, w, c)
        assert_parity(plan.run(x),
                      compile_plan(net, x.shape, passes=NO_LAYOUT).run(x),
                      F64_TOL)

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


def num_transposes(plan):
    return sum(1 for step in plan.steps if isinstance(step, TransposeStep))


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


def supernet_train_plan():
    return compile_plan(supernet_agent(), (4, 2, 16, 16), train=True,
                        gated_paths=ALL_CANDIDATES)


class TestStaticRule:
    """Layout tags depend on plan structure, registered kernels and pins only."""

    @pytest.mark.parametrize("build", [
        lambda: compile_plan(derived_agent(), (16, 2, 28, 28), dtype=np.float32),
        resnet20_plan,
        supernet_train_plan,
    ], ids=["derived_agent", "resnet20", "supernet_train"])
    def test_heuristic_keeps_only_dense_convs_nchw(self, monkeypatch, build):
        """``heuristic`` pins dense convs to ``im2col``, so they stay NCHW; every
        other conv gets the tag the rule gives it."""
        tags = {}
        for mode in ("auto", "heuristic"):
            monkeypatch.setenv(KERNELS_ENV, mode)
            plan = build()
            tags[mode] = conv_tags(plan)
            dense = [step._spec(plan).op_class == "dense"
                     for step in plan.steps if isinstance(step, Conv2dStep)]
        expected = ["NCHW" if is_dense else auto for auto, is_dense in zip(tags["auto"], dense)]
        assert tags["heuristic"] == expected

    def test_inference_and_train_plans_agree(self, monkeypatch):
        """Every NHWC float kernel trains, so the rollout (inference) plan and
        the train plan of one network give each conv the same layout tag."""
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        agent = derived_agent()
        infer = conv_tags(compile_plan(agent, (16, 2, 28, 28), dtype=np.float32))
        agent.train()
        train = conv_tags(compile_plan(agent, (16, 2, 28, 28), dtype=np.float32, train=True))
        stem = "NHWC" if _native.available() else "NCHW"  # im2col_nhwc needs the library
        assert infer == train == [stem] + ["NHWC"] * 32

        agent = supernet_agent()
        path = [0] * agent.backbone.num_cells
        infer = conv_tags(compile_plan(agent, (4, 2, 16, 16), dtype=np.float32, path=path))
        assert infer == conv_tags(supernet_train_plan())
        assert "NHWC" in infer

    @pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")
    def test_dense_only_chains_run_nhwc_with_the_library(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        plan = resnet20_plan()
        assert set(conv_tags(plan)) == {"NHWC"}
        assert num_transposes(plan) == 1  # the plan input
        assert {row["kernel"] for row in selection_table().values()} == {"im2col_nhwc"}

    @pytest.mark.parametrize("mode", ["im2col", "heuristic", "no_library"])
    def test_dense_only_chains_stay_nchw_on_im2col(self, monkeypatch, mode):
        monkeypatch.setenv(KERNELS_ENV, "auto" if mode == "no_library" else mode)
        if mode == "no_library":
            monkeypatch.setattr(_native, "available", lambda: False)
        plan = resnet20_plan()
        assert set(conv_tags(plan)) == {"NCHW"}
        assert num_transposes(plan) == 0
        assert {row["kernel"] for row in selection_table().values()} == {"im2col"}

    def test_im2col_pin_keeps_every_conv_nchw(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "im2col")
        plan = compile_plan(derived_agent(), (16, 2, 28, 28), dtype=np.float32)
        assert conv_tags(plan) == ["NCHW"] * 33
        assert num_transposes(plan) == 0

    def test_dense_pin_keeps_the_stem_nchw(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "dense=im2col")
        plan = compile_plan(derived_agent(), (16, 2, 28, 28), dtype=np.float32)
        assert conv_tags(plan) == ["NCHW"] + ["NHWC"] * 32
        assert num_transposes(plan) == 1


class TestScratchBounds:
    """Shared arenas are sized in bytes over every (candidate, layout) pair."""

    def test_upper_bound_covers_both_layouts(self):
        from repro.runtime.kernels.registry import candidates

        spec = ConvSpec(4, 8, 8, 9, 9, 5, 2, 2, 8, "float32", "train", "NCHW")
        bound = dict(scratch_upper_bound(spec))
        for layout in ("NCHW", "NHWC"):
            variant = spec._replace(layout=layout)
            for cls in candidates(variant):
                requests = list(cls.scratch_requests(variant))
                requests += list(cls.backward_scratch_requests(variant, True))
                for channel, nbytes in requests:
                    assert bound.get(channel, 0) >= int(nbytes), (
                        layout, cls.name, channel)


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
        plan.set_layout(conv.out_slot, "NCHW")
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

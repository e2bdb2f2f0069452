"""Conv kernel registry: parity across implementations and dispatch.

Every registered kernel must reproduce the eager module — its float64
forward and autograd backward — bit-tightly (f64 <= 1e-12, f32 <= 1e-6) in
both directions, across depthwise / dense / pointwise signatures, strides
and paddings — including gated supernet train plans.  Dispatch must honour ``REPRO_KERNELS`` pinning, fall
back cleanly when a pinned kernel rejects a signature, and the static rule
must make one deterministic decision per signature, smoke-testing a choice
with a rival once per process.
"""

import numpy as np
import pytest

from repro import runtime
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.nn import Conv2d, Sequential, Tensor
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ENV_VAR,
    ConvSpec,
    _native,
    candidates,
    kernel_for,
    kernel_names,
    selection_table,
)
from repro.runtime.kernels import registry
from repro.runtime.kernels.depthwise import DepthwiseEinsumKernel, DepthwiseNativeKernel
from repro.runtime.kernels.registry import NULL_EPILOGUE, _Arena, reset_selections

F64_TOL = 1e-12
F32_TOL = 1e-6


@pytest.fixture(autouse=True)
def _fresh_selection_table():
    """The selection table is process-global; tests inspect only their own rows."""
    reset_selections()
    yield
    reset_selections()

#: (in_channels, out_channels, kernel, stride, padding, groups, height)
SHAPES = (
    (6, 6, 3, 1, 1, 6, 9),     # depthwise k3 s1
    (5, 5, 5, 2, 2, 5, 8),     # depthwise k5 s2
    (4, 4, 5, 1, 2, 4, 7),     # depthwise k5 s1
    (4, 4, 3, 1, 0, 4, 6),     # depthwise, no padding
    (3, 7, 3, 2, 1, 1, 9),     # dense strided
    (5, 9, 1, 1, 0, 1, 6),     # pointwise
    (4, 6, 3, 1, 1, 1, 8),     # dense k3 s1
    (3, 5, 5, 1, 2, 1, 7),     # dense k5 s1
)


def conv_net(cin, cout, k, s, p, g, seed=3):
    """Producer conv + conv-under-test + pointwise consumer.

    The producer exercises the conv under test's input VJP path; the
    consumer reads its output like any mid-plan conv.
    """
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(cin, cin, 3, stride=1, padding=1, rng=rng),
        Conv2d(cin, cout, k, stride=s, padding=p, groups=g, rng=rng),
        Conv2d(cout, cout, 1, rng=rng),
    )


def spec_for(cin, cout, k, s, p, g, h, batch=4, dtype="float64", direction="infer"):
    return ConvSpec(batch, cin, cout, h, h, k, s, p, g, dtype, direction)


def conv_input(shape, dtype=np.float64):
    cin, h = shape[0], shape[-1]
    return np.random.default_rng(11).random((4, cin, h, h)).astype(dtype)


def run_pinned(monkeypatch, pin, shape, dtype, train=False):
    """Compile + run (and backward) the three-conv net under one kernel pin.

    The gradients are the parameters', in the net's parameter order.
    """
    monkeypatch.setenv(ENV_VAR, pin)
    net = conv_net(*shape[:-1])
    x = conv_input(shape, dtype)
    plan = compile_plan(net, x.shape, dtype=dtype, train=train)
    out = np.asarray(plan.run(x)).copy()
    grads = None
    if train:
        plan.zero_grads()
        plan.seed_grad(plan.output_slots[0], np.ones_like(out))
        plan.run_backward()
        grads = [plan.param_grad(p).copy() for p in net.parameters()]
    return out, grads


def eager_reference(shape):
    """The eager net's float64 forward and autograd parameter gradients, the
    output gradient all ones (the reference of :func:`run_pinned`)."""
    net = conv_net(*shape[:-1])
    out = net(Tensor(conv_input(shape)))
    net.zero_grad()
    out.backward(np.ones(out.shape))
    return out.data, [p.grad for p in net.parameters()]


def class_pin(shape, name):
    """Pin ``name`` for the op class of the conv under test only.

    A bare pin would also pin every other conv of the net, where it falls
    back to the rule.
    """
    return "{}={}".format(spec_for(*shape).op_class, name)


class TestKernelParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_forward_parity_all_kernels(self, monkeypatch, shape, dtype, tol):
        reference, _ = eager_reference(shape)
        for name in kernel_names():
            # Pinning a kernel that rejects the signature falls back — the
            # result must be correct either way.
            produced, _ = run_pinned(monkeypatch, class_pin(shape, name), shape, dtype)
            np.testing.assert_allclose(produced, reference, atol=tol, err_msg=name)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_parity_all_kernels(self, monkeypatch, shape):
        reference, ref_grads = eager_reference(shape)
        for name in kernel_names():
            produced, grads = run_pinned(
                monkeypatch, class_pin(shape, name), shape, np.float64, train=True
            )
            np.testing.assert_allclose(produced, reference, atol=F64_TOL, err_msg=name)
            assert len(grads) == len(ref_grads)
            for got, expected in zip(grads, ref_grads):
                np.testing.assert_allclose(got, expected, atol=F64_TOL, err_msg=name)

    def test_f32_fast_path_depthwise_native(self, monkeypatch):
        shape = (6, 6, 3, 1, 1, 6, 9)
        reference, _ = eager_reference(shape)
        produced, _ = run_pinned(monkeypatch, class_pin(shape, "depthwise_native"), shape,
                                 np.float32)
        assert produced.dtype == np.float32
        np.testing.assert_allclose(produced, reference, atol=F32_TOL)


class TestGatedTrainPlans:
    GATED = tuple((2, 4) for _ in range(3))

    def _agent(self):
        supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=32,
                                 base_width=8, num_cells=3,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet, num_actions=4, feature_dim=32,
                                 rng=np.random.default_rng(0))
        agent.train()
        return agent

    def _input(self):
        return np.random.default_rng(5).random((3, 2, 16, 16))

    def _grads(self, monkeypatch, pin, dtype=np.float64):
        monkeypatch.setenv(ENV_VAR, pin)
        agent = self._agent()
        x = self._input()
        plan = compile_plan(agent, x.shape, dtype=dtype, train=True, gated_paths=self.GATED)
        plan.set_gates([np.full(len(cell), 0.5) for cell in plan.gate_layout])
        probs, _ = plan.run(x)
        plan.zero_grads()
        plan.seed_grad(plan.named_slots["logits"], np.ones((3, 4)))
        plan.seed_grad(plan.named_slots["value_col"], np.ones((3, 1)))
        plan.run_backward()
        return np.asarray(probs).copy(), {
            name: plan.param_grad(p).copy() for name, p in agent.named_parameters()
            if plan.param_grad(p) is not None
        }

    def _eager(self):
        """Probabilities and autograd gradients of ``sum(logits) + sum(values)``."""
        agent = self._agent()
        gates = []
        for cell in self.GATED:
            full = np.zeros(agent.backbone.num_choices_per_cell)
            full[list(cell)] = 0.5
            gates.append(Tensor(full))
        output = agent.forward(self._input(), gates=gates, active_indices=self.GATED)
        agent.zero_grad()
        (output.logits.sum() + output.value.sum()).backward()
        return output.probs.data, {
            name: p.grad for name, p in agent.named_parameters() if p.grad is not None
        }

    @pytest.mark.parametrize("pin", ["auto", "depthwise=depthwise_einsum"])
    def test_gated_train_plan_parity(self, monkeypatch, pin):
        """Gated supernet training: every kernel agrees with the eager tape on
        alpha-path grads."""
        ref_probs, ref_grads = self._eager()
        probs, grads = self._grads(monkeypatch, pin)
        np.testing.assert_allclose(probs, ref_probs, atol=F64_TOL)
        assert set(grads) == set(ref_grads)
        for name, expected in ref_grads.items():
            np.testing.assert_allclose(grads[name], expected, atol=1e-11, err_msg=name)


class TestDispatch:
    # A pin naming a deleted kernel fails loudly like a typo, never silently.
    @pytest.mark.parametrize(
        "name", ["no_such_kernel", "depthwise_direct_q8", "depthwise_direct", "im2col"]
    )
    def test_unknown_kernel_name_raises(self, monkeypatch, name):
        monkeypatch.setenv(ENV_VAR, name)
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="unknown kernel {!r}".format(name)):
            compile_plan(net, (2, 4, 6, 6))

    def test_unknown_op_class_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus_class=im2col_nhwc")
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="bogus_class"):
            compile_plan(net, (2, 4, 6, 6))

    def test_pin_is_recorded_per_signature(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "depthwise_einsum")
        net = conv_net(4, 4, 3, 1, 1, 4)
        compile_plan(net, (2, 4, 6, 6))
        table = selection_table()
        row = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert row["kernel"] == "depthwise_einsum"
        assert row["source"] == "pinned"

    def test_pin_falls_back_when_unsupported(self, monkeypatch):
        """depthwise_einsum rejects dense convs; dispatch must fall back."""
        monkeypatch.setenv(ENV_VAR, "depthwise_einsum")
        rng = np.random.default_rng(0)
        net = Sequential(Conv2d(3, 5, 3, stride=1, padding=1, rng=rng))
        x = np.random.default_rng(1).random((2, 3, 8, 8))
        plan = compile_plan(net, x.shape)
        row = next(
            v for k, v in selection_table().items() if k.startswith("dense:n2c3")
        )
        assert row["kernel"] == "im2col_nhwc"
        assert row["source"] == "pin-fallback"
        np.testing.assert_allclose(plan.run(x), net(Tensor(x)).data, atol=F64_TOL)

    def test_per_op_class_pins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "depthwise=depthwise_einsum,dense=im2col_nhwc")
        net = conv_net(4, 4, 5, 2, 2, 4)  # producer dense k3 + depthwise k5 s2
        compile_plan(net, (2, 4, 9, 9))
        table = selection_table()
        dense = next(v for k, v in table.items() if k.startswith("dense:n2c4"))
        depthwise = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert dense["kernel"] == "im2col_nhwc"
        assert dense["source"] == "pinned"
        assert depthwise["kernel"] == "depthwise_einsum"

    def test_float_candidates_ignore_direction(self):
        """Every float kernel trains: a float signature has the same candidates
        in both directions, so inference and train plans bind alike.  Every
        signature ends in a fallback."""
        for shape in SHAPES + ((3, 7, 3, 1, 1, 1, 9), (4, 8, 1, 2, 0, 1, 8)):
            for dtype in ("float32", "float64"):
                infer = spec_for(*shape, dtype=dtype)
                train = infer._replace(direction="train")
                assert candidates(train) == candidates(infer), infer.describe()
                assert candidates(infer)[-1].fallback, infer.describe()

    def test_depthwise_kernels_serve_nhwc_depthwise_only(self):
        for cls in (DepthwiseNativeKernel, DepthwiseEinsumKernel):
            assert not cls.supports(spec_for(3, 5, 3, 1, 1, 1, 8))
        nhwc = spec_for(4, 4, 3, 1, 1, 4, 8)
        assert DepthwiseEinsumKernel.supports(nhwc)
        assert DepthwiseNativeKernel.supports(nhwc) == _native.available()

    def test_native_routines_reject_mismatched_operands(self):
        """The C loops trust their pointers, so the wrappers validate first."""
        if not _native.available():
            pytest.skip("the C library is disabled or cannot be built on this host")
        x = np.zeros((2, 6, 6, 4))
        taps = np.zeros((9, 4))
        w = np.zeros((9, _native.tap_row(6, 4, 1)))  # stride 1: taps replicated over a row
        out = np.zeros((2, 6, 6, 4))
        _native.dw_fwd_bind(x, w, out, 3, 1, 1)()
        for bad_x, bad_w, bad_out in (
            (x[:, :, ::-1], w, out),            # strided view
            (x, w.astype(np.float32), out),     # mixed dtypes
            (x, w, out[:, :5]),                 # wrong output extent
            (x.astype(np.int64), w, out),       # no integer variant
        ):
            with pytest.raises(ValueError):
                _native.dw_fwd_bind(bad_x, bad_w, bad_out, 3, 1, 1)
        with pytest.raises(ValueError):  # plain taps where stride 1 reads replicated rows
            _native.dw_fwd_bind(x, taps, out, 3, 1, 1)
        _native.dw_bwd_bind(x, taps, out, np.zeros((9, 4)), x, 3, 1, 1)()
        with pytest.raises(ValueError):
            _native.dw_bwd_bind(x, taps, out, np.zeros((9, 4)), x[:1], 3, 1, 1)

    def test_without_native_library_depthwise_falls_back_to_einsum(self, monkeypatch):
        """With no C library, an f64 NHWC depthwise train signature has one
        candidate left, the NumPy einsum kernel, and dispatch binds it."""
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: False)
        spec = spec_for(8, 8, 3, 1, 1, 8, 9, direction="train")
        assert [cls.name for cls in candidates(spec)] == ["depthwise_einsum"]
        assert isinstance(kernel_for(spec, _Arena(spec)), DepthwiseEinsumKernel)
        assert selection_table()[spec.describe()]["kernel"] == "depthwise_einsum"


class TestAutotuner:
    """``auto`` mode: the static rule, with a one-shot smoke call."""

    def test_auto_decision_is_cached_and_deterministic(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        smoked = []
        smoke = registry._smoke

        def counting_smoke(spec, cls):
            smoked.append((spec, cls.name))
            return smoke(spec, cls)

        monkeypatch.setattr(registry, "_smoke", counting_smoke)
        shape = (6, 6, 3, 1, 1, 6, 9)
        out1, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        key, row = next(
            (k, v) for k, v in selection_table().items() if k.startswith("depthwise:n4c6")
        )
        assert row["source"] == "rule"
        # The rule's first choice: the compiled kernel where it builds.
        expected = "depthwise_native" if _native.available() else "depthwise_einsum"
        assert row["kernel"] == expected
        # Only a choice with a rival is smoke-tested, once per signature: the
        # second compile of the same net binds the same kernels untested.
        assert len(smoked) == len(set(smoked)) == (1 if _native.available() else 0)
        out2, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        assert selection_table()[key] == row
        assert len(smoked) == (1 if _native.available() else 0)
        np.testing.assert_array_equal(out1, out2)

    def test_cache_stats_reports_kernel_table(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        net = conv_net(4, 4, 3, 1, 1, 4)
        compile_plan(net, (2, 4, 6, 6))
        stats = runtime.cache_stats()
        assert "kernels" in stats
        assert any(key.startswith("depthwise:") for key in stats["kernels"])
        assert all("kernel" in row and "source" in row for row in stats["kernels"].values())


class TestScratchArenas:
    def test_einsum_pad_copy_is_arena_backed(self, monkeypatch):
        """The NHWC einsum depthwise pad copy draws from the shared scratch
        arena — a plan-owned block sized by the aliasing pass — not a fresh
        per-call (or even per-plan private) allocation."""
        from repro.nn import Sequential as Seq
        from repro.runtime.kernels.registry import SCRATCH_PAD
        from repro.runtime.plan import Conv2dStep

        monkeypatch.setenv(ENV_VAR, "depthwise=depthwise_einsum")
        rng = np.random.default_rng(0)
        net = Seq(
            Conv2d(6, 6, 3, stride=1, padding=1, groups=6, rng=rng),
            Conv2d(6, 4, 3, stride=1, padding=1, rng=rng),  # dense head, unpinned
        )
        plan = compile_plan(net, (2, 6, 10, 10), dtype=np.float32)
        kernels = [
            step._kernel for step in plan.steps
            if isinstance(step, Conv2dStep) and isinstance(step._kernel, DepthwiseEinsumKernel)
        ]
        assert kernels, "pin did not select the einsum depthwise kernel"
        pad_block = plan._scratch_blocks.get(SCRATCH_PAD)
        assert pad_block is not None, "aliasing pass provisioned no pad arena"
        for kernel in kernels:
            assert kernel._xpad is not None
            assert np.shares_memory(kernel._xpad, pad_block)

    @pytest.mark.parametrize("native", [True, False], ids=["library", "no_library"])
    def test_dense_pad_copy_is_arena_backed(self, monkeypatch, native):
        """``im2col_nhwc``'s NumPy gather pads through the shared pad arena;
        the C gather reads the unpadded input and takes no pad block."""
        from repro.runtime.kernels.conv import Im2colNHWCKernel
        from repro.runtime.kernels.registry import SCRATCH_PAD
        from repro.runtime.plan import Conv2dStep

        if native and not _native.available():
            pytest.skip("the C library is disabled or cannot be built on this host")
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: native)
        rng = np.random.default_rng(0)
        net = Sequential(
            Conv2d(3, 6, 5, stride=2, padding=2, rng=rng),
            Conv2d(6, 4, 3, stride=1, padding=1, rng=rng),
        )
        for train in (False, True):
            plan = compile_plan(net, (2, 3, 11, 11), dtype=np.float32, train=train)
            kernels = [step._kernel for step in plan.steps if isinstance(step, Conv2dStep)]
            assert [type(k) for k in kernels] == [Im2colNHWCKernel] * 2
            pad_block = plan._scratch_blocks.get(SCRATCH_PAD)
            if native:
                assert pad_block is None
                assert all(k._xpad is None for k in kernels)
                continue
            assert pad_block is not None, "aliasing pass provisioned no pad arena"
            for kernel in kernels:
                assert np.shares_memory(kernel._xpad, pad_block)

    @pytest.mark.parametrize("native", [True, False], ids=["library", "no_library"])
    def test_upper_bound_covers_every_candidate(self, monkeypatch, native):
        """The arenas are sized before a kernel is chosen, so the bound covers
        every candidate's forward and backward requests; a dense conv asks for
        a pad block only where its gather runs in NumPy."""
        from repro.runtime.kernels import scratch_upper_bound
        from repro.runtime.kernels.registry import SCRATCH_PAD

        monkeypatch.setattr(_native, "available", lambda: native)
        for shape in SHAPES:
            for direction in ("infer", "train"):
                spec = spec_for(*shape, dtype="float32", direction=direction)
                bound = dict(scratch_upper_bound(spec))
                for cls in candidates(spec):
                    requests = list(cls.scratch_requests(spec))
                    if spec.train:
                        requests += list(cls.backward_scratch_requests(spec, True))
                    for channel, nbytes in requests:
                        assert bound.get(channel, 0) >= int(nbytes), (
                            spec.describe(), cls.name, channel)
                if spec.op_class == "dense" and spec.padding > 0:
                    assert (SCRATCH_PAD in bound) == (not native), spec.describe()

    @pytest.mark.parametrize("pin", ["depthwise=depthwise_einsum"])
    def test_backward_workspaces_are_arena_backed(self, monkeypatch, pin):
        """Every reverse-mode einsum workspace (padded input, dilated gout,
        gin staging) views a shared scratch block."""
        from repro.runtime.plan import Conv2dStep

        monkeypatch.setenv(ENV_VAR, pin)
        rng = np.random.default_rng(0)
        net = Sequential(  # expand / depthwise / project, as in the agents
            Conv2d(4, 8, 1, rng=rng),
            Conv2d(8, 8, 3, stride=1, padding=1, groups=8, rng=rng),
            Conv2d(8, 4, 1, rng=rng),
        )
        plan = compile_plan(net, (2, 4, 9, 9), dtype=np.float64, train=True)
        kernels = [
            step._kernel for step in plan.steps
            if isinstance(step, Conv2dStep) and isinstance(step._kernel, DepthwiseEinsumKernel)
        ]
        assert kernels
        blocks = list(plan._scratch_blocks.values())
        for kernel in kernels:
            for name in ("_gdil", "_ginh", "_xpad"):
                buf = getattr(kernel, name)
                assert any(np.shares_memory(buf, block) for block in blocks), name

    @pytest.mark.parametrize("kernel", ["depthwise_einsum", "depthwise_native"])
    def test_derived_agent_training_allocates_nothing_in_steady_state(self, monkeypatch, kernel):
        """An f64 A2C train plan for the inverted-residual derived agent, on
        each depthwise kernel: updates 3-8 compile nothing and draw no fresh
        pool bytes (counters, not time)."""
        from repro.cosearch import A3CSConfig
        from repro.drl import A2CConfig, A2CTrainer
        from repro.envs import make_vector_env

        if kernel == "depthwise_native" and not _native.available():
            pytest.skip("the C library is disabled or cannot be built on this host")
        monkeypatch.setenv(ENV_VAR, "depthwise=" + kernel)
        defaults = A3CSConfig()
        supernet = AgentSuperNet(in_channels=2, input_size=28,
                                 feature_dim=defaults.feature_dim,
                                 base_width=defaults.base_width,
                                 num_cells=defaults.num_cells,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                                 feature_dim=defaults.feature_dim,
                                 rng=np.random.default_rng(0))
        env = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0)
        trainer = A2CTrainer(agent, env, config=A2CConfig(num_envs=2, seed=0))

        def counters():
            stats = runtime.cache_stats()
            return (stats["train_plans"]["cache_misses"],
                    stats["inference_plans"]["cache_misses"],
                    stats["buffer_pools"]["bytes_fresh"])

        totals = [counters()]
        try:
            for _ in range(8):
                trainer.train(total_steps=trainer.total_env_steps + 1)
                totals.append(counters())
        finally:
            env.close()
        # Update 1 compiled the train plan, on the pinned depthwise kernel ...
        assert totals[1][0] > totals[0][0]
        assert any(
            row["kernel"] == kernel and "/train/" in key
            for key, row in selection_table().items()
        )
        # ... and updates 3-8 missed no plan cache and drew no fresh bytes,
        # which the trainer's own per-update runtime log reports too.
        assert totals[2:] == [totals[2]] * 7
        for name in ("runtime/train_plan_misses", "runtime/pool_bytes_fresh"):
            _, deltas = trainer.logger.series(name)
            assert len(deltas) == 8 and deltas[2:] == [0] * 6, name


def _naive_depthwise(x, w, gout, stride, padding):
    """Forward, weight VJP and input VJP of a depthwise conv by explicit loops.

    Plain float64 NCHW arithmetic over every output position and tap; shares
    no code (and no formulation) with the runtime kernels.
    """
    n, c, h, wd = x.shape
    k = w.shape[-1]
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((n, c, oh, ow))
    gw = np.zeros(w.shape)
    gin = np.zeros(x.shape)
    for y in range(oh):
        for xo in range(ow):
            for i in range(k):
                for j in range(k):
                    r = y * stride + i - padding
                    q = xo * stride + j - padding
                    if not (0 <= r < h and 0 <= q < wd):
                        continue
                    for b in range(n):
                        for ch in range(c):
                            out[b, ch, y, xo] += x[b, ch, r, q] * w[ch, 0, i, j]
                            gw[ch, 0, i, j] += gout[b, ch, y, xo] * x[b, ch, r, q]
                            gin[b, ch, r, q] += gout[b, ch, y, xo] * w[ch, 0, i, j]
    return out, gw, gin


def _assert_close_rel(got, expected, tol, what):
    scale = max(1.0, float(np.abs(expected).max()))
    err = float(np.abs(np.asarray(got, dtype=np.float64) - expected).max())
    assert err <= tol * scale, "{}: max error {:.3g} > {:.3g}".format(what, err, tol * scale)


class TestDepthwiseVJPReference:
    """Both depthwise kernels against naive loops.

    ``gw`` / ``gin`` arrive pre-filled (pinning the ``+=`` contract), and the
    plan's scratch arenas are filled with NaN bytes before each call, so a
    border or dilation zero that is not rewritten per call shows up as NaN.
    The compiled kernel runs wherever the C library builds.
    """

    KERNELS = (DepthwiseNativeKernel, DepthwiseEinsumKernel)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2])
    # One odd and one even extent: with s=2 one axis always has
    # (size + 2p - k) % s != 0, i.e. input rows no output tap reads.
    @pytest.mark.parametrize("hw", [(7, 8), (8, 7)])
    def test_matches_naive_loops(self, k, s, p, hw):
        from repro.runtime.kernels import scratch_upper_bound
        from repro.runtime.plan import Plan

        n, c = 3, 4
        h, wd = hw
        rng = np.random.default_rng(k * 100 + s * 10 + p)
        x = rng.standard_normal((n, c, h, wd))
        w = rng.standard_normal((c, 1, k, k))
        oh = (h + 2 * p - k) // s + 1
        ow = (wd + 2 * p - k) // s + 1
        gout = rng.standard_normal((n, c, oh, ow))
        gw0 = rng.standard_normal(w.shape)
        gin0 = rng.standard_normal(x.shape)
        ref_out, ref_gw, ref_gin = _naive_depthwise(x, w, gout, s, p)
        kernels = self.KERNELS if _native.available() else (DepthwiseEinsumKernel,)
        for cls in kernels:
            for dtype, tol in ((np.float64, F64_TOL), (np.float32, F32_TOL)):
                for input_grad in (True, False):
                    spec = ConvSpec(n, c, c, h, wd, k, s, p, c, np.dtype(dtype).name,
                                    "train")
                    assert cls.supports(spec)
                    plan = Plan(dtype=dtype, train=True)
                    plan._scratch_blocks = {
                        channel: plan.alloc((nbytes,), dtype=np.uint8)
                        for channel, nbytes in scratch_upper_bound(
                            spec, input_grad_needed=input_grad
                        )
                    }
                    kernel = cls(spec, plan)
                    kernel.allocate_backward(plan, input_grad)

                    def phys(a):
                        return np.array(a.transpose(0, 2, 3, 1), dtype=dtype, order="C")

                    out = np.empty(spec.out_shape, dtype=dtype)
                    for block in plan._scratch_blocks.values():
                        block.fill(0xFF)  # all-ones bytes are NaN in f32 and f64
                    kernel.forward(phys(x), w.astype(dtype), out, NULL_EPILOGUE)
                    gw = gw0.astype(dtype)
                    gin = phys(gin0) if input_grad else None
                    for block in plan._scratch_blocks.values():
                        block.fill(0xFF)
                    kernel.backward(phys(gout), phys(x), w.astype(dtype), gw, gin)
                    label = "{}/{}".format(cls.name, np.dtype(dtype).name)
                    _assert_close_rel(out, phys(ref_out), tol, label + " forward")
                    _assert_close_rel(gw, gw0 + ref_gw, tol, label + " weight VJP")
                    if input_grad:
                        _assert_close_rel(gin, phys(gin0 + ref_gin), tol, label + " input VJP")


def _tap_order_forward(x, wt, k, s, p):
    """Float NHWC depthwise forward summed in tap order: from +0, taps
    ``(i, j)`` ascending, one rounding per multiply and per add."""
    n, h, w, c = x.shape
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[:, p:p + h, p:p + w] = x
    out = np.zeros((n, oh, ow, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            out = out + xp[:, i:i + (oh - 1) * s + 1:s, j:j + (ow - 1) * s + 1:s] * wt[i * k + j]
    return out


@pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")
class TestDepthwiseNativeBytes:
    """The C forward adds each output's taps in ``(i, j)`` order from +0 with
    one rounding per operation, whatever its loop shape (the stride-1 rows
    run as one flat loop per tap), so it gives the tap-order sum's bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,c,h,k,s", [
        (2, 24, 14, 3, 1), (2, 40, 7, 5, 1), (3, 80, 4, 5, 1), (2, 160, 7, 3, 2),
        (2, 48, 14, 5, 2), (1, 8, 9, 3, 1), (2, 6, 5, 5, 1),
    ])
    def test_forward_is_the_tap_order_sum(self, dtype, n, c, h, k, s):
        p = k // 2
        spec = ConvSpec(n, c, c, h, h, k, s, p, c, np.dtype(dtype).name, "infer")
        rng = np.random.default_rng(c * 7 + h)
        x = rng.standard_normal(spec.in_shape).astype(dtype)
        weight = rng.standard_normal((c, 1, k, k)).astype(dtype)
        out = np.empty(spec.out_shape, dtype=dtype)
        DepthwiseNativeKernel(spec, _Arena(spec)).forward(x, weight, out, NULL_EPILOGUE)
        expected = _tap_order_forward(x, weight.reshape(c, -1).T, k, s, p)
        assert out.tobytes() == expected.tobytes()


@pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")
class TestDepthwiseNativeBinding:
    """``depthwise_native`` binds each C routine once and reuses it while the
    plan hands back the same buffers; a replaced buffer binds again."""

    SPEC = ConvSpec(2, 8, 8, 6, 6, 3, 2, 1, 8, "float32", "train")

    def count_binds(self, monkeypatch):
        calls = []
        real = _native.bind

        def counted(name, *args):
            calls.append(name)
            return real(name, *args)

        monkeypatch.setattr(_native, "bind", counted)
        return calls

    def run(self, kernel, x, out, gout, gin, seeds=(0, 1, 2)):
        """One forward+backward pass per seed, each with new weight values."""
        results = []
        for seed in seeds:
            weight = np.random.default_rng(seed).standard_normal((8, 1, 3, 3)).astype(np.float32)
            gw = np.zeros_like(weight)
            kernel.forward(x, weight, out, NULL_EPILOGUE)
            gin[...] = 1.0
            kernel.backward(gout, x, weight, gw, gin)
            results.append([a.tobytes() for a in (out, gw, gin)])
        return results

    def buffers(self):
        rng = np.random.default_rng(7)
        spec = self.SPEC
        x = rng.standard_normal(spec.in_shape).astype(np.float32)
        gout = rng.standard_normal(spec.out_shape).astype(np.float32)
        return x, np.empty(spec.out_shape, np.float32), gout, np.empty_like(x)

    def kernel(self):
        arena = _Arena(self.SPEC)
        kernel = DepthwiseNativeKernel(self.SPEC, arena)
        kernel.allocate_backward(arena, True)
        return kernel

    def test_steady_state_binds_once_per_routine(self, monkeypatch):
        x, out, gout, gin = self.buffers()
        calls = self.count_binds(monkeypatch)
        bound = self.run(self.kernel(), x, out, gout, gin)
        assert sorted(calls) == ["dw_bwd", "dw_fwd"]
        # Bitwise the same as a kernel bound afresh for every pass.
        fresh = [self.run(self.kernel(), x, out, gout, gin, seeds=(seed,))[0] for seed in range(3)]
        assert bound == fresh

    def test_replaced_buffer_binds_again(self, monkeypatch):
        x, out, gout, gin = self.buffers()
        kernel = self.kernel()
        calls = self.count_binds(monkeypatch)
        self.run(kernel, x, out, gout, gin, seeds=(0, 1))
        replaced = self.run(kernel, x, np.empty_like(out), gout, gin, seeds=(2,))
        assert calls == ["dw_fwd", "dw_bwd", "dw_fwd"]
        assert replaced == self.run(self.kernel(), x, out, gout, gin, seeds=(2,))


class TestBlasThreadRecording:
    """The BLAS thread count that performance records carry."""

    def test_blas_thread_count_positive(self):
        from repro.runtime.kernels import blas_thread_count

        assert blas_thread_count() >= 1

    def test_env_override_wins(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert blas_thread_count() == 3

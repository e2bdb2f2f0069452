"""Conv kernel registry: parity across implementations, dispatch, autotuning.

Every registered kernel must reproduce the im2col reference bit-tightly
(f64 <= 1e-12, f32 <= 1e-6) in both directions, across depthwise / grouped /
dense / pointwise signatures, strides and paddings — including stacked-path
and train-mode plans.  Dispatch must honour ``REPRO_KERNELS`` pinning, fall
back cleanly when a pinned kernel rejects a signature, and the autotuner
must make one cached, deterministic decision per signature per process.
"""

import numpy as np
import pytest

from repro import runtime
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.nn import Conv2d, Sequential
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ENV_VAR,
    ConvSpec,
    _native,
    candidates,
    clear_autotune_cache,
    kernel_for,
    kernel_names,
    selection_table,
)
from repro.runtime.kernels.conv import BlockedIm2colKernel
from repro.runtime.kernels.depthwise import DepthwiseEinsumKernel, DepthwiseNativeKernel
from repro.runtime.kernels.registry import reset_selections

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
    (6, 8, 3, 1, 1, 2, 7),     # grouped (non-depthwise)
    (3, 7, 3, 2, 1, 1, 9),     # dense strided
    (5, 9, 1, 1, 0, 1, 6),     # pointwise
)


def conv_net(cin, cout, k, s, p, g, seed=3):
    """Producer conv + conv-under-test + pointwise consumer.

    The producer exercises the input VJP path; the consumer keeps the conv
    under test off the plan's protected output, which must stay NCHW, so the
    layout pass may run it on a channels-last kernel.
    """
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(cin, cin, 3, stride=1, padding=1, rng=rng),
        Conv2d(cin, cout, k, stride=s, padding=p, groups=g, rng=rng),
        Conv2d(cout, cout, 1, rng=rng),
    )


def spec_for(cin, cout, k, s, p, g, h, batch=4, dtype="float64", direction="infer"):
    return ConvSpec(batch, cin, cout, h, h, k, s, p, g, dtype, direction)


def run_pinned(monkeypatch, pin, shape, dtype, train=False):
    """Compile + run (and backward) the two-conv net under one kernel pin."""
    cin, cout, k, s, p, g, h = shape
    monkeypatch.setenv(ENV_VAR, pin)
    net = conv_net(cin, cout, k, s, p, g)
    x = np.random.default_rng(11).random((4, cin, h, h)).astype(dtype)
    plan = compile_plan(net, x.shape, dtype=dtype, train=train)
    out = np.asarray(plan.run(x)).copy()
    grads = None
    if train:
        plan.zero_grads()
        plan.seed_grad(plan.output_slots[0], np.ones_like(out))
        plan.run_backward()
        grads = [g.copy() for _, g in plan.param_grads.values()]
    return out, grads


def class_pin(shape, name):
    """Pin ``name`` for the op class of the conv under test only.

    A bare pin would make every other conv of the net infeasible in both
    layouts, and with them the whole NHWC assignment: the channels-last
    kernels would never run.
    """
    return "{}={}".format(spec_for(*shape).op_class, name)


class TestKernelParity:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("dtype,tol", [(np.float64, F64_TOL), (np.float32, F32_TOL)])
    def test_forward_parity_all_kernels(self, monkeypatch, shape, dtype, tol):
        reference, _ = run_pinned(monkeypatch, "im2col", shape, dtype)
        for name in kernel_names():
            if name == "im2col":
                continue
            # Pinning a kernel that rejects the signature falls back — the
            # result must be correct either way.
            produced, _ = run_pinned(monkeypatch, class_pin(shape, name), shape, dtype)
            np.testing.assert_allclose(produced, reference, atol=tol, err_msg=name)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_backward_parity_all_kernels(self, monkeypatch, shape):
        reference, ref_grads = run_pinned(monkeypatch, "im2col", shape, np.float64, train=True)
        for name in kernel_names():
            if name == "im2col":
                continue
            produced, grads = run_pinned(
                monkeypatch, class_pin(shape, name), shape, np.float64, train=True
            )
            np.testing.assert_allclose(produced, reference, atol=F64_TOL, err_msg=name)
            assert len(grads) == len(ref_grads)
            for got, expected in zip(grads, ref_grads):
                np.testing.assert_allclose(got, expected, atol=F64_TOL, err_msg=name)

    def test_blocked_kernel_splits_batch(self, monkeypatch):
        """A signature big enough to block must still match the reference."""
        shape = (32, 32, 5, 1, 2, 32, 16)
        spec = spec_for(*shape, batch=4, dtype="float32")
        assert BlockedIm2colKernel.supports(spec)
        assert BlockedIm2colKernel._block(spec) < spec.batch
        reference, _ = run_pinned(monkeypatch, "im2col", shape, np.float32)
        produced, _ = run_pinned(monkeypatch, "im2col_block", shape, np.float32)
        np.testing.assert_allclose(produced, reference, atol=F32_TOL)

    def test_f32_fast_path_depthwise_native(self, monkeypatch):
        shape = (6, 6, 3, 1, 1, 6, 9)
        reference, _ = run_pinned(monkeypatch, "im2col", shape, np.float32)
        produced, _ = run_pinned(monkeypatch, class_pin(shape, "depthwise_native"), shape,
                                 np.float32)
        assert produced.dtype == np.float32
        np.testing.assert_allclose(produced, reference, atol=F32_TOL)


class TestStackedAndTrainPlans:
    def _grads(self, monkeypatch, pin, dtype=np.float64, num_samples=2):
        monkeypatch.setenv(ENV_VAR, pin)
        supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=32,
                                 base_width=8, num_cells=3,
                                 rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet, num_actions=4, feature_dim=32,
                                 rng=np.random.default_rng(0))
        agent.train()
        gated = tuple((2, 4) for _ in range(supernet.num_cells))
        x = np.random.default_rng(5).random((3, 2, 16, 16))
        plan = compile_plan(agent, x.shape, dtype=dtype, train=True,
                            gated_paths=gated, num_samples=num_samples)
        values = [np.full((num_samples, len(cell)), 0.5) for cell in plan.gate_layout]
        plan.set_gates(values)
        probs, _ = plan.run(x)
        plan.zero_grads()
        plan.seed_grad(plan.named_slots["logits"], np.ones((3 * num_samples, 4)))
        plan.seed_grad(plan.named_slots["value_col"], np.ones((3 * num_samples, 1)))
        plan.run_backward()
        return np.asarray(probs).copy(), [g.copy() for _, g in plan.param_grads.values()]

    def test_stacked_gated_train_plan_parity(self, monkeypatch):
        """Stacked-path supernet training: all kernels agree on alpha-path grads."""
        ref_probs, ref_grads = self._grads(monkeypatch, "im2col")
        probs, grads = self._grads(monkeypatch, "depthwise=depthwise_native")
        np.testing.assert_allclose(probs, ref_probs, atol=F64_TOL)
        for got, expected in zip(grads, ref_grads):
            np.testing.assert_allclose(got, expected, atol=1e-11)


class TestDispatch:
    # A pin naming a deleted kernel fails loudly like a typo, never silently.
    @pytest.mark.parametrize(
        "name", ["no_such_kernel", "depthwise_direct_q8", "depthwise_direct"]
    )
    def test_unknown_kernel_name_raises(self, monkeypatch, name):
        monkeypatch.setenv(ENV_VAR, name)
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="unknown kernel {!r}".format(name)):
            compile_plan(net, (2, 4, 6, 6))

    def test_unknown_op_class_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "bogus_class=im2col")
        net = conv_net(4, 4, 3, 1, 1, 4)
        with pytest.raises(ValueError, match="bogus_class"):
            compile_plan(net, (2, 4, 6, 6))

    def test_pin_is_recorded_per_signature(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "im2col")
        net = conv_net(4, 4, 3, 1, 1, 4)
        compile_plan(net, (2, 4, 6, 6))
        table = selection_table()
        row = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert row["kernel"] == "im2col"
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
        assert row["kernel"] != "depthwise_einsum"
        assert row["source"] == "pin-fallback"
        monkeypatch.setenv(ENV_VAR, "im2col")
        reference = compile_plan(
            Sequential(Conv2d(3, 5, 3, stride=1, padding=1, rng=np.random.default_rng(0))),
            x.shape,
        )
        np.testing.assert_allclose(plan.run(x), reference.run(x), atol=F64_TOL)

    def test_per_op_class_pins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "depthwise=depthwise_einsum,dense=im2col")
        net = conv_net(4, 4, 5, 2, 2, 4)  # producer dense k3 + depthwise k5 s2
        compile_plan(net, (2, 4, 9, 9))
        table = selection_table()
        dense = next(v for k, v in table.items() if k.startswith("dense:n2c4"))
        depthwise = next(v for k, v in table.items() if k.startswith("depthwise:n2c4"))
        assert dense["kernel"] == "im2col"
        assert depthwise["kernel"] == "depthwise_einsum"

    def test_candidates_respect_training(self):
        infer = spec_for(4, 4, 3, 1, 1, 4, 6, direction="infer")
        train = spec_for(4, 4, 3, 1, 1, 4, 6, direction="train")
        assert {cls.name for cls in candidates(train)} <= {
            cls.name for cls in candidates(infer)
        }
        assert all(cls.trains for cls in candidates(train))

    def test_depthwise_kernels_serve_nhwc_depthwise_only(self):
        for cls in (DepthwiseNativeKernel, DepthwiseEinsumKernel):
            assert not cls.supports(spec_for(3, 5, 3, 1, 1, 1, 8)._replace(layout="NHWC"))
            assert not cls.supports(spec_for(4, 4, 3, 1, 1, 4, 8))  # NCHW
        nhwc = spec_for(4, 4, 3, 1, 1, 4, 8)._replace(layout="NHWC")
        assert DepthwiseEinsumKernel.supports(nhwc)
        assert DepthwiseNativeKernel.supports(nhwc) == _native.available()

    def test_native_routines_reject_mismatched_operands(self):
        """The C loops trust their pointers, so the wrappers validate first."""
        if not _native.available():
            pytest.skip("the C library is disabled or cannot be built on this host")
        x = np.zeros((2, 6, 6, 4))
        w = np.zeros((9, 4))
        out = np.zeros((2, 6, 6, 4))
        _native.dw_fwd(x, w, out, 3, 1, 1)
        for bad_x, bad_w, bad_out in (
            (x[:, :, ::-1], w, out),            # strided view
            (x, w.astype(np.float32), out),     # mixed dtypes
            (x, w, out[:, :5]),                 # wrong output extent
            (x.astype(np.int64), w, out),       # no integer variant
        ):
            with pytest.raises(ValueError):
                _native.dw_fwd(bad_x, bad_w, bad_out, 3, 1, 1)
        with pytest.raises(ValueError):
            _native.dw_bwd(x, w, out, np.zeros((9, 4)), x[:1], 3, 1, 1)

    def test_without_native_library_depthwise_falls_back_to_einsum(self, monkeypatch):
        """With no C library, an f64 NHWC depthwise train signature has one
        candidate left, the NumPy einsum kernel, and dispatch binds it."""
        from repro.runtime.kernels.autotune import _BenchArena

        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.setattr(_native, "available", lambda: False)
        spec = spec_for(8, 8, 3, 1, 1, 8, 9, direction="train")._replace(layout="NHWC")
        assert [cls.name for cls in candidates(spec)] == ["depthwise_einsum"]
        assert isinstance(kernel_for(spec, _BenchArena(spec)), DepthwiseEinsumKernel)
        assert selection_table()[spec.describe()]["kernel"] == "depthwise_einsum"


class TestAutotuner:
    def test_auto_decision_is_cached_and_deterministic(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        clear_autotune_cache()
        shape = (6, 6, 3, 1, 1, 6, 9)
        out1, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        table = selection_table()
        key, row = next(
            (k, v) for k, v in table.items() if k.startswith("depthwise:n4c6")
        )
        assert row["source"] in ("autotuned", "only")
        first_choice = row["kernel"]
        # Second compile of the same signature must reuse the cached winner
        # without re-timing (deterministic within the process).
        out2, _ = run_pinned(monkeypatch, "auto", shape, np.float64)
        row = selection_table()[key]
        assert row["kernel"] == first_choice
        assert row["source"] == "cached"
        np.testing.assert_array_equal(out1, out2)

    def test_autotuned_rows_report_timings(self, monkeypatch):
        clear_autotune_cache()
        shape = (6, 6, 3, 1, 1, 6, 9)
        run_pinned(monkeypatch, "auto", shape, np.float64)
        row = next(
            v for k, v in selection_table().items() if k.startswith("depthwise:n4c6")
        )
        if row["source"] == "autotuned":
            expected = (
                {"im2col_block", "im2col"} if row["layout"] == "NCHW"
                else {"depthwise_native", "depthwise_einsum"}
            )
            assert set(row["timings_ms"]) == expected
            assert all(t > 0 for t in row["timings_ms"].values())

    def test_cache_stats_reports_kernel_table(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "im2col")
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
        assert kernels and all(k.spec.layout == "NHWC" for k in kernels)
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
        from repro.runtime.kernels.autotune import NULL_EPILOGUE
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
                                    "train", "NHWC")
                    assert cls.supports(spec)
                    plan = Plan(dtype=dtype, train=True)
                    plan._scratch_blocks = {
                        channel: plan.alloc((nbytes,), dtype=np.uint8)
                        for channel, nbytes in scratch_upper_bound(
                            spec, input_grad_needed=input_grad, layouts=("NHWC",)
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


class TestBlasThreadRecording:
    """Selection rows carry the BLAS thread context they were decided under."""

    def test_blas_thread_count_positive(self):
        from repro.runtime.kernels import blas_thread_count

        assert blas_thread_count() >= 1

    def test_env_override_wins(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert blas_thread_count() == 3

    def test_every_selection_row_reports_host_threads(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        monkeypatch.setenv(ENV_VAR, "heuristic")
        compile_plan(conv_net(4, 4, 3, 1, 1, 4), (2, 4, 6, 6))
        table = selection_table()
        assert table
        for row in table.values():
            assert row["host_blas_threads"] == blas_thread_count()
            # Heuristic selection never timed, so no timed context exists.
            assert "timed_blas_threads" not in row

    def test_timed_rows_record_tuning_thread_context(self, monkeypatch):
        from repro.runtime.kernels import blas_thread_count

        clear_autotune_cache()
        run_pinned(monkeypatch, "auto", (6, 6, 3, 1, 1, 6, 9), np.float64)
        row = next(
            v for k, v in selection_table().items() if k.startswith("depthwise:n4c6")
        )
        if row["source"] == "autotuned":
            assert row["timed_blas_threads"] == blas_thread_count()

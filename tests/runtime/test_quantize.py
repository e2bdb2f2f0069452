"""Quantized inference path: kernels, calibration, the quantize pass, lint.

Four layers of guarantees:

* **Kernel numerics** — every registered q8 kernel (including the
  compiled C one when the host can build it) is *bitwise identical* to
  an int64-accumulate reference that applies the documented requant
  sequence, across shapes, strides, fused ReLU and fused residuals.  This
  is the contract that lets the autotuner swap candidates freely.
* **Calibration** — rollout range harvesting observes true per-slot
  activations (no aliasing contamination), serialises losslessly, and
  refuses to apply to mismatched plans.
* **Plan integration** — a calibrated compile lowers eligible convs to
  integer kernels bracketed by quantize/dequantize boundary steps, heads
  stay float, accuracy degrades gracefully, and the opt-out path is bitwise identical to an uncalibrated compile.
* **Lint** — scale-mismatched edges, un-dequantized integer reads and
  quantized convs in training plans are rejected.
"""

import json

import numpy as np
import pytest

from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.nn import Conv2d, ReLU, Sequential
from repro.runtime import Calibrator, QuantCalibration, compile_plan
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV
from repro.runtime.kernels import _native, candidates
from repro.runtime.kernels.quantized import RequantEpilogue
from repro.runtime.kernels.registry import (
    ConvSpec,
    _Arena,
    kernel_for,
    reset_selections,
    selection_table,
)
from repro.runtime.passes import PlanLintError, lint_plan
from repro.runtime.plan import Conv2dStep, DequantizeStep, QuantInfo, QuantizeStep

#: mode -> (activation dtype, exact-accumulate float dtype, clip bound)
QMODES = {"q8": (np.int8, np.float32, 127)}

#: Kernel pins that force every depthwise/pointwise conv onto NHWC-only
#: float kernels, so the layout pass deterministically assigns NHWC and the
#: quantize pass sees eligible chains regardless of host timings.
NHWC_PINS = "depthwise=depthwise_einsum,pointwise=pointwise_nhwc"


@pytest.fixture(autouse=True)
def _fresh_selection_table():
    reset_selections()
    yield
    reset_selections()


# --------------------------------------------------------------------- #
# Kernel-level bitwise parity
# --------------------------------------------------------------------- #

#: (batch, channels, height, kernel, stride, padding) depthwise geometries.
DW_SHAPES = (
    (3, 8, 12, 3, 1, 1),
    (2, 6, 9, 5, 1, 2),
    (2, 8, 8, 3, 2, 1),
    (2, 5, 7, 5, 2, 2),
    (2, 4, 6, 3, 1, 0),
)


def _dw_spec(mode, n, c, h, k, s, p):
    return ConvSpec(n, c, c, h, h, k, s, p, c, "float32", "infer", mode)


def _pw_spec(mode, n, cin, cout, h):
    return ConvSpec(n, cin, cout, h, h, 1, 1, 0, 1, "float32", "infer", mode)


def _random_epilogue(spec, rng, relu, with_res):
    epi = RequantEpilogue(spec.out_channels, spec.acc_dtype, spec.qmax, relu=relu)
    epi.scale[...] = rng.uniform(1e-3, 2e-2, spec.out_channels)
    epi.bias[...] = rng.uniform(-3.0, 3.0, spec.out_channels)
    res = None
    if with_res:
        res = rng.integers(
            -spec.qmax, spec.qmax + 1, (spec.batch, spec.out_height, spec.out_width, spec.out_channels)
        ).astype(spec.act_dtype)
        epi.res = res
        epi.res_scale = float(rng.uniform(0.1, 1.5))
    return epi, res


def _requant_reference(acc_i64, epi, res, acc_dtype):
    """The documented requant sequence, applied to the exact i64 accumulator."""
    acc = acc_i64.astype(acc_dtype)
    acc = acc * epi.scale
    acc = acc + epi.bias
    if res is not None:
        acc = acc + res * acc_dtype.type(epi.res_scale)
    acc = np.clip(acc, acc_dtype.type(epi.lo), acc_dtype.type(epi.hi))
    return np.rint(acc).astype(np.int8)


def _depthwise_reference(spec, x, weight, epi, res):
    n, c, h = spec.batch, spec.in_channels, spec.height
    k, s, p = spec.kernel, spec.stride, spec.padding
    oh, ow = spec.out_height, spec.out_width
    xp = np.zeros((n, h + 2 * p, h + 2 * p, c), dtype=np.int64)
    xp[:, p:p + h, p:p + h, :] = x
    wt = weight.reshape(c, k * k).T.astype(np.int64)  # (k*k, c)
    acc = np.zeros((n, oh, ow, c), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            window = xp[:, i:i + (oh - 1) * s + 1:s, j:j + (ow - 1) * s + 1:s, :]
            acc += window * wt[i * k + j]
    return _requant_reference(acc, epi, res, spec.acc_dtype)


def _pointwise_reference(spec, x, weight, epi, res):
    n, h = spec.batch, spec.height
    acc = (
        x.reshape(-1, spec.in_channels).astype(np.int64)
        @ weight.reshape(spec.out_channels, spec.in_channels).T.astype(np.int64)
    ).reshape(n, h, h, spec.out_channels)
    return _requant_reference(acc, epi, res, spec.acc_dtype)


#: Serve-sized depthwise geometries: the derived agent's channel counts at
#: its feature-map sizes, k 3/5, stride 1 and 2 (``C`` not a SIMD width).
SERVE_DW_SHAPES = tuple(
    (2, c, h, k, s, k // 2)
    for c in (24, 40, 48, 80, 160) for h in (14, 7, 4) for k in (3, 5) for s in (1, 2)
)


class TestQuantKernelParity:
    @pytest.mark.parametrize("mode", sorted(QMODES))
    @pytest.mark.parametrize("shape", DW_SHAPES)
    def test_depthwise_bitwise_vs_i64_reference(self, mode, shape):
        self.check_depthwise(mode, shape)

    @pytest.mark.parametrize("shape", SERVE_DW_SHAPES)
    def test_serve_sized_depthwise_bitwise_vs_i64_reference(self, shape):
        self.check_depthwise("q8", shape)

    @staticmethod
    def check_depthwise(mode, shape):
        spec = _dw_spec(mode, *shape)
        cands = candidates(spec)
        assert cands, "no quant depthwise candidates registered"
        rng = np.random.default_rng(hash((mode,) + shape) % 2**32)
        qmax = spec.qmax
        x = rng.integers(-qmax, qmax + 1, spec.in_shape).astype(spec.act_dtype)
        weight = rng.integers(-qmax, qmax + 1, (spec.out_channels, 1, spec.kernel, spec.kernel)).astype(spec.act_dtype)
        for relu in (False, True):
            for with_res in (False, True):
                epi, res = _random_epilogue(spec, rng, relu, with_res)
                expected = _depthwise_reference(spec, x, weight, epi, res)
                for cls in cands:
                    out = np.empty(spec.out_shape, dtype=spec.act_dtype)
                    cls(spec, _Arena(spec)).forward(x, weight, out, epi)
                    assert np.array_equal(out, expected), (
                        "{} diverges (relu={}, res={})".format(cls.name, relu, with_res)
                    )

    @pytest.mark.parametrize("mode", sorted(QMODES))
    @pytest.mark.parametrize("cin,cout,h", (
        (8, 16, 6), (16, 8, 5), (7, 9, 4),
        # Serve-sized: 3*7*7 rows of C=24 against the 42-row replicated
        # span (1008 elements) and 3*14*14 rows of C=80 against 12 rows.
        (40, 24, 7), (24, 80, 14), (160, 48, 4),
    ))
    def test_pointwise_bitwise_vs_i64_reference(self, mode, cin, cout, h):
        spec = _pw_spec(mode, 3, cin, cout, h)
        cands = candidates(spec)
        assert cands
        rng = np.random.default_rng(cin * 131 + cout)
        qmax = spec.qmax
        x = rng.integers(-qmax, qmax + 1, spec.in_shape).astype(spec.act_dtype)
        weight = rng.integers(-qmax, qmax + 1, (cout, cin, 1, 1)).astype(spec.act_dtype)
        for relu in (False, True):
            for with_res in (False, True):
                epi, res = _random_epilogue(spec, rng, relu, with_res)
                expected = _pointwise_reference(spec, x, weight, epi, res)
                for cls in cands:
                    out = np.empty(spec.out_shape, dtype=spec.act_dtype)
                    cls(spec, _Arena(spec)).forward(x, weight, out, epi)
                    assert np.array_equal(out, expected), cls.name

    def test_native_kernels_registered_when_available(self):
        names = [cls.name for cls in candidates(_dw_spec("q8", 2, 4, 6, 3, 1, 1))]
        if _native.available():
            assert "depthwise_native_q8" in names
        assert "depthwise_einsum_q8" in names  # always-available fallback

    @pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")
    def test_requant_native_matches_numpy_fallback(self):
        """The C requant tail, run in spans of replicated scale/bias rows from
        an offset row, and the 5-pass NumPy tail agree bitwise: 10 rows of
        C=6 from row 3, against a 4-row span (neither divides the other)."""
        rng = np.random.default_rng(0)
        act_dtype, acc_dtype, qmax = QMODES["q8"]
        for relu in (False, True):
            epi = RequantEpilogue(6, acc_dtype, qmax, relu=relu)
            epi.scale[...] = rng.uniform(1e-3, 2e-2, 6)
            epi.bias[...] = rng.uniform(-2, 2, 6)
            epi.res_scale = 0.7
            acc = rng.integers(-qmax * 20, qmax * 20, (10, 6)).astype(acc_dtype)
            res = rng.integers(-qmax, qmax + 1, (16, 6)).astype(act_dtype)
            scale, bias = np.tile(epi.scale, 4), np.tile(epi.bias, 4)
            for r in (None, res):
                native_out = np.zeros((16, 6), dtype=act_dtype)
                run = _native.requant_q8_bind(acc.copy(), scale, bias, r, native_out)
                run(3 * 6, acc.size, epi.res_scale, epi.lo, epi.hi)
                numpy_out = np.zeros((16, 6), dtype=act_dtype)
                epi.requant(acc.copy(), numpy_out[3:13], res=None if r is None else r[3:13])
                assert np.array_equal(native_out, numpy_out), (relu, r is None)


# --------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------- #

def quantizable_net(seed=7):
    """Depthwise/pointwise chain with fusable ReLUs: everything the
    quantize pass can lower except the protected output conv."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(8, 8, 3, stride=1, padding=1, groups=8, rng=rng),
        ReLU(),
        Conv2d(8, 16, 1, rng=rng),
        ReLU(),
        Conv2d(16, 16, 5, stride=1, padding=2, groups=16, rng=rng),
        # Dense head: its op class is unpinned (both layouts stay feasible
        # even though it writes the protected output slot) and it has no
        # quantized kernels, so it doubles as the heads-stay-float check.
        Conv2d(16, 8, 3, stride=1, padding=1, rng=rng),
    )


SHAPE = (4, 8, 12, 12)


def _calibrate(net, batches, dtype=np.float32, **kwargs):
    cal = Calibrator(net, SHAPE, dtype=dtype, **kwargs)
    for x in batches:
        cal.observe(x)
    return cal


def _batches(count=3, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(SHAPE).astype(np.float32) for _ in range(count)]


class TestCalibration:
    def test_observes_every_activation_slot(self):
        net = quantizable_net()
        cal = _calibrate(net, _batches())
        calib = cal.result(mode="q8")
        # Every conv in/out slot must have per-channel stats with positive scale.
        observed = [s for s in range(len(cal._plan._shapes)) if calib.scale(s, 127) is not None]
        assert len(observed) >= 5
        for slot in observed:
            assert calib.scale(slot, 127) > 0

    def test_scale_is_amax_over_qmax(self):
        calib = QuantCalibration(
            input_shape=SHAPE, path=None, dtype="float32", mode="q8",
            amax={0: np.array([2.0, 254.0])}, digest="",
        )
        assert calib.scale(0, 127) == pytest.approx(2.0)
        assert calib.scale(1, 127) is None
        degenerate = QuantCalibration(
            input_shape=SHAPE, path=None, dtype="float32", mode="q8",
            amax={0: np.array([0.0, 0.0])}, digest="",
        )
        assert degenerate.scale(0, 127) == pytest.approx(1.0 / 127)

    def test_json_round_trip(self):
        cal = _calibrate(quantizable_net(), _batches())
        calib = cal.result(mode="q8")
        payload = json.loads(calib.to_json())
        assert "num_slots" not in payload  # the plan digest covers every slot
        payload["policy"] = "minmax"  # written by older versions; ignored
        payload["num_slots"] = 99  # likewise
        clone = QuantCalibration.from_json(json.dumps(payload))
        assert clone.mode == calib.mode
        assert clone.input_shape == calib.input_shape
        assert clone.matches(SHAPE, None, np.dtype(np.float32))
        for slot in range(len(cal._plan._shapes)):
            ours, theirs = calib.scale(slot, 127), clone.scale(slot, 127)
            assert (ours is None) == (theirs is None)
            if ours is not None:
                assert ours == pytest.approx(theirs, rel=0, abs=0)

    def test_from_json_rejects_stale_mode(self):
        """int8 is the only quant mode: a removed mode is refused, not served."""
        cal = _calibrate(quantizable_net(), _batches())
        with pytest.raises(ValueError, match="quant mode"):
            cal.result(mode="q16")
        payload = json.loads(cal.result(mode="q8").to_json())
        payload["mode"] = "q16"
        with pytest.raises(ValueError, match="quant mode"):
            QuantCalibration.from_json(json.dumps(payload))

    def test_from_json_rejects_missing_digest(self):
        """A calibration that cannot name the plan it observed is refused."""
        payload = json.loads(_calibrate(quantizable_net(), _batches()).result().to_json())
        del payload["digest"]
        with pytest.raises(ValueError, match="digest"):
            QuantCalibration.from_json(json.dumps(payload))

    def test_matches_keys_on_shape_path_dtype(self):
        calib = _calibrate(quantizable_net(), _batches()).result()
        assert calib.matches(SHAPE, None, np.dtype(np.float32))
        assert not calib.matches((8,) + SHAPE[1:], None, np.dtype(np.float32))
        assert not calib.matches(SHAPE, None, np.dtype(np.float64))
        assert not calib.matches(SHAPE, (1, 2), np.dtype(np.float32))


# --------------------------------------------------------------------- #
# Plan integration
# --------------------------------------------------------------------- #

def _quantized_setup(monkeypatch):
    monkeypatch.setenv(KERNELS_ENV, NHWC_PINS)
    net = quantizable_net()
    batches = _batches()
    calib = _calibrate(net, batches).result(mode="q8")
    return net, batches, calib


class TestQuantizedPlans:
    def test_structure_accuracy_and_opt_out(self, monkeypatch):
        net, batches, calib = _quantized_setup(monkeypatch)
        ref_plan = compile_plan(net, SHAPE, dtype=np.float32)
        refs = [np.asarray(ref_plan.run(x)).copy() for x in batches]

        qplan = compile_plan(net, SHAPE, dtype=np.float32, quantize=calib)
        quantized = [s for s in qplan.steps if isinstance(s, Conv2dStep) and s.quant is not None]
        assert len(quantized) >= 2, "quantize pass lowered nothing"
        # The output-writing conv is protected and must stay float.
        out_slot = qplan.output_slots[0]
        for step in qplan.steps:
            if isinstance(step, Conv2dStep) and step.out_slot == out_slot:
                assert step.quant is None
        assert any(isinstance(s, QuantizeStep) for s in qplan.steps)
        assert any(isinstance(s, DequantizeStep) for s in qplan.steps)
        lint_plan(qplan)  # boundary-scale invariants hold

        errs = []
        for x, ref in zip(batches, refs):
            got = np.asarray(qplan.run(x))
            errs.append(np.abs(got - ref).max())
        absmax = max(np.abs(r).max() for r in refs)
        assert max(errs) < 0.1 * absmax, (max(errs), absmax)

        # Opt-out path: a compile without a calibration is bitwise identical.
        plain = compile_plan(net, SHAPE, dtype=np.float32)
        for x, ref in zip(batches, refs):
            assert np.array_equal(np.asarray(plain.run(x)), ref)

    def test_mismatched_calibration_declines(self, monkeypatch):
        net, batches, calib = _quantized_setup(monkeypatch)
        stale = QuantCalibration(
            input_shape=calib.input_shape, path=calib.path, dtype=calib.dtype,
            mode="q8", amax={0: np.array([1.0])}, digest=calib.digest,
        )
        ref_plan = compile_plan(net, SHAPE, dtype=np.float32)
        plan = compile_plan(net, SHAPE, dtype=np.float32, quantize=stale)
        assert not any(isinstance(s, QuantizeStep) for s in plan.steps)
        x = batches[0]
        assert np.array_equal(np.asarray(plan.run(x)), np.asarray(ref_plan.run(x)))

    def test_calibration_of_another_plan_declines(self, monkeypatch):
        """Same signature and slot count, other plan: the digest refuses it.

        Swapping the two pointwise widths keeps every slot id and the slot
        count, so only the digest tells the plans apart.
        """
        net, batches, _ = _quantized_setup(monkeypatch)
        rng = np.random.default_rng(7)
        other = Sequential(
            Conv2d(8, 8, 3, stride=1, padding=1, groups=8, rng=rng),
            ReLU(),
            Conv2d(8, 24, 1, rng=rng),
            ReLU(),
            Conv2d(24, 24, 5, stride=1, padding=2, groups=24, rng=rng),
            Conv2d(24, 8, 3, stride=1, padding=1, rng=rng),
        )
        foreign_cal, own_cal = _calibrate(other, batches), _calibrate(net, batches)
        foreign, own = foreign_cal.result(mode="q8"), own_cal.result(mode="q8")
        assert len(foreign_cal._plan._shapes) == len(own_cal._plan._shapes)
        assert foreign.digest != own.digest
        plan = compile_plan(net, SHAPE, dtype=np.float32, quantize=foreign)
        assert not any(isinstance(s, QuantizeStep) for s in plan.steps)
        assert any(
            isinstance(s, QuantizeStep)
            for s in compile_plan(net, SHAPE, dtype=np.float32, quantize=own).steps
        )

    def test_train_plans_never_quantize(self, monkeypatch):
        net, _, calib = _quantized_setup(monkeypatch)
        plan = compile_plan(net, SHAPE, dtype=np.float32, train=True, quantize=calib)
        assert not any(isinstance(s, (QuantizeStep, DequantizeStep)) for s in plan.steps)
        for step in plan.steps:
            if isinstance(step, Conv2dStep):
                assert step.quant is None

    def test_selection_table_reports_quant_signatures(self, monkeypatch):
        net, batches, calib = _quantized_setup(monkeypatch)
        plan = compile_plan(net, SHAPE, dtype=np.float32, quantize=calib)
        plan.run(batches[0])
        rows = selection_table()
        q8_rows = {sig: row for sig, row in rows.items() if "/q8" in sig}
        assert q8_rows
        for row in q8_rows.values():
            assert row["kernel"].endswith("_q8")

    def test_derived_agent_boundary_steps_stay_rare(self, monkeypatch):
        """int8 chains run through consecutive convs of the derived agent.

        One quantize/dequantize pair per conv would erase the int8 win; the pass
        must pay only a few boundary steps for the whole inverted-residual stack.
        """
        monkeypatch.setenv(KERNELS_ENV, "heuristic")
        supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128,
                                 base_width=16, rng=np.random.default_rng(0))
        agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                                 feature_dim=128, rng=np.random.default_rng(0))
        agent.eval()
        shape = (16, 2, 32, 32)
        calibrator = Calibrator(agent, shape, dtype=np.float32)
        rng = np.random.default_rng(0)
        for _ in range(3):
            calibrator.observe(rng.random(shape).astype(np.float32))
        plan = compile_plan(agent, shape, dtype=np.float32, quantize=calibrator.result("q8"))
        quantized = sum(
            1 for s in plan.steps if isinstance(s, Conv2dStep) and s.quant is not None
        )
        boundary = sum(1 for s in plan.steps if isinstance(s, (QuantizeStep, DequantizeStep)))
        assert quantized >= 1, "quantize pass lowered nothing"
        assert boundary <= quantized // 4 + 4, (quantized, boundary)


class TestQuantLint:
    def test_scale_mismatch_rejected(self, monkeypatch):
        net, _, calib = _quantized_setup(monkeypatch)
        plan = compile_plan(net, SHAPE, dtype=np.float32, quantize=calib)
        conv = next(s for s in plan.steps if isinstance(s, Conv2dStep) and s.quant is not None)
        conv.quant.in_scale *= 2.0
        with pytest.raises(PlanLintError, match="scale"):
            lint_plan(plan)

    def test_undequantized_edge_rejected(self, monkeypatch):
        net, _, calib = _quantized_setup(monkeypatch)
        plan = compile_plan(net, SHAPE, dtype=np.float32, quantize=calib)
        dequant = next(s for s in plan.steps if isinstance(s, DequantizeStep))
        reader = next(
            s for s in plan.steps
            if not isinstance(s, DequantizeStep) and getattr(s, "in_slot", None) == dequant.out_slot
        )
        reader.in_slot = dequant.in_slot  # read the integer slot directly
        with pytest.raises(PlanLintError, match="dequantiz"):
            lint_plan(plan)

    def test_quantized_conv_in_train_plan_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, NHWC_PINS)
        net = quantizable_net()
        plan = compile_plan(net, SHAPE, dtype=np.float32, train=True)
        conv = next(s for s in plan.steps if isinstance(s, Conv2dStep))
        conv.quant = QuantInfo("q8", 0.1, 0.1, 0.0)
        with pytest.raises(PlanLintError, match="training"):
            lint_plan(plan)


# --------------------------------------------------------------------- #
# Dispatch hygiene under mixed signatures
# --------------------------------------------------------------------- #

class TestQuantDispatch:
    def test_candidates_partition_by_quant(self):
        f_spec = _dw_spec("", 2, 8, 8, 3, 1, 1)._replace(quant="")
        q_spec = _dw_spec("q8", 2, 8, 8, 3, 1, 1)
        float_names = {cls.name for cls in candidates(f_spec)}
        quant_names = {cls.name for cls in candidates(q_spec)}
        assert not any(n.endswith("_q8") for n in float_names)
        assert all(n.endswith("_q8") for n in quant_names)
        # Quantized kernels are inference-only.
        assert not candidates(q_spec._replace(direction="train"))

    def test_float_pin_falls_back_on_quant_spec(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "depthwise=depthwise_einsum")
        spec = _dw_spec("q8", 2, 8, 8, 3, 1, 1)
        kernel = kernel_for(spec, _Arena(spec))
        assert kernel.name.endswith("_q8")
        row = selection_table()[spec.describe()]
        assert row["source"] == "pin-fallback"

    def test_quant_pin_falls_back_on_float_spec(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "depthwise=depthwise_native_q8")
        spec = _dw_spec("", 2, 8, 8, 3, 1, 1)._replace(quant="")
        kernel = kernel_for(spec, _Arena(spec))
        assert not kernel.name.endswith("_q8")
        row = selection_table()[spec.describe()]
        assert row["source"] == "pin-fallback"

    def test_autotune_quant_decision_cached_and_complete(self, monkeypatch):
        """The rule binds the compiled q8 kernel where it builds, the einsum
        one elsewhere, and the same one on every bind."""
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        spec = _dw_spec("q8", 2, 8, 10, 3, 1, 1)
        first = kernel_for(spec, _Arena(spec))
        second = kernel_for(spec, _Arena(spec))
        expected = "depthwise_native_q8" if _native.available() else "depthwise_einsum_q8"
        assert first.name == second.name == expected
        row = selection_table()[spec.describe()]
        assert row == {"kernel": expected, "source": "rule", "layout": "NHWC"}

"""Compiled channels-last batch norm is bitwise equal to the NumPy path.

``bn_stats``, ``bn_apply`` and ``bn_vjp`` of :mod:`repro.runtime.kernels._native`
replace NumPy passes over NHWC float slots in the plan steps.  They must give
the same bits, so a training run does not depend on whether the library was
built.  Every check runs the same step twice, once routed to the library and
once with the library reported unavailable, and compares bytes.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d
from repro.runtime import plan as plan_mod
from repro.runtime.kernels import _native
from repro.runtime.plan import BatchNormStep, Conv2dStep, _ParamCache

needs_library = pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")

#: (N, H, W, C): single channel (routed to NumPy), odd channel counts, one row.
SHAPES = [(1, 1, 1, 1), (2, 3, 3, 1), (1, 1, 1, 5), (2, 5, 5, 7), (4, 6, 6, 16), (2, 7, 7, 33)]
ACTIVATIONS = [None, "relu", "tanh"]


def make_bn(c, training, seed):
    rng = np.random.default_rng(seed)
    bn = BatchNorm2d(c)
    bn.gamma.data = rng.standard_normal(c)
    bn.beta.data = rng.standard_normal(c)
    bn.running_mean[...] = rng.standard_normal(c)
    bn.running_var[...] = rng.random(c) + 0.5
    bn.train(training)
    return bn


def arrays(shape, dtype, seed, count):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype) for _ in range(count)]


def run_both(monkeypatch, fn):
    """``fn()``'s byte strings with the library routed in, then with it unavailable."""
    native = fn()
    with monkeypatch.context() as patch:
        patch.setattr(_native, "available", lambda: False)
        fallback = fn()
    return native, fallback


def digest(*items):
    return [np.ascontiguousarray(item).tobytes() for item in items]


def batchnorm_step(shape, dtype, training, activation, groups):
    """Forward and backward of a standalone NHWC ``BatchNormStep``."""
    c = shape[-1]
    bn = make_bn(c, training, seed=1)
    step = BatchNormStep(bn, 0, 1, activation=activation, num_samples=groups)
    step.layout = "NHWC"
    step._params = _ParamCache(np.dtype(dtype))
    step._capture_stats = True
    step._pg_gamma = np.zeros(c, dtype)
    step._pg_beta = np.zeros(c, dtype)
    step._bw_ws = np.empty(shape, dtype)
    x, gout, gin = arrays(shape, dtype, seed=2, count=3)
    bufs = [x, np.empty_like(x)]
    step.run(bufs)
    out = bufs[1].copy()
    step.backward(bufs, [gin, gout])
    return digest(out, gin, gout, step._pg_gamma, step._pg_beta, bn.running_mean, bn.running_var)


def conv_epilogue(shape, dtype, training, activation, bias, residual):
    """The fused bias + batch-norm (+ residual) + activation epilogue of an NHWC conv."""
    c = shape[-1]
    conv = Conv2d(c, c, 1, bias=bias, rng=np.random.default_rng(3))
    bn = make_bn(c, training, seed=4)
    step = Conv2dStep(conv, 0, 1, bn=bn, activation=activation)
    step.layout = "NHWC"
    out, res = arrays(shape, dtype, seed=5, count=2)
    step._apply_bn_bias_act(out, conv.bias, _ParamCache(np.dtype(dtype)),
                            res=res if residual else None)
    return digest(out, bn.running_mean, bn.running_var)


@needs_library
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_routing(dtype):
    for shape in SHAPES:
        x = np.zeros(shape, dtype)
        assert plan_mod._native_bn("NHWC", x) == (shape[-1] > 1)
        assert not plan_mod._native_bn("NCHW", x)
        assert not plan_mod._native_bn("NHWC", x.astype(np.float16))
    strided = np.zeros((2, 3, 3, 8), dtype)[..., ::2]
    assert not plan_mod._native_bn("NHWC", strided)


@needs_library
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("activation", ACTIVATIONS, ids=str)
class TestBitwiseContract:
    def test_batchnorm_step(self, monkeypatch, dtype, training, activation):
        for shape in SHAPES:
            groups = [1, 2] if training else [1]
            for k in groups:
                stacked = (shape[0] * k,) + shape[1:]
                native, fallback = run_both(
                    monkeypatch, lambda: batchnorm_step(stacked, dtype, training, activation, k))
                assert native == fallback, (stacked, k)

    def test_conv_epilogue(self, monkeypatch, dtype, training, activation):
        for shape in SHAPES:
            for bias in (False, True):
                for residual in (False, True):
                    native, fallback = run_both(
                        monkeypatch,
                        lambda: conv_epilogue(shape, dtype, training, activation, bias, residual))
                    assert native == fallback, (shape, bias, residual)


@needs_library
class TestOperandValidation:
    def test_rejects_bad_operands(self):
        x = np.ones((2, 3, 3, 4), np.float32)
        vec = np.empty(4, np.float32)
        with pytest.raises(ValueError):
            _native.bn_stats(x, vec, np.empty(4, np.float64))
        with pytest.raises(ValueError):
            _native.bn_stats(x, vec, np.empty(5, np.float32))
        with pytest.raises(ValueError):
            _native.bn_apply(np.ones((2, 3, 3, 8), np.float32)[..., ::2], vec, vec, None, x, True)
        with pytest.raises(ValueError):
            _native.bn_apply(x, vec, vec, np.ones((2, 3, 3, 5), np.float32), x, False)
        with pytest.raises(ValueError):
            half = np.zeros(4, np.float16)
            _native.bn_stats(x.astype(np.float16), half, half)


#: A fresh process whose first native call is ``bn_stats``: nothing has
#: called ``available()`` before it.
FIRST_CALL_SCRIPT = r"""
import numpy as np
from repro.runtime.kernels import _native

x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
mean, var = np.empty(4, np.float32), np.empty(4, np.float32)
try:
    _native.bn_stats(x, mean, var)
except RuntimeError as error:
    print("RuntimeError:", error)
else:
    print("ok", np.allclose(mean, x.reshape(-1, 4).mean(axis=0)),
          np.allclose(var, x.reshape(-1, 4).var(axis=0)))
"""


@pytest.mark.parametrize("native", ["1", "0"])
def test_first_call_loads_library_or_raises_clearly(native):
    """A wrapper called before ``available()`` loads the library itself, and
    with the library off it raises a ``RuntimeError`` naming the cause."""
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_NATIVE"] = native
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", FIRST_CALL_SCRIPT], env=env, timeout=300,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    out = completed.stdout.decode().strip()
    if native == "1" and (out.startswith("ok") or _native.available()):
        assert out == "ok True True"
    else:
        assert out.startswith("RuntimeError: bn_stats_f32: the compiled kernel library "
                              "is unavailable"), out


#: A few A2C updates of the perfbench-shaped derived agent, printing a digest
#: of weights, BN running statistics and the last update's gradients.
UPDATE_SCRIPT = r"""
import hashlib
import numpy as np
from repro.runtime.kernels import _native
from repro.cosearch import A3CSConfig
from repro.drl import A2CConfig, A2CTrainer, ActorCriticAgent
from repro.envs import make_vector_env
from repro.networks import AgentSuperNet

defaults = A3CSConfig()
supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=defaults.feature_dim,
                         base_width=defaults.base_width, num_cells=defaults.num_cells,
                         rng=np.random.default_rng(7))
agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                         feature_dim=defaults.feature_dim, rng=np.random.default_rng(7))
env = make_vector_env("Breakout", num_envs=16, obs_size=28, frame_stack=2, seed=11)
config = A2CConfig(num_envs=16, seed=13)
trainer = A2CTrainer(agent, env, config=config)
trainer.train(total_steps=3 * 16 * config.rollout_length)
digest = hashlib.sha256()
for name, value in sorted(agent.state_dict().items()):
    digest.update(name.encode() + np.ascontiguousarray(value).tobytes())
plan = trainer._compiled_train_step().plan_for((16 * config.rollout_length, 2, 28, 28))
grads = [plan.param_grad(param) for param in agent.parameters()]
assert all(np.any(grad) for grad in grads if grad is not None)  # the trained plan, not a fresh one
for grad in grads:
    digest.update(b"-" if grad is None else np.ascontiguousarray(grad).tobytes())
print(_native.available(), sum(grad is not None for grad in grads), digest.hexdigest())
"""


def run_update(native):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_NATIVE"] = "1" if native else "0"
    # Both runs use the NumPy depthwise kernel, so the batch norm is the
    # only part the library changes.
    env["REPRO_KERNELS"] = "depthwise=depthwise_einsum"
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", UPDATE_SCRIPT], env=env, timeout=600,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert completed.returncode == 0, completed.stderr.decode()
    return completed.stdout.decode().split()


def test_whole_update_identical_with_and_without_library():
    native = run_update(native=True)
    if native[0] != "True":
        pytest.skip("compiled library unavailable")
    fallback = run_update(native=False)
    assert fallback[0] == "False" and int(native[1]) > 0
    assert native[1:] == fallback[1:]

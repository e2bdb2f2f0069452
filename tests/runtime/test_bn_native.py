"""Compiled channels-last batch norm is bitwise equal to the NumPy path.

``bn_train`` (train-mode forward) and ``bn_vjp`` of
:mod:`repro.runtime.kernels._native` replace NumPy passes over NHWC float
slots in the plan steps (eval mode stays on NumPy).  They must give
the same bits, so a training run does not depend on whether the library was
built.  Every check runs the same step twice, once routed to the library and
once with the library reported unavailable, and compares bytes (outputs,
gradients, running statistics and ``stats_version``).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.nn import BatchNorm2d, Conv2d
from repro.runtime import plan as plan_mod
from repro.runtime.kernels import _native
from repro.runtime.plan import BatchNormStep, Conv2dStep

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


def bn_state(bn):
    return digest(bn.running_mean, bn.running_var) + [bn.stats_version]


def batchnorm_step(shape, dtype, training, activation, passes=1):
    """``passes`` forwards and backwards of a standalone NHWC ``BatchNormStep``."""
    c = shape[-1]
    bn = make_bn(c, training, seed=1)
    step = BatchNormStep(bn, 0, 1, activation=activation)
    step._dtype = np.dtype(dtype)
    step._capture_stats = True
    step._pg_gamma = np.zeros(c, dtype)
    step._pg_beta = np.zeros(c, dtype)
    step._bw_ws = np.empty(shape, dtype)
    x, gout, gin = arrays(shape, dtype, seed=2, count=3)
    bufs = [x, np.empty_like(x)]
    outs = []
    for _ in range(passes):
        step.run(bufs)
        outs.append(bufs[1].copy())
        step.backward(bufs, [gin, gout])
    return digest(*outs, gin, gout, step._pg_gamma, step._pg_beta) + bn_state(bn)


def conv_epilogue(shape, dtype, training, activation, bias, residual):
    """The fused bias + batch-norm (+ residual) + activation epilogue of an NHWC conv."""
    c = shape[-1]
    conv = Conv2d(c, c, 1, bias=bias, rng=np.random.default_rng(3))
    bn = make_bn(c, training, seed=4)
    step = Conv2dStep(conv, 0, 1, bn=bn, activation=activation)
    step._dtype = np.dtype(dtype)
    out, res = arrays(shape, dtype, seed=5, count=2)
    step._apply_bn_bias_act(out, conv.bias, res=res if residual else None)
    return digest(out) + bn_state(bn)


@needs_library
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_routing(dtype):
    for shape in SHAPES:
        x = np.zeros(shape, dtype)
        assert plan_mod._native_bn(x) == (shape[-1] > 1)
        assert not plan_mod._native_bn(x.astype(np.float16))
    strided = np.zeros((2, 3, 3, 8), dtype)[..., ::2]
    assert not plan_mod._native_bn(strided)


@needs_library
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("activation", ACTIVATIONS, ids=str)
class TestBitwiseContract:
    def test_batchnorm_step(self, monkeypatch, dtype, training, activation):
        for shape in SHAPES:
            native, fallback = run_both(monkeypatch, lambda: batchnorm_step(
                shape, dtype, training, activation))
            assert native == fallback, shape

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
        vec, stats = np.ones(4, np.float32), np.zeros(4, np.float32)
        running = [np.zeros(4), np.ones(4)]

        def train(x=x, res=None, out=x, gamma=vec, running=running, mean=stats):
            _native.bn_train_bind(x, res, out, gamma, vec, *running, mean,
                                  np.empty_like(mean))(0.1, 1e-5, 0)

        with pytest.raises(ValueError):
            train(gamma=np.ones(4, np.float64))
        with pytest.raises(ValueError):
            train(gamma=np.ones(5, np.float32))
        with pytest.raises(ValueError):  # the running buffers are float64
            train(running=[np.zeros(4, np.float32), np.ones(4, np.float32)])
        with pytest.raises(ValueError):  # statistics are one (C,) vector
            train(mean=np.empty((1, 4), np.float32))
        with pytest.raises(ValueError):
            train(res=np.ones((2, 3, 3, 5), np.float32))
        with pytest.raises(ValueError):
            half = x.astype(np.float16)
            train(x=half, out=half, gamma=vec.astype(np.float16), mean=stats.astype(np.float16))

    def test_rejects_non_contiguous_operand(self):
        """A strided view is rejected before the C loops could read past it."""
        wide = np.ones((2, 3, 3, 8), np.float32)
        stats = np.empty(4, np.float32)
        for x, out, mean in (
                (wide[..., ::2], np.empty((2, 3, 3, 4), np.float32), stats),
                (wide[..., :4], wide[..., 4:], stats),
                (np.ones((2, 3, 3, 4), np.float32), np.ones((2, 3, 3, 4), np.float32),
                 np.empty(8, np.float32)[::2])):
            with pytest.raises(ValueError, match="C-contiguous"):
                _native.bn_train_bind(x, None, out, np.ones(4, np.float32),
                                      np.zeros(4, np.float32), np.zeros(4), np.ones(4), mean,
                                      np.empty(4, np.float32))
        with pytest.raises(ValueError, match="C-contiguous"):
            x = np.ones((2, 3, 3, 4), np.float32)
            _native.bn_vjp_bind(x, None, x, x.copy(), stats, stats, np.ones(4, np.float32),
                                np.zeros(8, np.float32)[::2], np.zeros(4, np.float32))


def count_binds(monkeypatch, routine="bn_train_bind"):
    """Count ``_native.<routine>`` calls (the full operand validations)."""
    calls = []
    real = getattr(_native, routine)

    def counted(*operands):
        calls.append(1)
        return real(*operands)

    monkeypatch.setattr(_native, routine, counted)
    return calls


@needs_library
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestBinding:
    """The fused forward is bound once and re-validated when an operand is replaced."""

    def forward_twice(self, dtype, change):
        """Run a train-mode ``BatchNormStep`` twice with ``change(bn)`` in between."""
        bn = make_bn(8, True, seed=1)
        step = BatchNormStep(bn, 0, 1, activation="relu")
        step._dtype = np.dtype(dtype)
        x, out = arrays((2, 3, 3, 8), dtype, seed=2, count=2)
        outs = []
        for run in range(2):
            if run:
                change(bn)
            step.run([x, out])
            outs.append(out.copy())
        return digest(*outs) + bn_state(bn)

    def check(self, monkeypatch, dtype, change, binds):
        calls = count_binds(monkeypatch)
        native, fallback = run_both(monkeypatch, lambda: self.forward_twice(dtype, change))
        assert native == fallback
        assert len(calls) == binds

    def test_steady_state_binds_once(self, monkeypatch, dtype):
        self.check(monkeypatch, dtype, lambda bn: None, binds=1)

    def test_replaced_parameter_data(self, monkeypatch, dtype):
        def replace(bn):
            bn.gamma.data = bn.gamma.data * 2.0 - 0.5
        # float64 plans read ``gamma.data`` itself, a new array here; float32
        # plans refill their cast buffer in place.
        self.check(monkeypatch, dtype, replace, binds=2 if dtype == np.float64 else 1)

    def test_load_state_dict(self, monkeypatch, dtype):
        def load(bn):
            state = bn.state_dict()
            state["beta"] = state["beta"] + 1.0
            state["buffer.running_var"] = state["buffer.running_var"] * 3.0
            bn.load_state_dict(state)
        self.check(monkeypatch, dtype, load, binds=1)  # copies in place

    def test_replaced_running_buffer(self, monkeypatch, dtype):
        def replace(bn):
            bn.running_mean = bn.running_mean + 1.0
        self.check(monkeypatch, dtype, replace, binds=2)

    def test_eval_mode_backward_binds_once(self, monkeypatch, dtype):
        """Eval-mode statistics live in step-owned buffers refreshed in place,
        so ``bn_vjp`` keeps its binding across passes."""
        calls = count_binds(monkeypatch, "bn_vjp_bind")
        native, fallback = run_both(monkeypatch, lambda: batchnorm_step(
            (2, 3, 3, 8), dtype, False, "relu", passes=3))
        assert native == fallback
        assert len(calls) == 1

    def test_non_contiguous_running_buffer_is_rejected(self, dtype):
        """The C loops would read a strided buffer out of bounds: re-validation
        raises instead."""
        def replace(bn):
            wide = np.zeros(16)
            wide[::2] = bn.running_var
            bn.running_var = wide[::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            self.forward_twice(dtype, replace)


#: A fresh process whose first native call is ``bn_train``: nothing has
#: called ``available()`` before it.
FIRST_CALL_SCRIPT = r"""
import numpy as np
from repro.runtime.kernels import _native

x = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
ones, zeros = np.ones(4, np.float32), np.zeros(4, np.float32)
mean, inv_std = np.empty(4, np.float32), np.empty(4, np.float32)
try:
    _native.bn_train_bind(x, None, np.empty_like(x), ones, zeros, np.zeros(4), np.ones(4),
                          mean, inv_std)(0.1, 0.0, 0)
except RuntimeError as error:
    print("RuntimeError:", error)
else:
    print("ok", np.allclose(mean, x.reshape(-1, 4).mean(axis=0)),
          np.allclose(inv_std, 1 / x.reshape(-1, 4).std(axis=0)))
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
        assert out.startswith("RuntimeError: bn_train_f32: the compiled kernel library "
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


#: Gated co-search updates (one Gumbel sample each): the all-candidate
#: supernet train plan plus the alpha update; prints a digest of weights, BN
#: running statistics, ``stats_version`` and alphas.
COSEARCH_SCRIPT = r"""
import hashlib
import numpy as np
from repro.runtime.kernels import _native
from repro.cosearch import A3CSConfig, A3CSCoSearch
from repro.drl import make_agent
from repro.nn import BatchNorm2d

teacher = make_agent("ResNet-20", obs_size=28, frame_stack=2, feature_dim=32, base_width=4,
                     seed=5)
teacher.eval()
config = A3CSConfig(obs_size=28, frame_stack=2, num_envs=2, feature_dim=32, base_width=4,
                    grad_samples=1, seed=3)
cosearch = A3CSCoSearch("Breakout", config=config, teacher=teacher)
cosearch._build()
searcher = cosearch.searcher
searcher.search(total_steps=3 * config.num_envs * searcher.config.rollout_length)
digest = hashlib.sha256()
for name, value in sorted(searcher.agent.state_dict().items()):
    digest.update(name.encode() + np.ascontiguousarray(value).tobytes())
for name, module in searcher.agent.named_modules():
    if isinstance(module, BatchNorm2d):
        digest.update("{}:{}".format(name, module.stats_version).encode())
for alpha in searcher.arch.alphas:
    digest.update(np.ascontiguousarray(alpha.data).tobytes())
print(_native.available(), searcher.total_env_steps, digest.hexdigest())
"""


def run_update(native, script=UPDATE_SCRIPT):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_NATIVE"] = "1" if native else "0"
    # Both runs use the NumPy depthwise kernel, and im2col_nhwc's C gather
    # and scatter give the bytes of their NumPy twins, so the batch norm is
    # the only part the library changes.
    env["REPRO_KERNELS"] = "heuristic"
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=600,
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
    native = run_update(native=True, script=COSEARCH_SCRIPT)
    fallback = run_update(native=False, script=COSEARCH_SCRIPT)
    assert native[0] == "True" and fallback[0] == "False" and int(native[1]) > 0
    assert native[1:] == fallback[1:]

"""Batch-norm backward against central differences (float64).

The reference is a direct NumPy forward of batch norm, differentiated by
central differences; it shares no code with :func:`repro.nn.vjp.batchnorm2d_vjp`
or the compiled ``bn_vjp``.  Train mode normalises with the batch
statistics; eval mode with the module's running statistics, which the
forwards under test leave unchanged.
"""

import numpy as np
import pytest

from repro.networks import AgentSuperNet
from repro.nn import BatchNorm2d, ConvBNReLU, vjp
from repro.runtime import compile_plan
from repro.runtime.plan import BatchNormStep

STEP = 1e-5
#: Relative error bound; gradients below ``FLOOR`` are compared absolutely.
RTOL = 1e-6
FLOOR = 1e-3


def assert_close(numeric, analytic, label):
    numeric, analytic = np.ravel(numeric), np.ravel(analytic)
    scale = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), FLOOR)
    worst = np.max(np.abs(numeric - analytic) / scale)
    assert worst <= RTOL, "{}: relative error {:.3g}".format(label, worst)


def central_difference(loss, arrays):
    """d loss / d every entry of ``arrays`` (perturbed in place, then restored)."""
    grads = []
    for array in arrays:
        grad = np.zeros_like(array)
        for index in np.ndindex(array.shape):
            original = array[index]
            array[index] = original + STEP
            upper = loss()
            array[index] = original - STEP
            lower = loss()
            array[index] = original
            grad[index] = (upper - lower) / (2 * STEP)
        grads.append(grad)
    return grads


def reference_batchnorm(x, gamma, beta, mean, var, channel_axis, training, eps=1e-5):
    shape = [1] * x.ndim
    shape[channel_axis] = -1
    if training:
        axes = tuple(a for a in range(x.ndim) if a != channel_axis)
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    xhat = (x - mean.reshape(shape)) / np.sqrt(var.reshape(shape) + eps)
    return gamma.reshape(shape) * xhat + beta.reshape(shape)


@pytest.mark.parametrize("channel_axis", [1, 3], ids=["NCHW", "NHWC"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("relu", [False, True], ids=["none", "relu"])
def test_batchnorm2d_vjp(channel_axis, training, relu):
    rng = np.random.default_rng(0)
    shape = (3, 4, 2, 3) if channel_axis == 1 else (3, 2, 3, 4)
    x = rng.standard_normal(shape) + 0.7
    gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
    running_mean, running_var = rng.standard_normal(4), rng.random(4) + 0.5
    weight = rng.standard_normal(shape)

    def forward():
        y = reference_batchnorm(x, gamma, beta, running_mean, running_var, channel_axis, training)
        return np.maximum(y, 0.0) if relu else y

    def loss():
        return float(np.sum(weight * forward()))

    numeric = central_difference(loss, [x, gamma, beta])
    axes = tuple(a for a in range(4) if a != channel_axis)
    mean = x.mean(axis=axes) if training else running_mean
    var = x.var(axis=axes) if training else running_var
    grad = weight * (forward() > 0) if relu else weight.copy()
    analytic = vjp.batchnorm2d_vjp(
        grad, x, mean, 1.0 / np.sqrt(var + 1e-5), gamma, training, channel_axis=channel_axis)
    for label, num, ana in zip(("x", "gamma", "beta"), numeric, analytic):
        assert_close(num, ana, label)


def check_plan(plan, checks, x, seed):
    """Compiled parameter gradients of ``sum(w * plan(x))`` against central differences.

    ``checks`` pairs each checked parameter with the flat indices to check.
    """
    out = plan.run(x)
    weight = np.random.default_rng(seed).standard_normal(out.shape)
    plan.zero_grads()
    plan.seed_grad(plan.output_slots[0], weight)
    plan.run_backward()
    analytic = [plan.param_grad(param).ravel()[indices].copy() for param, indices in checks]
    for (param, indices), expected in zip(checks, analytic):
        original = param.data.copy()
        numeric = []
        for index in indices:
            values = []
            for delta in (STEP, -STEP):
                data = original.copy()
                data.flat[index] += delta
                param.data = data  # the setter bumps the version: no stale weights
                values.append(float(np.sum(weight * plan.run(x))))
            numeric.append((values[0] - values[1]) / (2 * STEP))
        param.data = original
        assert_close(np.array(numeric), expected, "{} {}".format(param.shape, indices))


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("relu", [False, True], ids=["none", "relu"])
def test_compiled_batchnorm_step(training, relu):
    rng = np.random.default_rng(1)
    block = ConvBNReLU(3, 6, kernel_size=1, rng=rng, use_relu=relu)
    block.bn.gamma.data = rng.standard_normal(6)
    block.bn.beta.data = rng.standard_normal(6)
    block.bn.running_mean[...] = rng.standard_normal(6)
    block.bn.running_var[...] = rng.random(6) + 0.5
    block.train(training)
    x = rng.random((4, 3, 5, 5))
    plan = compile_plan(block, x.shape, train=True)
    [step] = [s for s in plan.steps if isinstance(s, BatchNormStep)]
    assert step.layout == "NHWC"
    checks = [(p, np.arange(p.data.size)) for p in block.parameters()]
    check_plan(plan, checks, x, seed=2)


def test_compiled_gated_plan():
    """Batch norm inside a gated supernet cell (a dense conv_k5 and an
    inverted-residual branch), with and without a fused relu."""
    rng = np.random.default_rng(3)
    net = AgentSuperNet(in_channels=1, input_size=8, feature_dim=4, num_cells=1,
                        base_width=4, num_stages=1, rng=rng)
    for module in net.modules():
        if isinstance(module, BatchNorm2d):
            module.gamma.data = rng.standard_normal(module.gamma.data.shape)
            module.beta.data = rng.standard_normal(module.beta.data.shape)
    net.train()
    plan = compile_plan(net, (2, 1, 8, 8), train=True, gated_paths=[(1, 4)])
    plan.set_gates([np.array([0.3, 0.7])])
    steps = [s for s in plan.steps if isinstance(s, BatchNormStep)]
    assert {s.layout for s in steps} == {"NHWC"}
    assert {s.activation for s in steps} == {"relu", None}
    checks = [(p, np.arange(p.data.size)) for s in steps for p in (s.bn.gamma, s.bn.beta)]
    # A few weights of every conv in the plan: their gradients flow through
    # the input-gradient tail of each batch norm after them.
    for param in net.parameters():
        if param.data.ndim == 4 and plan.param_grad(param) is not None:
            checks.append((param, rng.choice(param.data.size, size=6, replace=False)))
    check_plan(plan, checks, rng.random((2, 1, 8, 8)), seed=4)

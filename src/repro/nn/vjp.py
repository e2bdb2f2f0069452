"""Vector-Jacobian products shared by the eager tape and the compiled runtime.

Historically every backward rule lived inside a closure captured by the
:class:`~repro.nn.tensor.Tensor` op that created it (or by a free function in
:mod:`repro.nn.functional`), which made the rules impossible to reuse: the
compiled training runtime (:mod:`repro.runtime`) needs the exact same math,
but applied to pre-allocated gradient buffers instead of freshly allocated
arrays.  This module extracts those rules into free functions with optional
``out=`` workspaces:

* the eager closures call them without workspaces (allocating, as before);
* the reverse-mode plan steps call them with plan-owned buffers, keeping the
  training hot path allocation-free.

Every function computes a VJP: given the gradient of some scalar loss with
respect to an op's *output*, it returns the gradient(s) with respect to the
op's inputs (and parameters).  Activation VJPs are expressed in terms of the
forward *output* (not the input), which is what both engines have at hand.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VJP_REGISTRY",
    "register_vjp",
    "relu_vjp",
    "leaky_relu_vjp",
    "tanh_vjp",
    "sigmoid_vjp",
    "activation_vjp",
    "matmul_vjp",
    "linear_vjp",
    "conv2d_cols_vjp",
    "batchnorm2d_vjp",
    "softmax_vjp",
    "max_pool_cols_vjp",
]

#: Name -> VJP function, so engines (and tests) can enumerate the supported rules.
VJP_REGISTRY = {}


def register_vjp(name):
    """Class decorator registering a VJP function under ``name``."""

    def decorator(fn):
        VJP_REGISTRY[name] = fn
        return fn

    return decorator


# --------------------------------------------------------------------------- #
# Activations (output-based: usable after the forward buffer was overwritten
# by the activation itself)
# --------------------------------------------------------------------------- #
@register_vjp("relu")
def relu_vjp(grad, out, into=None):
    """``d relu`` from the post-activation output (``out > 0`` <=> input > 0)."""
    if into is None:
        return grad * (out > 0)
    np.multiply(grad, out > 0, out=into)
    return into


@register_vjp("leaky_relu")
def leaky_relu_vjp(grad, out, negative_slope=0.01, into=None):
    """``d leaky_relu``; the output sign matches the input sign for slope > 0."""
    scale = np.where(out > 0, 1.0, negative_slope)
    if into is None:
        return grad * scale
    np.multiply(grad, scale, out=into)
    return into


@register_vjp("tanh")
def tanh_vjp(grad, out, into=None):
    """``d tanh = 1 - out**2``."""
    if into is None:
        return grad * (1.0 - out ** 2)
    np.multiply(grad, 1.0 - out ** 2, out=into)
    return into


@register_vjp("sigmoid")
def sigmoid_vjp(grad, out, into=None):
    """``d sigmoid = out * (1 - out)``."""
    if into is None:
        return grad * out * (1.0 - out)
    np.multiply(grad, out * (1.0 - out), out=into)
    return into


def activation_vjp(kind, out, grad):
    """Apply the VJP of a fused-activation tag *in place* on ``grad``.

    ``kind`` uses the compiler's fused-activation vocabulary: ``None`` (no
    activation), ``"relu"``, ``"tanh"``, ``"sigmoid"``, or
    ``("leaky_relu", slope)``.
    """
    if kind is None:
        return grad
    if kind == "relu":
        return relu_vjp(grad, out, into=grad)
    if kind == "tanh":
        return tanh_vjp(grad, out, into=grad)
    if kind == "sigmoid":
        return sigmoid_vjp(grad, out, into=grad)
    if isinstance(kind, tuple) and kind[0] == "leaky_relu":
        return leaky_relu_vjp(grad, out, negative_slope=kind[1], into=grad)
    raise ValueError("unknown activation {!r}".format(kind))


# --------------------------------------------------------------------------- #
# Linear algebra
# --------------------------------------------------------------------------- #
@register_vjp("matmul")
def matmul_vjp(grad, a, b):
    """Gradients of ``a @ b`` w.r.t. both operands (2-D or batched)."""
    if a.ndim == 2 and b.ndim == 2:
        return grad @ b.T, a.T @ grad
    return (
        np.matmul(grad, np.swapaxes(b, -1, -2)),
        np.matmul(np.swapaxes(a, -1, -2), grad),
    )


@register_vjp("linear")
def linear_vjp(grad, x, weight, gx_out=None, gw_out=None):
    """Gradients of ``x @ weight.T + bias``.

    Returns ``(gx, gw, gb)``; ``gx``/``gw`` are written into the provided
    workspaces when given (the bias gradient is always a fresh small array).
    """
    gw = np.matmul(grad.T, x, out=gw_out)
    gx = np.matmul(grad, weight, out=gx_out)
    return gx, gw, grad.sum(axis=0)


# --------------------------------------------------------------------------- #
# Convolution
# --------------------------------------------------------------------------- #
@register_vjp("conv2d_weight")
def conv2d_weight_vjp(grad_mat, cols):
    """Weight gradient of the channels-last im2col GEMM used by the eager engine.

    ``grad_mat`` is ``(N, oh, ow, C_out)`` and ``cols`` is
    ``(N, oh, ow, C*kh*kw)``; returns ``(C_out, C*kh*kw)``.
    """
    return np.tensordot(grad_mat, cols, axes=([0, 1, 2], [0, 1, 2]))


@register_vjp("conv2d_cols")
def conv2d_cols_vjp(grad_mat, w_mat):
    """Column (input-patch) gradient of the im2col GEMM: ``(N, oh, ow, C*kh*kw)``."""
    return grad_mat @ w_mat


# --------------------------------------------------------------------------- #
# Normalisation / softmax / pooling
# --------------------------------------------------------------------------- #
@register_vjp("batchnorm2d")
def batchnorm2d_vjp(grad, x, mean, inv_std, gamma, training, ws=None, channel_axis=1):
    """Gradients of batch norm over a 4-D tensor.

    Parameters
    ----------
    grad:
        Gradient w.r.t. the BN output, shape ``(N, C, H, W)`` (or
        ``(N, H, W, C)`` when ``channel_axis=3``).
    x:
        The BN *input* (pre-normalisation activations), same layout.
    mean, inv_std:
        The statistics used by the forward pass: batch statistics in training
        mode, running statistics in eval mode.  ``inv_std = 1/sqrt(var+eps)``.
    gamma:
        The learnable per-channel scale.
    training:
        Whether the forward used batch statistics (their dependence on ``x``
        contributes extra terms to ``gx``).
    ws:
        Optional workspace of ``grad``'s shape; ``gx`` is written into it.
    channel_axis:
        Which axis carries channels: ``1`` (NCHW, the default) or ``3``
        (NHWC, the layout of every compiled batch-norm step).

    Returns
    -------
    gx, dgamma, dbeta
    """
    if channel_axis == 1:
        bcast = lambda v: v[None, :, None, None]  # noqa: E731
        axes = (0, 2, 3)
        contract = "nchw,nchw->c"
    else:
        bcast = lambda v: v  # noqa: E731  (channels trail: natural broadcast)
        axes = (0, 1, 2)
        contract = "nhwc,nhwc->c"
    if ws is None:
        ws = np.empty_like(grad)
    # xhat in the workspace.
    np.subtract(x, bcast(mean), out=ws)
    ws *= bcast(inv_std)
    dgamma = np.einsum(contract, grad, ws)
    dbeta = grad.sum(axis=axes)
    scale = gamma * inv_std
    if training:
        m = 1
        for axis in axes:
            m *= x.shape[axis]
        ws *= bcast(dgamma / m)
        np.subtract(grad, ws, out=ws)
        ws -= bcast(dbeta / m)
        ws *= bcast(scale)
    else:
        np.multiply(grad, bcast(scale), out=ws)
    return ws, dgamma, dbeta


@register_vjp("softmax")
def softmax_vjp(grad, probs, into=None):
    """Gradient of softmax along the last axis given the output ``probs``."""
    if into is None:
        into = np.empty_like(grad)
    np.multiply(grad, probs, out=into)
    total = into.sum(axis=-1, keepdims=True)
    np.subtract(grad, total, out=into)
    into *= probs
    return into


@register_vjp("max_pool_cols")
def max_pool_cols_vjp(grad, argmax, window):
    """Column gradients of max pooling given the flat per-window ``argmax``.

    ``grad`` and ``argmax`` share any leading shape; the result appends a
    ``window``-sized axis holding the gradient routed to the single winning
    element of each window (first winner on ties, matching ``argmax``).
    """
    gcols = np.zeros(argmax.shape + (window,), dtype=grad.dtype)
    flat_idx = argmax.reshape(-1)
    gcols.reshape(-1, window)[np.arange(flat_idx.size), flat_idx] = grad.reshape(-1)
    return gcols


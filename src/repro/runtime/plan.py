"""Flat execution plans: pre-allocated buffers + pure-NumPy steps.

A :class:`Plan` is the compiled form of a module graph for one concrete
``(batch, dtype)`` signature: an ordered list of :class:`Step` objects reading
and writing integer-indexed activation *slots*.  All activation buffers and
step workspaces are allocated when the plan is finalised; running the plan
performs no allocations beyond what NumPy's kernels do internally.
Convolution steps delegate their compute to a
:mod:`repro.runtime.kernels` implementation selected per op signature at
finalise time (by a static rule, pinnable via ``REPRO_KERNELS``).

Steps hold references to their source :class:`~repro.nn.modules.Module` and
fetch parameter arrays (``module.weight.data``) on every run, so optimiser
updates between rollouts are always visible without recompiling.  In float32
mode steps read :meth:`Parameter.cast <repro.nn.modules.Parameter.cast>`:
one float32 mirror per parameter, shared by every plan, re-copied only after
the parameter's version moved.

Training plans (``Plan(train=True)``) additionally carry a *reverse-mode
program*: per-slot gradient buffers, per-parameter gradient accumulators, and
a ``backward`` method on every step implementing its VJP (via the shared
rules in :mod:`repro.nn.vjp`) against those buffers.  Running backward is the
forward step list in reverse; forward activation buffers double as the saved
intermediates, and the im2col workspaces are reused for the column
gradients' geometry.

Aliasing contract: a step may mutate only buffers it owns (its output slot
and workspaces), never its input slot.  Residual joins are the one exception:
the compiler emits them in place on the body slot, which the joining block
owns.  The mirrored contract holds in reverse mode: once backward
reaches the step that *produced* a slot, every consumer has already added its
contribution, so the producer owns the slot's gradient buffer and may mutate
it in place.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..nn import vjp
from ..telemetry import trace
from ..telemetry.metrics import registry
from . import kernels as conv_kernels
from .kernels import SCRATCH_GEMM, SCRATCH_MAIN, _native

__all__ = [
    "Plan",
    "BufferPool",
    "StoragePlan",
    "Step",
    "Conv2dStep",
    "LinearStep",
    "BatchNormStep",
    "ActivationStep",
    "AddStep",
    "FlattenStep",
    "ReshapeStep",
    "GlobalAvgPoolStep",
    "Pool2dStep",
    "SoftmaxStep",
    "GateCombineStep",
    "TransposeStep",
    "QuantInfo",
    "QuantizeStep",
    "DequantizeStep",
    "OpaqueStep",
    "apply_activation",
]

#: Process-wide pool totals (``repro.runtime.cache_stats()["buffer_pools"]``).
_POOL_TOTALS = {
    key: registry().counter("runtime/buffer_pools/" + key)
    for key in ("hits", "misses", "bytes_pooled", "bytes_fresh")
}

# The shared scratch-arena channel ids (SCRATCH_MAIN / SCRATCH_GEMM) are
# defined in repro.runtime.kernels.registry: the kernel implementations draw
# from the same arenas as the plan steps.


#: Reduction axes of a channels-last activation that keep only channels.
_SPATIAL_AXES = (0, 1, 2)


def apply_activation(kind, array):
    """Apply an activation in place on ``array`` (``None`` is the identity)."""
    if kind is None:
        return array
    if kind == "relu":
        np.maximum(array, 0.0, out=array)
    elif kind == "tanh":
        np.tanh(array, out=array)
    elif kind == "sigmoid":
        np.negative(array, out=array)
        np.exp(array, out=array)
        array += 1.0
        np.reciprocal(array, out=array)
    elif isinstance(kind, tuple) and kind[0] == "leaky_relu":
        slope = kind[1]
        np.multiply(array, slope, out=array, where=array < 0.0)
    else:
        raise ValueError("unknown activation {!r}".format(kind))
    return array


class BufferPool:
    """Recycles the large backing blocks of released plans.

    Page-faulting freshly ``mmap``-ed buffers is expensive (hundreds of ms
    per GB on typical virtualised hosts).  Plans allocated against a pool
    return their blocks on :meth:`Plan.release` (plan caches release the
    plans they evict), so the next compile re-uses warm, already-faulted
    pages instead of paying the fault storm again.  Recycled and fresh
    bytes are counted only in the registry's ``runtime/buffer_pools/*``
    counters (``repro.runtime.cache_stats()["buffer_pools"]``).

    Blocks are raw byte arrays handed out best-fit (never more than
    ``max_waste`` times the requested size, so odd-sized requests don't pin
    huge blocks).  The pool is single-threaded: it performs no locking, so
    plans sharing a pool must be compiled and released from one thread,
    which is how the plan caches use it.  What *is* shared across threads is
    a parameter's cast mirror (:meth:`repro.nn.modules.Parameter.cast`),
    which a serving worker and the training thread may both read.
    """

    def __init__(self, max_waste=2.0):
        self.max_waste = float(max_waste)
        self._free = []

    def take(self, nbytes):
        """A byte block of capacity >= ``nbytes`` (recycled when possible)."""
        nbytes = int(nbytes)
        best = None
        for index, block in enumerate(self._free):
            if block.nbytes < nbytes:
                continue
            if best is None or block.nbytes < self._free[best].nbytes:
                best = index
        if best is not None and self._free[best].nbytes <= max(
            int(nbytes * self.max_waste), nbytes + (1 << 16)
        ):
            block = self._free.pop(best)
            _POOL_TOTALS["hits"].inc()
            _POOL_TOTALS["bytes_pooled"].inc(block.nbytes)
            return block
        _POOL_TOTALS["misses"].inc()
        _POOL_TOTALS["bytes_fresh"].inc(nbytes)
        return np.empty(nbytes, dtype=np.uint8)

    def give(self, blocks):
        """Return released blocks to the free list."""
        self._free.extend(blocks)

    def clear(self):
        """Drop every pooled block (returning the memory to the allocator)."""
        self._free.clear()


class Step:
    """Base class of one executable plan node."""

    #: Cached span name for traced runs (built lazily: most plans never
    #: trace, and conv labels need the bound kernel, known only after
    #: ``allocate``).
    _trace_label = None

    #: ``(cell, candidate)`` of the gated-supernet branch this step belongs
    #: to; ``None`` for steps that run on every run (trunk, heads, combines).
    branch = None

    def trace_label(self):
        """The span name a traced plan run records for this step."""
        label = self._trace_label
        if label is None:
            label = self._trace_label = self._format_trace_label()
        return label

    def _format_trace_label(self):
        return type(self).__name__

    def run(self, bufs):
        """Execute against the plan's buffer table ``bufs`` (list of arrays)."""
        raise NotImplementedError

    def allocate(self, plan):
        """Allocate per-step workspaces once the plan geometry is known."""

    def allocate_backward(self, plan):
        """Allocate reverse-mode workspaces / register parameter gradients."""

    def scratch_requests(self, plan):
        """``(channel, nbytes)`` pairs of this step's call-transient workspaces.

        The aliasing pass sizes one shared arena per channel from the maxima;
        :meth:`allocate` / :meth:`allocate_backward` then draw the workspaces
        through :meth:`Plan.workspace` instead of private allocations.
        """
        return ()

    def backward(self, bufs, grads):
        """Push the output-slot gradient onto input slots and parameters."""
        raise NotImplementedError(
            "{} has no compiled backward".format(type(self).__name__)
        )

    def __repr__(self):
        return type(self).__name__


def _native_bn(*arrays):
    """Whether the compiled batch-norm routines, bitwise equal to the NumPy code
    below, serve these operands: C-contiguous float slots with at least two
    channels (NumPy reduces a single channel pairwise, not row by row)."""
    x = arrays[0]
    return (
        x.dtype in (np.float32, np.float64)
        and x.shape[-1] > 1
        and _native.available()
        and all(a is None or (a.dtype == x.dtype and a.flags.c_contiguous) for a in arrays)
    )


class _BNMixin:
    """Shared batch-norm math for fused conv steps and standalone BN steps.

    Supports both eval mode (running statistics) and train mode (batch
    statistics plus in-place running-stat updates), mirroring
    :func:`repro.nn.functional.batch_norm2d`.  Activations are channels-last;
    statistics and per-channel vectors are ``(C,)`` and broadcast along the
    trailing axis.  On float slots a train-mode forward is one
    compiled ``bn_train`` call (statistics, running-stat EMA, scale/shift,
    normalise, relu) and the backward one ``bn_vjp`` call, from
    :mod:`repro.runtime.kernels._native`; every other slot, and eval mode,
    runs the NumPy code, which gives the same bits.  Both routines are bound
    once: the validated addresses are reused while the same array objects
    come back (slots, the parameters' :meth:`cast` mirrors, running buffers,
    the step-owned eval-mode statistics) and re-validated when one is
    replaced.
    """

    #: Training plans flip this on so the forward saves the statistics its
    #: backward needs; inference plans pay nothing for it.
    _capture_stats = False
    #: Eval-mode ``(mean, inv_std)``, each ``(C,)`` in the plan dtype.
    _eval_stats = None

    def _bind_bn_train(self, x, res, out, gamma, beta, running_mean, running_var):
        """Bound ``bn_train`` plus its ``(mean, inv_std)`` outputs, or ``None``
        when these operands stay on NumPy (the running buffers must be
        C-contiguous float64: ``bind`` rejects anything else)."""
        if not _native_bn(x, res, out, gamma, beta):
            return None
        mean, inv_std = np.empty((2, x.shape[-1]), x.dtype)
        return _native.bn_train_bind(x, res, out, gamma, beta, running_mean, running_var,
                                     mean, inv_std), mean, inv_std

    def _bn_forward(self, x, out, res=None):
        """``out = bn(x) (+res)``, then the activation (``out`` may be ``x``).

        ``x`` is the channels-last activation; in training mode the batch
        statistics are computed from it and the module's running buffers
        are updated in place (exactly like the eager path does during
        rollout collection).
        """
        bn = self.bn
        gamma = bn.gamma.cast(self._dtype)
        beta = bn.beta.cast(self._dtype)
        bound = None
        if bn.training:
            bn.bump_stats_version()  # the running buffers change in place
            if _native.available():
                bound = _native.bound(self, "_train_bound", self._bind_bn_train, x, res, out,
                                      gamma, beta, bn.running_mean, bn.running_var)
        if bound is not None:
            run, mean, inv_std = bound
            relu = self.activation == "relu"
            run(float(bn.momentum), float(bn.eps), relu)
            if self._capture_stats:
                self._saved_stats = (True, mean, inv_std, gamma)
            if not relu:
                apply_activation(self.activation, out)
            return
        if bn.training:
            mean, var = self._batch_stats(x)
            mean64 = np.asarray(mean, dtype=np.float64)
            var64 = np.asarray(var, dtype=np.float64)
            bn.running_mean *= 1.0 - bn.momentum
            bn.running_mean += bn.momentum * mean64
            bn.running_var *= 1.0 - bn.momentum
            bn.running_var += bn.momentum * var64
            inv_std = 1.0 / np.sqrt(var + bn.eps)
        else:
            # Step-owned statistics refreshed in place, so a bound
            # ``bn_vjp`` sees the same arrays on every call.
            if self._eval_stats is None or self._eval_stats[0].dtype != self._dtype:
                self._eval_stats = tuple(np.empty((2, len(bn.running_mean)), self._dtype))
            mean, inv_std = self._eval_stats
            np.copyto(mean, bn.running_mean, casting="same_kind")
            np.copyto(inv_std, bn.running_var, casting="same_kind")
            inv_std += bn.eps
            np.divide(1.0, np.sqrt(inv_std, out=inv_std), out=inv_std)
        if self._capture_stats:
            self._saved_stats = (bool(bn.training), mean, inv_std, gamma)
        scale = gamma * inv_std
        shift = beta - mean * scale
        np.multiply(x, scale, out=out)
        out += shift
        if res is not None:
            out += res
        apply_activation(self.activation, out)

    def _batch_stats(self, x):
        """Batch mean and two-pass variance, ``(C,)`` each."""
        # Two-pass variance (same association as the eager engine) via a
        # lazily-allocated workspace: train-mode BN stays allocation-free
        # per run without paying the workspace in eval-only plans.
        ws = getattr(self, "_bn_ws", None)
        if ws is None or ws.shape != x.shape or ws.dtype != x.dtype:
            ws = np.empty_like(x)
            self._bn_ws = ws
        mean = x.mean(axis=_SPATIAL_AXES)
        np.subtract(x, mean, out=ws)
        np.square(ws, out=ws)
        return mean, ws.mean(axis=_SPATIAL_AXES)

    def _apply_bn_bias_act(self, out, bias, res=None):
        """Fused bias + batch-norm (+ residual) + activation, in place on ``out``."""
        if bias is not None:
            out += bias.cast(self._dtype)
        if self.bn is not None:
            self._bn_forward(out, out, res)
            return
        if res is not None:
            out += res
        apply_activation(self.activation, out)


class _ConvEpilogue:
    """Fused-epilogue descriptor handed to the selected conv kernel.

    Wraps the step's bias / batch-norm / residual / activation tail; the
    kernel calls ``apply(out)`` once on its whole output.

    One descriptor is allocated per step at plan finalise; the per-run
    fields (folded bias, residual buffer) are refreshed in place so the
    hot path stays allocation-free.
    """

    __slots__ = ("step", "folded_bias", "res")

    def __init__(self, step, folded_bias=None, res=None):
        self.step = step
        self.folded_bias = folded_bias
        self.res = res

    def apply(self, out):
        step = self.step
        res = self.res
        if self.folded_bias is not None:
            out += self.folded_bias
            if res is not None:
                out += res
            apply_activation(step.activation, out)
        else:
            step._apply_bn_bias_act(out, step.conv.bias, res=res)
        return out


class Conv2dStep(Step, _BNMixin):
    """Convolution (any ``groups``), optionally fused with BN and activation.

    The step owns *what* is computed — the op signature, the live parameter
    reads, the fused bias/BN/residual/activation epilogue and the folded-
    weight machinery — while *how* the convolution itself runs is delegated
    to a :mod:`repro.runtime.kernels` implementation selected per signature
    by the registry dispatcher (a static rule; pin with
    ``REPRO_KERNELS``).  Reverse mode delegates the weight / input VJPs to
    the same bound kernel, which keeps whatever forward state it needs
    (saved im2col columns, tap-major weight staging, ...).

    In inference plans the compiler fuses the epilogue as it emits the step:
    a BN (``ConvBNReLU``, or a ``BatchNorm2d`` following the conv in a
    ``Sequential``), a following activation, and a residual join whose
    shortcut is materialised before the conv runs (``res_slot``).  An
    eval-mode BN is folded into the weight and bias (:meth:`_folded`);
    a train-mode BN runs unfolded at run time.  Training plans fuse only
    the activation, never BN (the compiler emits a separate
    :class:`BatchNormStep` so the pre-normalisation activations survive)
    and never a join.
    """

    #: Physical activation layout of both slots: conv steps run channels-last.
    layout = "NHWC"

    def __init__(self, conv, in_slot, out_slot, bn=None, activation=None):
        self.conv = conv
        self.bn = bn
        self.activation = activation
        self.in_slot = in_slot
        self.out_slot = out_slot
        #: Optional residual slot added before the activation (a fused
        #: residual join, inference plans only).
        self.res_slot = None
        #: :class:`QuantInfo` when the quantize pass converted this step to
        #: integer arithmetic (inference plans only); ``None`` = float.
        self.quant = None

    def _spec(self, plan):
        """The kernel-registry signature of this step on ``plan``."""
        n, c, h, w = plan.shape(self.in_slot)
        conv = self.conv
        return conv_kernels.ConvSpec(
            batch=n,
            in_channels=c,
            out_channels=conv.out_channels,
            height=h,
            width=w,
            kernel=conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
            groups=conv.groups,
            dtype=plan.dtype.name,
            direction="train" if plan.train else "infer",
            quant=self.quant.mode if self.quant is not None else "",
        )

    def _input_grad(self, plan):
        return (
            self.in_slot != plan.input_slot
            and self.in_slot not in plan._no_grad_slots
        )

    def _format_trace_label(self):
        # Per-signature attribution: the bound kernel's name plus the op
        # signature string, e.g. "conv:im2col_nhwc:dense:n16c2->16@32x32/...".
        kernel = getattr(self, "_kernel", None)
        if kernel is None:
            return type(self).__name__
        return "conv:{}:{}".format(kernel.name, kernel.spec.describe())

    def scratch_requests(self, plan):
        # The shared scratch arenas are sized before the kernel is selected,
        # so provision the per-channel maxima over every candidate.
        return conv_kernels.scratch_upper_bound(
            self._spec(plan), input_grad_needed=self._input_grad(plan)
        )

    def allocate(self, plan):
        self._dtype = plan.dtype
        if self.bn is not None:
            self._fw = plan.alloc(self.conv.weight.data.shape)
            self._fb = plan.alloc((self.conv.out_channels,))
            self._fold_key = None
            self._fold_serial = 0
        self._epilogue = _ConvEpilogue(self)
        if self.quant is not None:
            spec = self._spec(plan)
            self._qmax = spec.qmax
            self._qw = plan.alloc(self.conv.weight.data.shape, dtype=spec.act_dtype)
            self._qepilogue = conv_kernels.RequantEpilogue(
                self.conv.out_channels, spec.acc_dtype, spec.qmax,
                relu=self.activation == "relu",
            )
            if self.res_slot is not None:
                # Residual integers carry the residual slot's scale; one
                # static factor maps them into output units.
                self._qepilogue.res_scale = self.quant.res_scale / self.quant.out_scale
            self._qkey = None
        self._kernel = conv_kernels.kernel_for(self._spec(plan), plan)

    def _folded(self):
        """Folded ``(weight, bias)``, refreshed when the live sources change.

        Invalidation is driven by the :class:`~repro.nn.modules.Parameter`
        version counters (optimiser updates, ``load_state_dict``, direct
        ``param.data`` assignment all bump them) and the BN module's
        ``stats_version``, which train-mode forwards and ``load_state_dict``
        bump when they change the running buffers.
        """
        conv, bn = self.conv, self.bn
        key = (
            conv.weight.version,
            conv.bias.version if conv.bias is not None else -1,
            bn.gamma.version,
            bn.beta.version,
            bn.stats_version,
        )
        if key != self._fold_key:
            inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
            scale = bn.gamma.data * inv_std
            shift = bn.beta.data - bn.running_mean * scale
            if conv.bias is not None:
                shift = shift + conv.bias.data * scale
            self._fw[...] = conv.weight.data * scale[:, None, None, None]
            self._fb[...] = shift
            self._fold_key = key
            self._fold_serial += 1
        return self._fw, self._fb

    def allocate_backward(self, plan):
        if self.bn is not None:
            raise RuntimeError("training plans must not fuse BN into conv steps")
        if self.res_slot is not None:
            raise RuntimeError("residual epilogues are inference-only")
        self._pg_w = plan.grad_for(self.conv.weight)
        self._pg_b = plan.grad_for(self.conv.bias) if self.conv.bias is not None else None
        # The plan input has no producer (and neither does its channels-last
        # twin), so nothing ever reads its gradient: skip the input VJP
        # entirely for stem convs (the single most expensive VJP in the net,
        # at full input resolution).
        self._input_grad_needed = self._input_grad(plan)
        self._kernel.allocate_backward(plan, self._input_grad_needed)

    def _requantize_weights(self, weight, bias):
        """Re-derive the integer weights and requant parameters in place.

        Per-output-channel symmetric weight scales from the live float
        weights; the epilogue then folds ``in_scale * sw / out_scale`` into
        one per-channel multiplier and the bias into output units.  Bumping
        the epilogue version tells the bound kernel to refresh whatever
        private weight form it caches (tap-major copies, GEMM matrices).
        """
        q = self.quant
        qmax = self._qmax
        epi = self._qepilogue
        w = np.asarray(weight, dtype=np.float64)
        sw = np.abs(w.reshape(w.shape[0], -1)).max(axis=1) / qmax
        sw[sw == 0.0] = 1.0  # all-zero channel: any scale maps 0 -> 0
        qf = np.rint(w / sw[:, None, None, None])
        np.clip(qf, -qmax, qmax, out=qf)
        self._qw[...] = qf
        epi.scale[...] = q.in_scale * sw / q.out_scale
        epi.bias[...] = 0.0 if bias is None else np.asarray(bias, np.float64) / q.out_scale
        epi.version += 1

    def _run_quantized(self, bufs):
        conv = self.conv
        if self.bn is not None:
            weight, bias = self._folded()
            key = self._fold_serial
        else:
            weight = conv.weight.data
            bias = conv.bias.data if conv.bias is not None else None
            key = (conv.weight.version,
                   conv.bias.version if conv.bias is not None else -1)
        if key != self._qkey:
            self._requantize_weights(weight, bias)
            self._qkey = key
        epilogue = self._qepilogue
        epilogue.res = bufs[self.res_slot] if self.res_slot is not None else None
        self._kernel.forward(bufs[self.in_slot], self._qw, bufs[self.out_slot], epilogue)

    def run(self, bufs):
        if self.quant is not None:
            self._run_quantized(bufs)
            return
        conv = self.conv
        epilogue = self._epilogue
        if self.bn is not None and not self.bn.training:
            weight, epilogue.folded_bias = self._folded()
        else:
            weight = conv.weight.cast(self._dtype)
            epilogue.folded_bias = None
        epilogue.res = bufs[self.res_slot] if self.res_slot is not None else None
        self._kernel.forward(bufs[self.in_slot], weight, bufs[self.out_slot], epilogue)

    def backward(self, bufs, grads):
        gout = grads[self.out_slot]
        vjp.activation_vjp(self.activation, bufs[self.out_slot], gout)
        if self._pg_b is not None:
            self._pg_b += gout.sum(axis=_SPATIAL_AXES)
        weight = self.conv.weight.cast(self._dtype)
        gin = grads[self.in_slot] if self._input_grad_needed else None
        self._kernel.backward(gout, bufs[self.in_slot], weight, self._pg_w, gin)


class LinearStep(Step):
    """Fully-connected layer, optionally fused with an activation."""

    def __init__(self, linear, in_slot, out_slot, activation=None):
        self.linear = linear
        self.activation = activation
        self.in_slot = in_slot
        self.out_slot = out_slot

    def allocate(self, plan):
        self._dtype = plan.dtype

    def scratch_requests(self, plan):
        if not plan.train:
            return ()
        n = plan.shape(self.in_slot)[0]
        item = plan.dtype.itemsize
        linear = self.linear
        return (
            (SCRATCH_MAIN, n * linear.in_features * item),
            (SCRATCH_GEMM, linear.out_features * linear.in_features * item),
        )

    def allocate_backward(self, plan):
        n = plan.shape(self.in_slot)[0]
        linear = self.linear
        self._pg_w = plan.grad_for(linear.weight)
        self._pg_b = plan.grad_for(linear.bias) if linear.bias is not None else None
        self._gx_ws = plan.workspace((n, linear.in_features), channel=SCRATCH_MAIN)
        self._gw_ws = plan.workspace(
            (linear.out_features, linear.in_features), channel=SCRATCH_GEMM
        )

    def run(self, bufs):
        weight = self.linear.weight.cast(self._dtype)
        out = bufs[self.out_slot]
        np.matmul(bufs[self.in_slot], weight.T, out=out)
        if self.linear.bias is not None:
            out += self.linear.bias.cast(self._dtype)
        apply_activation(self.activation, out)

    def backward(self, bufs, grads):
        gout = grads[self.out_slot]
        vjp.activation_vjp(self.activation, bufs[self.out_slot], gout)
        weight = self.linear.weight.cast(self._dtype)
        _, _, gb = vjp.linear_vjp(
            gout, bufs[self.in_slot], weight, gx_out=self._gx_ws, gw_out=self._gw_ws
        )
        self._pg_w += self._gw_ws
        if self._pg_b is not None:
            self._pg_b += gb
        grads[self.in_slot] += self._gx_ws


class BatchNormStep(Step, _BNMixin):
    """Standalone channels-last batch norm (for BN not fused into a conv).

    Training plans route every BN through this step (never fused into the
    conv) so backward can see the pre-normalisation input; the statistics
    used by the forward pass are captured per run and replayed into the
    compiled ``bn_vjp`` or :func:`repro.nn.vjp.batchnorm2d_vjp` (see
    :class:`_BNMixin`).
    """

    #: Physical activation layout of both slots.
    layout = "NHWC"

    def __init__(self, bn, in_slot, out_slot, activation=None):
        self.bn = bn
        self.activation = activation
        self.in_slot = in_slot
        self.out_slot = out_slot

    def allocate(self, plan):
        self._dtype = plan.dtype

    def scratch_requests(self, plan):
        if not plan.train:
            return ()
        nbytes = int(np.prod(plan.shape(self.in_slot))) * plan.dtype.itemsize
        return ((SCRATCH_MAIN, nbytes),)

    def allocate_backward(self, plan):
        self._capture_stats = True
        self._pg_gamma = plan.grad_for(self.bn.gamma)
        self._pg_beta = plan.grad_for(self.bn.beta)
        # Forward (variance workspace) and backward (VJP workspace) uses never
        # overlap within a call, so both may view the same scratch channel.
        shape = plan.physical_shape(self.in_slot)
        self._bw_ws = plan.workspace(shape, channel=SCRATCH_MAIN)
        self._bn_ws = plan.workspace(shape, channel=SCRATCH_MAIN)

    def run(self, bufs):
        self._bn_forward(bufs[self.in_slot], bufs[self.out_slot])

    def _bind_bn_vjp(self, g, y, x, gin, mean, inv_std, gamma, pg_gamma, pg_beta):
        """Bound ``bn_vjp``, or ``None`` when these operands stay on NumPy."""
        if not _native_bn(x, g, y, gin, mean, inv_std, gamma, pg_gamma, pg_beta):
            return None
        return _native.bn_vjp_bind(g, y, x, gin, mean, inv_std, gamma, pg_gamma, pg_beta)

    def backward(self, bufs, grads):
        gout, y = grads[self.out_slot], bufs[self.out_slot]
        x, gin = bufs[self.in_slot], grads[self.in_slot]
        training, mean, inv_std, gamma = self._saved_stats
        relu = self.activation == "relu"
        bound = None
        if _native.available():
            bound = _native.bound(self, "_vjp_bound", self._bind_bn_vjp, gout,
                                  y if relu else None, x, gin, mean, inv_std, gamma,
                                  self._pg_gamma, self._pg_beta)
        if bound is None or not relu:
            vjp.activation_vjp(self.activation, y, gout)
        if bound is not None:
            bound(training, relu)
            return
        gx, dgamma, dbeta = vjp.batchnorm2d_vjp(
            gout, x, mean, inv_std, gamma, training, ws=self._bw_ws, channel_axis=3,
        )
        gin += gx
        self._pg_gamma += dgamma
        self._pg_beta += dbeta


class ActivationStep(Step):
    """``out = activation(x)``: an activation layer no step could absorb.

    The compiler emits it for an activation module whose input was not
    written by a fusable step (the first layer of a ``Sequential``, any
    activation of a training plan).  It copies the input, so it never
    mutates a slot another step may read.
    """

    def __init__(self, activation, in_slot, out_slot):
        self.activation = activation
        self.in_slot = in_slot
        self.out_slot = out_slot

    def run(self, bufs):
        out = bufs[self.out_slot]
        np.copyto(out, bufs[self.in_slot])
        apply_activation(self.activation, out)

    def backward(self, bufs, grads):
        gout = grads[self.out_slot]
        vjp.activation_vjp(self.activation, bufs[self.out_slot], gout)
        grads[self.in_slot] += gout


class AddStep(Step):
    """``out = a + b`` (residual join), optionally fused with an activation.

    The compiler may alias ``out`` to ``a`` (in-place join on a block-owned
    slot); backward then redefines the slot's gradient buffer in place, which
    is safe because the producer of the pre-join value runs later in the
    reverse program.
    """

    def __init__(self, a_slot, b_slot, out_slot, activation=None):
        self.a_slot = a_slot
        self.b_slot = b_slot
        self.out_slot = out_slot
        self.activation = activation

    def run(self, bufs):
        out = bufs[self.out_slot]
        np.add(bufs[self.a_slot], bufs[self.b_slot], out=out)
        apply_activation(self.activation, out)

    def backward(self, bufs, grads):
        gout = grads[self.out_slot]
        vjp.activation_vjp(self.activation, bufs[self.out_slot], gout)
        if self.a_slot != self.out_slot:
            grads[self.a_slot] += gout
        grads[self.b_slot] += gout


class FlattenStep(Step):
    """Flatten non-batch dimensions; a zero-copy view of a contiguous slot."""

    def __init__(self, in_slot, out_slot):
        self.in_slot = in_slot
        self.out_slot = out_slot

    def allocate_backward(self, plan):
        # The gradient buffer of the view slot aliases the source slot's
        # buffer, so accumulation flows through with no backward work.
        plan.grad_bufs[self.out_slot] = plan.grad_bufs[self.in_slot].reshape(
            plan.shape(self.out_slot)
        )

    def run(self, bufs):
        x = bufs[self.in_slot]
        bufs[self.out_slot] = x.reshape(x.shape[0], -1)

    def backward(self, bufs, grads):
        pass


class ReshapeStep(Step):
    """Reshape a slot to a fixed non-batch geometry (view, no copy)."""

    def __init__(self, in_slot, out_slot, shape_tail):
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.shape_tail = tuple(shape_tail)

    def allocate_backward(self, plan):
        plan.grad_bufs[self.out_slot] = plan.grad_bufs[self.in_slot].reshape(
            plan.shape(self.out_slot)
        )

    def run(self, bufs):
        x = bufs[self.in_slot]
        bufs[self.out_slot] = x.reshape((x.shape[0],) + self.shape_tail)

    def backward(self, bufs, grads):
        pass


class GlobalAvgPoolStep(Step):
    """Mean over the spatial extent of a channels-last 4-D slot -> ``(N, C)``."""

    #: Physical layout of the input slot.
    layout = "NHWC"

    def __init__(self, in_slot, out_slot):
        self.in_slot = in_slot
        self.out_slot = out_slot

    def run(self, bufs):
        bufs[self.in_slot].mean(axis=(1, 2), out=bufs[self.out_slot])

    def backward(self, bufs, grads):
        x = bufs[self.in_slot]
        scaled = grads[self.out_slot] * (1.0 / (x.shape[1] * x.shape[2]))
        grads[self.in_slot] += scaled[:, None, None, :]


class Pool2dStep(Step):
    """Max / average pooling via a strided window view (no patch copies)."""

    def __init__(self, mode, kernel_size, stride, in_slot, out_slot):
        self.mode = mode
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.in_slot = in_slot
        self.out_slot = out_slot

    def allocate(self, plan):
        n, c, h, w = plan.shape(self.in_slot)
        k, s = self.kernel_size, self.stride
        self._geom = (n, c, h, w, k, s, (h - k) // s + 1, (w - k) // s + 1)

    def run(self, bufs):
        x = bufs[self.in_slot]
        n, c, h, w, k, s, oh, ow = self._geom
        st = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, k, k),
            strides=(st[0], st[1], st[2] * s, st[3] * s, st[2], st[3]),
        )
        out = bufs[self.out_slot]
        if self.mode == "max":
            np.max(windows, axis=(4, 5), out=out)
        else:
            np.mean(windows, axis=(4, 5), out=out)

    def backward(self, bufs, grads):
        n, c, h, w, k, s, oh, ow = self._geom
        gout = grads[self.out_slot]
        gin = grads[self.in_slot]
        if self.mode == "avg":
            g = gout * (1.0 / (k * k))
            for i in range(k):
                for j in range(k):
                    gin[:, :, i : i + s * oh : s, j : j + s * ow : s] += g
            return
        x = bufs[self.in_slot]
        st = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, oh, ow, k, k),
            strides=(st[0], st[1], st[2] * s, st[3] * s, st[2], st[3]),
        )
        # First-winner-per-window semantics, matching the eager argmax rule.
        argmax = windows.reshape(n, c, oh, ow, k * k).argmax(axis=-1)
        for i in range(k):
            for j in range(k):
                mask = argmax == (i * k + j)
                gin[:, :, i : i + s * oh : s, j : j + s * ow : s] += gout * mask


class SoftmaxStep(Step):
    """Numerically stable softmax along the last axis into a fresh slot."""

    def __init__(self, in_slot, out_slot):
        self.in_slot = in_slot
        self.out_slot = out_slot

    def scratch_requests(self, plan):
        if not plan.train:
            return ()
        nbytes = int(np.prod(plan.shape(self.out_slot))) * plan.dtype.itemsize
        return ((SCRATCH_MAIN, nbytes),)

    def allocate_backward(self, plan):
        self._ws = plan.workspace(plan.shape(self.out_slot), channel=SCRATCH_MAIN)

    def run(self, bufs):
        x = bufs[self.in_slot]
        out = bufs[self.out_slot]
        np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)

    def backward(self, bufs, grads):
        vjp.softmax_vjp(grads[self.out_slot], bufs[self.out_slot], into=self._ws)
        grads[self.in_slot] += self._ws


class GateCombineStep(Step):
    """Gate-weighted sum of candidate-branch slots (gated supernet cell).

    ``in_slots`` holds one slot per compiled candidate (``candidates``).  Each
    run sums only the branches the plan's active set selects, in the order
    of that set, weighted by per-run gate values read from the plan's
    ``gate_values`` table (one value per candidate).  Backward writes the
    active branches' per-gate scalar gradients into ``gate_grads`` so the
    caller can propagate them through the (eager, tiny) Gumbel relaxation
    onto alpha.
    """

    def __init__(self, cell_index, in_slots, out_slot, candidates):
        self.cell_index = int(cell_index)
        self.in_slots = tuple(in_slots)
        self.out_slot = out_slot
        self.candidates = tuple(int(i) for i in candidates)

    def branch_of(self, slot):
        """The ``(cell, candidate)`` branch whose output ``slot`` carries here."""
        return (self.cell_index, self.candidates[self.in_slots.index(slot)])

    def scratch_requests(self, plan):
        nbytes = int(np.prod(plan.shape(self.out_slot))) * plan.dtype.itemsize
        return ((SCRATCH_MAIN, nbytes),)

    def allocate(self, plan):
        self._plan = plan
        self._ws = plan.workspace(plan.physical_shape(self.out_slot), channel=SCRATCH_MAIN)

    def run(self, bufs):
        gate = self._plan.gate_values[self.cell_index]
        positions = self._plan.active_positions[self.cell_index]
        out, ws = bufs[self.out_slot], self._ws
        first = positions[0]
        np.multiply(bufs[self.in_slots[first]], gate[first], out=out)
        for i in positions[1:]:
            np.multiply(bufs[self.in_slots[i]], gate[i], out=ws)
            out += ws

    def backward(self, bufs, grads):
        gate = self._plan.gate_values[self.cell_index]
        gate_grad = self._plan.gate_grads[self.cell_index]
        gout, ws = grads[self.out_slot], self._ws
        for i in self._plan.active_positions[self.cell_index]:
            slot = self.in_slots[i]
            np.multiply(gout, bufs[slot], out=ws)
            # Summed as one contiguous row: a fixed pairwise-summation order.
            gate_grad[i] = ws.reshape(1, -1).sum(axis=1)[0]
            np.multiply(gout, gate[i], out=ws)
            grads[slot] += ws

    def __repr__(self):
        return "GateCombineStep(cell={}, paths={})".format(self.cell_index, len(self.in_slots))


class TransposeStep(Step):
    """Materialised NCHW <-> NHWC conversion at a layout boundary.

    Emitted by the compiler where a step reads a slot in the other layout
    (channels-last conv / batch-norm / join / pooling steps versus the NCHW
    plan input, pooling windows, flatten, opaque modules and 4-D plan
    outputs), and by nothing else.  Both slots describe the
    same logical NCHW tensor; only the physical axis order differs, so the
    VJP is the opposite transpose.  A transpose of the plan input (or of
    another no-grad twin) skips its backward entirely — nothing reads the
    input's gradient.
    """

    def __init__(self, in_slot, out_slot, from_layout, to_layout):
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.from_layout = from_layout
        self.to_layout = to_layout

    def allocate_backward(self, plan):
        self._input_grad_needed = (
            self.in_slot != plan.input_slot
            and self.in_slot not in plan._no_grad_slots
        )

    def run(self, bufs):
        x, out = bufs[self.in_slot], bufs[self.out_slot]
        if self.to_layout == "NCHW":
            np.copyto(out, np.moveaxis(x, 3, 1))
        elif x.shape[1] <= 4:
            # A plan input's few frames: per-channel copies beat moveaxis 3-7x.
            for c in range(x.shape[1]):
                out[..., c] = x[:, c]
        else:
            np.copyto(out, np.moveaxis(x, 1, 3))

    def backward(self, bufs, grads):
        if not self._input_grad_needed:
            return
        gout = grads[self.out_slot]
        if self.to_layout == "NHWC":
            grads[self.in_slot] += np.moveaxis(gout, 3, 1)
        else:
            grads[self.in_slot] += np.moveaxis(gout, 1, 3)

    def __repr__(self):
        return "TransposeStep({}->{})".format(self.from_layout, self.to_layout)


class QuantInfo:
    """Quantization parameters the quantize pass attaches to a conv step.

    All scales are symmetric per-tensor activation scales harvested from
    calibration: ``in_scale`` is the input slot's (real units per integer
    step), ``out_scale`` the output slot's, ``res_scale`` the residual
    slot's (0 when the step has no residual).  Per-output-channel weight
    scales are derived from the live weights at run time, so optimiser-free
    weight swaps (``load_state_dict``) requantize automatically.
    """

    __slots__ = ("mode", "in_scale", "out_scale", "res_scale")

    def __init__(self, mode, in_scale, out_scale, res_scale=0.0):
        self.mode = str(mode)
        self.in_scale = float(in_scale)
        self.out_scale = float(out_scale)
        self.res_scale = float(res_scale)

    def __repr__(self):
        return "QuantInfo({}, in={:g}, out={:g}, res={:g})".format(
            self.mode, self.in_scale, self.out_scale, self.res_scale
        )


class QuantizeStep(Step):
    """Float -> integer boundary (inserted only by the quantize pass).

    Both slots describe the same logical tensor; the output slot carries the
    integer dtype and ``out = cast(clip(rint(x / scale), -qmax, qmax))``.
    The mirror of :class:`TransposeStep` for the dtype dimension: quantized
    regions of a plan are bracketed by these the way NHWC regions are
    bracketed by transposes.  Inference-only (quantized plans have no
    reverse program).
    """

    def __init__(self, in_slot, out_slot, scale, qmax, layout="NHWC"):
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.scale = float(scale)
        self.qmax = int(qmax)
        self.layout = layout

    def scratch_requests(self, plan):
        nbytes = int(np.prod(plan.shape(self.in_slot))) * plan.dtype.itemsize
        return ((SCRATCH_MAIN, nbytes),)

    def allocate(self, plan):
        self._ws = plan.workspace(
            plan.physical_shape(self.in_slot), channel=SCRATCH_MAIN
        )

    def run(self, bufs):
        ws = self._ws
        np.multiply(bufs[self.in_slot], 1.0 / self.scale, out=ws)
        np.rint(ws, out=ws)
        np.clip(ws, -self.qmax, self.qmax, out=ws)
        np.copyto(bufs[self.out_slot], ws, casting="unsafe")

    def __repr__(self):
        return "QuantizeStep(scale={:g})".format(self.scale)


class DequantizeStep(Step):
    """Integer -> float boundary (inserted only by the quantize pass).

    One broadcast multiply: ``out = x * scale``.  Consumers past this step
    (heads, pooling, unquantized convs) see ordinary float activations.
    """

    def __init__(self, in_slot, out_slot, scale, layout="NHWC"):
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.scale = float(scale)
        self.layout = layout

    def run(self, bufs):
        out = bufs[self.out_slot]
        np.multiply(bufs[self.in_slot], out.dtype.type(self.scale), out=out)

    def __repr__(self):
        return "DequantizeStep(scale={:g})".format(self.scale)


class OpaqueStep(Step):
    """Fallback: run an uncompilable module eagerly under ``no_grad``.

    Keeps the engine total over arbitrary user modules at the cost of the
    eager path's allocations for that one step.  Training plans reject it at
    compile time (the eager tape is the reference path for such modules).
    """

    def __init__(self, module, in_slot, out_slot):
        self.module = module
        self.in_slot = in_slot
        self.out_slot = out_slot

    def run(self, bufs):
        from ..nn import Tensor, no_grad

        with no_grad():
            out = self.module(Tensor(np.asarray(bufs[self.in_slot], dtype=np.float64)))
        np.copyto(bufs[self.out_slot], out.data)


class StoragePlan:
    """Buffer-sharing decisions computed by the slot-aliasing pass.

    Produced by :func:`repro.runtime.passes.alias_slots` from a liveness
    analysis of the forward (and, for training plans, reverse) program;
    consumed by :meth:`Plan.finalize`, which materialises one byte arena per
    storage class instead of one buffer per slot.
    """

    __slots__ = (
        "slot_arena",
        "arena_nbytes",
        "dead_slots",
        "scratch_channels",
        "grad_arena",
        "grad_arena_nbytes",
        "grad_dead",
        "grad_fill_schedule",
    )

    def __init__(self):
        #: slot -> arena index, for slots that share storage.
        self.slot_arena = {}
        #: capacity (bytes) of each forward arena.
        self.arena_nbytes = []
        #: slots no step reads or writes after the passes ran (not allocated).
        self.dead_slots = set()
        #: shared transient-workspace arenas: ``{channel: nbytes}``.
        self.scratch_channels = {}
        #: slot -> arena index for gradient buffers (training plans).
        self.grad_arena = {}
        self.grad_arena_nbytes = []
        #: slots whose gradient no step touches (not allocated).
        self.grad_dead = set()
        #: forward-step index -> slots whose gradient buffer must be zeroed
        #: just before that step's backward runs (their storage was reused by
        #: an earlier interval of the reverse program).
        self.grad_fill_schedule = {}


class Plan:
    """A compiled module graph for one ``(input shape, dtype)`` signature.

    With ``train=True`` the plan also owns the reverse-mode state: per-slot
    gradient buffers (views alias their source buffer), per-parameter
    gradient accumulators keyed by parameter identity, and — for gated
    supernet plans — per-cell gate value/gradient tables of shape
    ``(num_candidates,)``.

    Gated supernet plans tag every step of a candidate branch with its
    ``(cell, candidate)`` (:attr:`Step.branch`).  :meth:`set_gates` picks
    the branches each run executes: the plan skips the steps, gradient
    zeroing and gradient fills of the others, and :meth:`param_grad` reports
    ``None`` for their parameters, so one compiled plan serves every sample.
    """

    def __init__(self, dtype=np.float64, train=False, pool=None):
        self.dtype = np.dtype(dtype)
        self.train = bool(train)
        self.steps = []
        self._shapes = []
        self._layouts = []
        self._dtypes = []
        self._view_slots = set()
        #: Slots whose gradient nothing ever reads (transposed twins of the
        #: plan input): their producers and consumers skip the input VJP.
        self._no_grad_slots = set()
        self.bufs = None
        self.input_slot = None
        self.output_slots = ()
        self.named_slots = {}
        self.grad_bufs = None
        self.param_grads = OrderedDict()
        self.gate_layout = None
        self.gate_values = None
        self.gate_grads = None
        #: Per-cell candidate indices the next run executes (``None``: every
        #: compiled branch) and their positions in :attr:`gate_layout`.
        self.active_paths = None
        self.active_positions = None
        #: Step list of the current selection, its reverse program of
        #: ``(gradient slots to zero first, step)`` pairs, and the gradient
        #: buffers :meth:`zero_grads` clears.
        self._run_steps = None
        self._backward_program = None
        self._zero_bufs = ()
        self._inactive_params = frozenset()
        #: Parameter id -> branch of the step that registered its gradient.
        self._param_branch = {}
        self._grad_owner = None
        self._pool = pool
        self._blocks = []
        #: Set by the aliasing pass before finalize; ``None`` = one buffer
        #: per slot (the pre-pass behaviour).
        self.storage = None
        self._scratch_blocks = {}
        self._grad_fill_schedule = {}
        self._grad_scheduled = frozenset()
        #: Total bytes obtained through :meth:`alloc` — the plan's resident
        #: footprint (arenas counted once, workspaces included).
        self.alloc_bytes = 0
        #: Span name traced runs record (the compiler overwrites it with the
        #: module/signature, e.g. ``"plan/ActorCriticAgent[f32,infer,n16]"``).
        self.trace_name = "plan/anonymous"

    def alloc(self, shape, dtype=None, zero=False):
        """Allocate a plan-owned array, recycling pooled blocks when possible.

        Without a pool this is plain ``np.empty`` / ``np.zeros``; with one,
        the backing block is drawn from (and later released back to) the
        pool, so recompiles touch warm pages.  Contents are uninitialised
        unless ``zero`` is set.
        """
        shape = tuple(int(d) for d in shape)
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self.alloc_bytes += nbytes
        if self._pool is None:
            return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
        block = self._pool.take(nbytes)
        self._blocks.append(block)
        array = block[:nbytes].view(dtype).reshape(shape)
        if zero:
            array.fill(0)
        return array

    def workspace(self, shape, dtype=None, channel=0):
        """A transient workspace valid only within one step call.

        When the aliasing pass provisioned a shared scratch arena for
        ``channel``, every request of that channel views the same block
        (their lifetimes never overlap by construction); otherwise this is a
        private :meth:`alloc`.
        """
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        nbytes = int(np.prod(tuple(int(d) for d in shape))) * dtype.itemsize
        block = self._scratch_blocks.get(channel)
        if block is None or nbytes > block.nbytes:
            return self.alloc(shape, dtype=dtype)
        return block[:nbytes].view(dtype).reshape(shape)

    def release(self):
        """Hand this plan's backing blocks back to the pool.

        The plan is unusable afterwards (its buffers may be recycled by the
        next compile); engines call this when evicting a plan from a cache.
        """
        blocks, self._blocks = self._blocks, []
        if self._pool is not None:
            self._pool.give(blocks)
        self.bufs = None
        self.grad_bufs = None

    # ------------------------------------------------------------------ #
    # Compile-time API (used by the compiler)
    # ------------------------------------------------------------------ #
    def new_slot(self, shape, view=False, layout=None, dtype=None):
        """Register an activation slot; ``view`` slots are filled by steps.

        ``layout`` tags the slot's *physical* axis order; 4-D slots default
        to ``"NCHW"`` (the logical order), other ranks carry no layout.
        ``dtype`` overrides the plan dtype for this slot (the quantize pass
        registers integer activation slots this way); ``None`` means the
        slot follows :attr:`dtype`.
        """
        slot = len(self._shapes)
        shape = tuple(int(d) for d in shape)
        self._shapes.append(shape)
        if layout is None:
            layout = "NCHW" if len(shape) == 4 else None
        self._layouts.append(layout)
        self._dtypes.append(None if dtype is None else np.dtype(dtype))
        if view:
            self._view_slots.add(slot)
        return slot

    def shape(self, slot):
        """Compile-time *logical* (NCHW-ordered) shape of ``slot``."""
        return self._shapes[slot]

    def layout(self, slot):
        """Physical layout tag of ``slot`` (``None`` for non-4-D slots)."""
        return self._layouts[slot]

    def slot_dtype(self, slot):
        """Buffer dtype of ``slot`` (the plan dtype unless overridden)."""
        dtype = self._dtypes[slot]
        return self.dtype if dtype is None else dtype

    def set_slot_dtype(self, slot, dtype):
        """Override ``slot``'s buffer dtype (quantize pass only)."""
        self._dtypes[slot] = None if dtype is None else np.dtype(dtype)

    def physical_shape(self, slot):
        """Physical buffer shape of ``slot`` (permuted when tagged NHWC)."""
        shape = self._shapes[slot]
        if self._layouts[slot] == "NHWC":
            n, c, h, w = shape
            return (n, h, w, c)
        return shape

    def add(self, step):
        """Append a step to the execution order."""
        self.steps.append(step)
        return step

    def set_gate_layout(self, layout):
        """Declare the per-cell active-candidate layout of a gated plan."""
        self.gate_layout = tuple(tuple(int(i) for i in cell) for cell in layout)

    def grad_for(self, param):
        """The pre-allocated gradient accumulator for ``param`` (register on first use)."""
        key = id(param)
        entry = self.param_grads.get(key)
        if entry is None:
            buf = self.alloc(param.data.shape, zero=True)
            self.param_grads[key] = (param, buf)
            if self._grad_owner is not None:
                self._param_branch[key] = self._grad_owner
            return buf
        return entry[1]

    def _slot_buffers(self, arena_map, arena_blocks, dead):
        """One buffer per slot, honouring arena sharing and dead slots.

        Buffers take the slot's *physical* shape; arena sharing is by bytes,
        so NHWC intervals coexist with NCHW ones in the same arena.
        """
        bufs = []
        for slot in range(len(self._shapes)):
            shape = self.physical_shape(slot)
            dtype = self.slot_dtype(slot)
            if slot in self._view_slots or slot in dead:
                bufs.append(None)
            elif slot in arena_map:
                nbytes = int(np.prod(shape)) * dtype.itemsize
                block = arena_blocks[arena_map[slot]]
                bufs.append(block[:nbytes].view(dtype).reshape(shape))
            else:
                bufs.append(self.alloc(shape, dtype=dtype))
        return bufs

    def finalize(self, input_slot, output_slots):
        """Fix the plan's interface and allocate every buffer and workspace."""
        self.input_slot = input_slot
        self.output_slots = tuple(output_slots)
        st = self.storage
        if st is None:
            self.bufs = self._slot_buffers({}, [], frozenset())
        else:
            arena_blocks = [
                self.alloc((nbytes,), dtype=np.uint8) for nbytes in st.arena_nbytes
            ]
            self.bufs = self._slot_buffers(st.slot_arena, arena_blocks, st.dead_slots)
            self._scratch_blocks = {
                channel: self.alloc((nbytes,), dtype=np.uint8)
                for channel, nbytes in st.scratch_channels.items()
                if nbytes > 0
            }
        for step in self.steps:
            step.allocate(self)
        if self.gate_layout is not None:
            self.gate_values = [np.zeros(len(cell), dtype=self.dtype) for cell in self.gate_layout]
            self.gate_grads = [np.zeros(len(cell), dtype=np.float64) for cell in self.gate_layout]
        if self.train:
            # No zeroing here: zero_grads() runs before every backward pass
            # (interval-start zeroing for schedule-covered slots happens
            # inside run_backward).
            if st is None:
                grad_arena, grad_blocks, grad_dead = {}, [], frozenset()
            else:
                grad_blocks = [
                    self.alloc((nbytes,), dtype=np.uint8) for nbytes in st.grad_arena_nbytes
                ]
                grad_arena, grad_dead = st.grad_arena, st.grad_dead
                self._grad_fill_schedule = dict(st.grad_fill_schedule)
                self._grad_scheduled = frozenset(
                    slot for slots in st.grad_fill_schedule.values() for slot in slots
                )
            self.grad_bufs = self._slot_buffers(grad_arena, grad_blocks, grad_dead)
            for step in self.steps:
                self._grad_owner = step.branch
                step.allocate_backward(self)
            self._grad_owner = None
        self._select(None)
        return self

    # ------------------------------------------------------------------ #
    # Runtime API
    # ------------------------------------------------------------------ #
    def run(self, x):
        """Execute the plan on input ``x``; returns the output buffer(s).

        The returned arrays are the plan's own buffers: they are valid until
        the next ``run`` and must be copied by callers that keep them.
        """
        np.copyto(self.bufs[self.input_slot], x)
        bufs = self.bufs
        # The enabled check is hoisted out of the step loop: a disabled
        # tracer costs one attribute load per plan run, not per step.
        if trace.enabled:
            return self._run_traced(bufs)
        for step in self._run_steps:
            step.run(bufs)
        if len(self.output_slots) == 1:
            return bufs[self.output_slots[0]]
        return tuple(bufs[slot] for slot in self.output_slots)

    def _run_traced(self, bufs):
        """The :meth:`run` step loop with one span per plan run and per step."""
        trace.begin(self.trace_name, "plan")
        try:
            for step in self._run_steps:
                trace.begin(step.trace_label(), "step")
                step.run(bufs)
                trace.end()
        finally:
            trace.end()
        if len(self.output_slots) == 1:
            return bufs[self.output_slots[0]]
        return tuple(bufs[slot] for slot in self.output_slots)

    def set_gates(self, values, active=None):
        """Select the branches the next runs execute and load their gates.

        ``active`` holds per-cell candidate indices, each a subset of the
        cell's :attr:`gate_layout` entry; ``None`` selects every compiled
        branch.  ``values`` holds per-cell gate values aligned with the
        selection, shape ``(n,)``.  Combines sum the selected branches in the
        order given.
        """
        self._select(active)
        for buf, positions, cell_values in zip(self.gate_values, self.active_positions, values):
            buf[list(positions)] = cell_values

    def set_path(self, path):
        """Run exactly one branch per cell, ``path[c]``, at gate value 1."""
        path = tuple(int(i) for i in path)
        self.set_gates([np.ones(1)] * len(path), active=[(i,) for i in path])

    def _select(self, active):
        """Rebuild the run and reverse programs for a per-cell active set."""
        layout = self.gate_layout or ()
        key = None if active is None else tuple(tuple(int(i) for i in cell) for cell in active)
        if key is not None and key == self.active_paths:
            return
        chosen = layout if key is None else key
        if len(chosen) != len(layout) or any(
            not want or not set(want) <= set(cell) for cell, want in zip(layout, chosen)
        ):
            raise ValueError(
                "active sets {} do not select from the compiled candidates {}".format(key, layout)
            )
        self.active_paths = key
        self.active_positions = [
            tuple(cell.index(i) for i in want) for cell, want in zip(layout, chosen)
        ]
        inactive = {
            (c, i) for c, (cell, want) in enumerate(zip(layout, chosen)) for i in cell if i not in want
        }
        self._run_steps = [step for step in self.steps if step.branch not in inactive]
        if self.train:
            self._select_backward(inactive)

    def _select_backward(self, inactive):
        # Gradient buffers of the slots inactive steps produce stay untouched:
        # no zeroing, no fills.
        idle = {
            step.out_slot for step in self.steps
            if step.branch in inactive and hasattr(step, "out_slot")
        }
        skip = self._view_slots | self._grad_scheduled | idle
        self._inactive_params = frozenset(
            key for key, branch in self._param_branch.items() if branch in inactive
        )
        self._zero_bufs = [
            buf for slot, buf in enumerate(self.grad_bufs) if buf is not None and slot not in skip
        ] + [
            buf for key, (_, buf) in self.param_grads.items() if key not in self._inactive_params
        ]
        # A fill scheduled at an inactive step moves to the next step the
        # reverse program runs: the slot's first active toucher is no
        # earlier, and every slot sharing its storage is done by then.
        program, pending = [], []
        for index in range(len(self.steps) - 1, -1, -1):
            pending.extend(
                slot for slot in self._grad_fill_schedule.get(index, ()) if slot not in idle
            )
            step = self.steps[index]
            if step.branch not in inactive:
                program.append((tuple(pending), step))
                pending = []
        self._backward_program = program

    def zero_grads(self):
        """Reset slot and parameter gradient accumulators to zero.

        Slots covered by the aliasing pass's fill schedule are skipped here:
        their (shared) storage is zeroed by :meth:`run_backward` right when
        their live interval begins.  Inactive branches keep their buffers
        untouched.
        """
        for buf in self._zero_bufs:
            buf.fill(0.0)

    def seed_grad(self, slot, value):
        """Write the loss gradient w.r.t. ``slot`` into its gradient buffer."""
        self.grad_bufs[slot][...] = value

    def run_backward(self):
        """Run the reverse-mode program (the selected forward steps, reversed).

        Callers must have ``zero_grads()``-ed and seeded the output-slot
        gradients first; parameter gradients land in :attr:`param_grads`.
        """
        bufs = self.bufs
        grads = self.grad_bufs
        if trace.enabled:
            return self._run_backward_traced(bufs, grads)
        for fills, step in self._backward_program:
            for slot in fills:
                grads[slot].fill(0.0)
            step.backward(bufs, grads)

    def _run_backward_traced(self, bufs, grads):
        """The :meth:`run_backward` loop with per-step backward spans."""
        trace.begin(self.trace_name + "/backward", "plan")
        try:
            for fills, step in self._backward_program:
                for slot in fills:
                    grads[slot].fill(0.0)
                trace.begin(step.trace_label() + "/bwd", "step")
                step.backward(bufs, grads)
                trace.end()
        finally:
            trace.end()

    def param_grad(self, param):
        """The accumulated gradient buffer for ``param``.

        ``None`` when no step of the plan, or none of the selected branches,
        touches ``param``.
        """
        key = id(param)
        entry = self.param_grads.get(key)
        if entry is None or key in self._inactive_params:
            return None
        return entry[1]

    def __repr__(self):
        return "Plan(steps={}, slots={}, dtype={}{})".format(
            len(self.steps), len(self._shapes), self.dtype.name,
            ", train" if self.train else "",
        )

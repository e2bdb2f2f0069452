"""GEMM-backed convolution kernels: dense and pointwise NHWC, and the NCHW fallback.

:class:`Im2colNHWCKernel` serves dense (ungrouped, non-1x1) convs on
channels-last slots: the compiled C gather writes tap-major columns straight
from the unpadded input, and one flat GEMM writes the NHWC output, in
inference plans as in training plans.  It exists only where the C library
builds; without it (``REPRO_NATIVE=0``) dense convs stay NCHW.

:class:`PointwiseNHWCKernel` serves 1x1 convolutions on channels-last slots:
with channels trailing, the whole op is a single flat
``(N*H*W, C_in) @ (C_in, C_out)`` GEMM with no gather, no reshape copies and
trivially contiguous VJPs.  Channels-last depthwise convs go to the kernels
in :mod:`repro.runtime.kernels.depthwise`.

:class:`GemmIm2colKernel` is the runtime's original convolution path:
copy the input into a persistent zero-padded buffer, gather patches into an
im2col workspace laid out ``(N, C, kh, kw, oh, ow)``, then one batched GEMM
per groups class writing straight into the NCHW output.  It supports every
NCHW signature in both directions and registers **last**, making it the
dispatch fallback.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ...nn import vjp
from . import _native
from .registry import (
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    register_kernel,
)

__all__ = ["GemmIm2colKernel", "Im2colNHWCKernel", "PointwiseNHWCKernel"]


def _patches_view(padded, n, c, k, oh, ow, stride):
    """The ``(n, c, k, k, oh, ow)`` im2col gather view of a padded buffer."""
    st = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, c, k, k, oh, ow),
        strides=(st[0], st[1], st[2], st[3], st[2] * stride, st[3] * stride),
    )


@register_kernel
class PointwiseNHWCKernel(ConvKernel):
    """1x1 convolution over a channels-last slot as one flat GEMM (+ VJPs).

    With channels trailing, ``(N, H, W, C_in)`` *is* the column matrix: the
    forward is ``x2 @ W.T`` over ``(N*H*W, C_in)`` with no gather and no
    reshape copies, and both VJPs are equally direct GEMMs contracting
    against the plan's own slot buffers — no saved state at all.
    """

    name = "pointwise_nhwc"

    @classmethod
    def supports(cls, spec):
        return spec.layout == "NHWC" and spec.pointwise

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        item = spec.itemsize
        requests = [(SCRATCH_GEMM, spec.out_channels * spec.in_channels * item)]
        if input_grad_needed:
            m = spec.batch * spec.out_height * spec.out_width
            requests.append((SCRATCH_MAIN, m * spec.in_channels * item))
        return tuple(requests)

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        c, cout = spec.in_channels, spec.out_channels
        np.matmul(x.reshape(-1, c), weight.reshape(cout, c).T, out=out.reshape(-1, cout))
        epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        spec = self.spec
        c, cout = spec.in_channels, spec.out_channels
        self._gw_ws = plan.workspace((cout, c), channel=SCRATCH_GEMM)
        self._gx_ws = None
        if input_grad_needed:
            m = spec.batch * spec.out_height * spec.out_width
            self._gx_ws = plan.workspace((m, c), channel=SCRATCH_MAIN)

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        c, cout = spec.in_channels, spec.out_channels
        g2 = gout.reshape(-1, cout)
        np.matmul(g2.T, x.reshape(-1, c), out=self._gw_ws)
        gw.reshape(cout, c)[...] += self._gw_ws
        if gin is not None:
            np.matmul(g2, weight.reshape(cout, c), out=self._gx_ws)
            gin.reshape(-1, c)[...] += self._gx_ws


@register_kernel
class Im2colNHWCKernel(ConvKernel):
    """Dense convolution over a channels-last slot: C gather + one flat GEMM (+ VJPs).

    The compiled ``im2col_nhwc`` gathers tap-major columns ``(N*oh*ow,
    k*k*C)`` straight from the unpadded input (taps in the padding read as
    zeros, so no padded copy is made), and one GEMM against the tap-major
    ``(k*k*C, C_out)`` weight writes the NHWC output.  The weight VJP is
    ``cols.T @ gout``; the input VJP is ``gout @ W.T`` scattered back by the
    compiled ``col2im_nhwc``.  Training plans keep the columns as the saved
    state, as ``im2col`` does.
    """

    name = "im2col_nhwc"

    @classmethod
    def supports(cls, spec):
        return (
            spec.layout == "NHWC"
            and spec.op_class == "dense"
            and spec.padding < spec.kernel
            and spec.dtype in ("float32", "float64")
            and _native.available()
        )

    @staticmethod
    def _cols_shape(spec):
        return spec.batch * spec.out_height * spec.out_width, spec.kernel ** 2 * spec.in_channels

    @classmethod
    def scratch_requests(cls, spec):
        m, kc = cls._cols_shape(spec)
        return () if spec.train else ((SCRATCH_MAIN, m * kc * spec.itemsize),)

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        m, kc = cls._cols_shape(spec)
        requests = [(SCRATCH_GEMM, kc * spec.out_channels * spec.itemsize)]
        if input_grad_needed:
            requests.append((SCRATCH_MAIN, m * kc * spec.itemsize))
        return tuple(requests)

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        shape = self._cols_shape(spec)
        # Persistent in training plans: the saved input patches of backward.
        self._cols = plan.alloc(shape) if spec.train else plan.workspace(shape, channel=SCRATCH_MAIN)
        self._wt = plan.alloc((shape[1], spec.out_channels))

    def _bind(self, name, image, cols):
        spec = self.spec
        return _native.nhwc_cols_bind(name, image, cols, spec.kernel, spec.stride, spec.padding)

    def _load_weight(self, weight):
        """The live ``(C_out, C, k, k)`` weight in tap-major ``(k*k*C, C_out)`` order."""
        k, c = self.spec.kernel, self.spec.in_channels
        self._wt.reshape(k, k, c, -1)[...] = weight.transpose(2, 3, 1, 0)
        return self._wt

    def forward(self, x, weight, out, epilogue):
        _native.bound(self, "_gather", partial(self._bind, "im2col_nhwc"), x, self._cols)()
        np.matmul(self._cols, self._load_weight(weight), out=out.reshape(self._cols.shape[0], -1))
        epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        m, kc = self._cols.shape
        self._gwt = plan.workspace((kc, self.spec.out_channels), channel=SCRATCH_GEMM)
        self._gcols = plan.workspace((m, kc), channel=SCRATCH_MAIN) if input_grad_needed else None

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        k, c = spec.kernel, spec.in_channels
        g2 = gout.reshape(self._cols.shape[0], -1)
        np.matmul(self._cols.T, g2, out=self._gwt)
        gw += self._gwt.reshape(k, k, c, -1).transpose(3, 2, 0, 1)
        if gin is not None:
            np.matmul(g2, self._load_weight(weight).T, out=self._gcols)
            _native.bound(self, "_scatter", partial(self._bind, "col2im_nhwc"), gin, self._gcols)()


@register_kernel
class GemmIm2colKernel(ConvKernel):
    """Whole-batch im2col + batched GEMM; the total fallback (fwd + VJPs).

    Pointwise stride-1 convolutions skip the gather entirely (the input
    buffer itself is the column matrix).  In training plans the column
    workspace is plan-persistent — it doubles as the saved input patches the
    weight VJP contracts against; the input VJP is a GEMM into a column-
    gradient workspace followed by the compiled ``col2im`` scatter (without
    the library, its NumPy twin :func:`repro.nn.vjp.col2im_nchw_accumulate`).
    """

    name = "im2col"
    fallback = True

    @classmethod
    def supports(cls, spec):
        # Total over NCHW; channels-last signatures go to the NHWC-native
        # kernels (the layout pass only re-tags a step when one exists).
        return spec.layout == "NCHW"

    @classmethod
    def scratch_requests(cls, spec):
        if spec.pointwise or spec.train:
            # Pointwise needs no columns; training columns are persistent.
            return ()
        cols = (
            spec.batch * spec.in_channels * spec.kernel * spec.kernel
            * spec.out_height * spec.out_width * spec.itemsize
        )
        return ((SCRATCH_MAIN, cols),)

    @classmethod
    def _backward_ws_shapes(cls, spec, input_grad_needed):
        """``(gx, gw, gcols, gpad)`` workspace shapes (``None`` when unused)."""
        n, c = spec.batch, spec.in_channels
        cout, groups, k = spec.out_channels, spec.groups, spec.kernel
        h, w, p = spec.height, spec.width, spec.padding
        oh, ow = spec.out_height, spec.out_width
        gx = gw = gcols = gpad = None
        if spec.pointwise:
            gx = (n, c, oh * ow) if input_grad_needed else None
            gw = (n, cout, c)
        else:
            gcols = (n, c, k, k, oh, ow) if input_grad_needed else None
            gpad = (n, c, h + 2 * p, w + 2 * p) if (p > 0 and input_grad_needed) else None
            if groups == 1:
                gw = (n, cout, c * k * k)
            elif groups == c == cout:
                gw = (n, c, 1, k * k)
            else:
                gw = (n, groups, cout // groups, (c // groups) * k * k)
        return gx, gw, gcols, gpad

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        requests = []
        gx, gw, gcols, gpad = cls._backward_ws_shapes(spec, input_grad_needed)
        for channel, shape in ((SCRATCH_MAIN, gx), (SCRATCH_GEMM, gw),
                               (SCRATCH_MAIN, gcols), (SCRATCH_PAD, gpad)):
            if shape is not None:
                requests.append((channel, int(np.prod(shape)) * spec.itemsize))
        return requests

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        n, c = spec.batch, spec.in_channels
        h, w, p, k = spec.height, spec.width, spec.padding, spec.kernel
        self._padded = (
            plan.alloc((n, c, h + 2 * p, w + 2 * p), zero=True) if p > 0 else None
        )
        # The column workspace is transient in inference plans (dead once the
        # GEMM consumed it) and may live in the plan's shared scratch arena;
        # training plans keep it as the saved input patches for backward.
        if spec.pointwise:
            self._cols = None
        elif spec.train:
            self._cols = plan.alloc((n, c, k, k, spec.out_height, spec.out_width))
        else:
            self._cols = plan.workspace(
                (n, c, k, k, spec.out_height, spec.out_width), channel=SCRATCH_MAIN
            )

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        n, c = spec.batch, spec.in_channels
        cout, groups = spec.out_channels, spec.groups
        h, w, p, k, s = spec.height, spec.width, spec.padding, spec.kernel, spec.stride
        oh, ow = spec.out_height, spec.out_width
        if spec.pointwise:
            cols = x
        else:
            if self._padded is not None:
                self._padded[:, :, p:p + h, p:p + w] = x
                x = self._padded
            np.copyto(self._cols, _patches_view(x, n, c, k, oh, ow, s))
            cols = self._cols
        if groups == 1:
            # (C_out, C*k*k) @ (N, C*k*k, oh*ow) -> (N, C_out, oh*ow).
            np.matmul(
                weight.reshape(cout, -1),
                cols.reshape(n, c * k * k, oh * ow),
                out=out.reshape(n, cout, oh * ow),
            )
        elif groups == c == cout:
            # Depthwise: (C, 1, k*k) @ (N, C, k*k, oh*ow) -> (N, C, 1, oh*ow).
            np.matmul(
                weight.reshape(c, 1, k * k),
                cols.reshape(n, c, k * k, oh * ow),
                out=out.reshape(n, c, 1, oh * ow),
            )
        else:
            cin_g = c // groups
            cout_g = cout // groups
            cols4d = cols.reshape(n, groups, cin_g * k * k, oh * ow)
            out4d = out.reshape(n, groups, cout_g, oh * ow)
            w_mats = weight.reshape(groups, cout_g, cin_g * k * k)
            for g in range(groups):
                np.matmul(w_mats[g], cols4d[:, g], out=out4d[:, g])
        epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        self._input_grad_needed = bool(input_grad_needed)
        gx, gw, gcols, gpad = self._backward_ws_shapes(self.spec, input_grad_needed)
        self._gx_ws = plan.workspace(gx, channel=SCRATCH_MAIN) if gx is not None else None
        self._gw_ws = plan.workspace(gw, channel=SCRATCH_GEMM)
        self._gcols = plan.workspace(gcols, channel=SCRATCH_MAIN) if gcols is not None else None
        self._gpad = plan.workspace(gpad, channel=SCRATCH_PAD) if gpad is not None else None

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        n, c = spec.batch, spec.in_channels
        cout, groups, k = spec.out_channels, spec.groups, spec.kernel
        h, w, s, p = spec.height, spec.width, spec.stride, spec.padding
        oh, ow = spec.out_height, spec.out_width
        gout3 = gout.reshape(n, cout, oh * ow)
        if spec.pointwise:
            x3 = x.reshape(n, c, oh * ow)
            w_mat = weight.reshape(cout, c)
            np.matmul(gout3, x3.transpose(0, 2, 1), out=self._gw_ws)
            gw.reshape(cout, c)[...] += self._gw_ws.sum(axis=0)
            if gin is not None:
                np.matmul(w_mat.T, gout3, out=self._gx_ws)
                gin += self._gx_ws.reshape(n, c, h, w)
            return
        cols = self._cols  # saved by the forward run
        if groups == 1:
            w_mat = weight.reshape(cout, c * k * k)
            cols3 = cols.reshape(n, c * k * k, oh * ow)
            np.matmul(gout3, cols3.transpose(0, 2, 1), out=self._gw_ws)
            gw.reshape(cout, c * k * k)[...] += self._gw_ws.sum(axis=0)
            if gin is not None:
                np.matmul(w_mat.T, gout3, out=self._gcols.reshape(n, c * k * k, oh * ow))
        elif groups == c == cout:
            w2 = weight.reshape(c, 1, k * k)
            cols4 = cols.reshape(n, c, k * k, oh * ow)
            gout4 = gout.reshape(n, c, 1, oh * ow)
            np.matmul(gout4, cols4.transpose(0, 1, 3, 2), out=self._gw_ws)
            gw.reshape(c, 1, k * k)[...] += self._gw_ws.sum(axis=0)
            if gin is not None:
                np.matmul(
                    w2.transpose(0, 2, 1), gout4, out=self._gcols.reshape(n, c, k * k, oh * ow)
                )
        else:
            cin_g = c // groups
            cout_g = cout // groups
            cols4 = cols.reshape(n, groups, cin_g * k * k, oh * ow)
            gout4 = gout.reshape(n, groups, cout_g, oh * ow)
            gcols4 = (
                self._gcols.reshape(n, groups, cin_g * k * k, oh * ow)
                if gin is not None
                else None
            )
            w_mats = weight.reshape(groups, cout_g, cin_g * k * k)
            for g in range(groups):
                np.matmul(gout4[:, g], cols4[:, g].transpose(0, 2, 1), out=self._gw_ws[:, g])
                if gin is not None:
                    np.matmul(w_mats[g].T, gout4[:, g], out=gcols4[:, g])
            gw.reshape(groups, cout_g, cin_g * k * k)[...] += self._gw_ws.sum(axis=0)
        if gin is not None and _native.available():
            _native.bound(self, "_col2im", lambda *ops: _native.col2im_bind(*ops, k, s, p),
                          self._gcols, gin, self._gpad)()
        elif gin is not None:
            vjp.col2im_nchw_accumulate(self._gcols, gin, s, p, pad_ws=self._gpad)

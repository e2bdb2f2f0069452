"""GEMM-backed convolution kernels: dense and pointwise, channels-last.

:class:`Im2colNHWCKernel` serves dense (ungrouped, non-1x1) convs: a
tap-major column gather, and one flat GEMM writes the NHWC output, in
inference plans as in training plans.  The
gather and the input-VJP scatter run in C where the library builds and as
NumPy twins that give the same bytes elsewhere (``REPRO_NATIVE=0``).

:class:`PointwiseNHWCKernel` serves 1x1 convolutions: with channels
trailing, the whole op is a single flat ``(N*H*W, C_in) @ (C_in, C_out)``
GEMM with no gather, no reshape copies and trivially contiguous VJPs.
Depthwise convs go to the kernels in :mod:`repro.runtime.kernels.depthwise`.
Each kernel here is the fallback of its op class.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import _native
from .depthwise import _embed, _windows
from .registry import (
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    register_kernel,
)

__all__ = ["Im2colNHWCKernel", "PointwiseNHWCKernel"]


@register_kernel
class PointwiseNHWCKernel(ConvKernel):
    """1x1 convolution over a channels-last slot as one flat GEMM (+ VJPs).

    With channels trailing, ``(N, H, W, C_in)`` *is* the column matrix: the
    forward is ``x2 @ W.T`` over ``(N*H*W, C_in)`` with no gather and no
    reshape copies, and both VJPs are equally direct GEMMs contracting
    against the plan's own slot buffers — no saved state at all.
    """

    name = "pointwise_nhwc"
    fallback = True

    @classmethod
    def supports(cls, spec):
        return spec.pointwise

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


def _tap_rows(t, stride, padding, size, out):
    """``(first, count)`` of the outputs whose tap ``t`` reads inside ``size``."""
    lo = max(0, -((t - padding) // stride))
    hi = min(out, max(0, (size - 1 + padding - t) // stride + 1))
    return lo, max(0, hi - lo)


@register_kernel
class Im2colNHWCKernel(ConvKernel):
    """Dense convolution over a channels-last slot: a column gather + one flat GEMM (+ VJPs).

    The gather writes tap-major columns ``(N*oh*ow, k*k*C)``, taps in the
    padding reading as zeros, and one GEMM against the tap-major ``(k*k*C,
    C_out)`` weight writes the NHWC output.  The weight VJP is ``cols.T @
    gout``; the input VJP is ``gout @ W.T`` scattered back into ``gin``.
    Training plans keep the columns as the saved state.

    Where the C library builds, the compiled ``im2col_nhwc`` gathers from
    the unpadded input and ``col2im_nhwc`` scatters.  Elsewhere their NumPy
    twins give the same bytes with the same GEMMs: the gather copies a
    strided ``(n, oh, ow, k, k, C)`` view of a zero-padded buffer, and the
    scatter adds each tap straight into ``gin``, taps in descending ``(i,
    j)`` order — the order ``col2im_nhwc`` adds into each element.
    """

    name = "im2col_nhwc"
    fallback = True

    @classmethod
    def supports(cls, spec):
        return (
            spec.op_class == "dense"
            and spec.padding < spec.kernel
            and spec.dtype in ("float32", "float64")
        )

    @staticmethod
    def _cols_shape(spec):
        return spec.batch * spec.out_height * spec.out_width, spec.kernel ** 2 * spec.in_channels

    @staticmethod
    def _pad_shape(spec):
        """The NumPy gather's zero-padded input, or ``None`` when it needs none."""
        if spec.padding == 0 or _native.available():
            return None
        p = spec.padding
        return spec.batch, spec.height + 2 * p, spec.width + 2 * p, spec.in_channels

    @classmethod
    def scratch_requests(cls, spec):
        m, kc = cls._cols_shape(spec)
        requests = [] if spec.train else [(SCRATCH_MAIN, m * kc * spec.itemsize)]
        pad = cls._pad_shape(spec)
        if pad is not None:
            requests.append((SCRATCH_PAD, int(np.prod(pad)) * spec.itemsize))
        return tuple(requests)

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
        self._native = _native.available()
        pad = self._pad_shape(spec)
        self._xpad = None if pad is None else plan.workspace(pad, channel=SCRATCH_PAD)

    def _bind(self, name, image, cols):
        spec = self.spec
        return _native.nhwc_cols_bind(name, image, cols, spec.kernel, spec.stride, spec.padding)

    def _load_weight(self, weight):
        """The live ``(C_out, C, k, k)`` weight in tap-major ``(k*k*C, C_out)`` order."""
        k, c = self.spec.kernel, self.spec.in_channels
        self._wt.reshape(k, k, c, -1)[...] = weight.transpose(2, 3, 1, 0)
        return self._wt

    def _gather(self, x):
        if self._native:
            _native.bound(self, "_gather_bound", partial(self._bind, "im2col_nhwc"), x, self._cols)()
            return
        spec = self.spec
        k, oh, ow = spec.kernel, spec.out_height, spec.out_width
        padded = _embed(self._xpad, x, spec.padding) if self._xpad is not None else x
        np.copyto(self._cols.reshape(spec.batch, oh, ow, k, k, spec.in_channels),
                  _windows(padded, oh, ow, k, spec.stride))

    def _scatter(self, gin, gcols):
        if self._native:
            _native.bound(self, "_scatter_bound", partial(self._bind, "col2im_nhwc"), gin, gcols)()
            return
        spec = self.spec
        k, s, p = spec.kernel, spec.stride, spec.padding
        g = gcols.reshape(spec.batch, spec.out_height, spec.out_width, k, k, spec.in_channels)
        for i in range(k - 1, -1, -1):
            y0, ny = _tap_rows(i, s, p, spec.height, spec.out_height)
            for j in range(k - 1, -1, -1):
                x0, nx = _tap_rows(j, s, p, spec.width, spec.out_width)
                r, c = y0 * s + i - p, x0 * s + j - p
                gin[:, r:r + s * ny:s, c:c + s * nx:s] += g[:, y0:y0 + ny, x0:x0 + nx, i, j]

    def forward(self, x, weight, out, epilogue):
        self._gather(x)
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
            self._scatter(gin, self._gcols)

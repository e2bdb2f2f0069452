"""Channels-last depthwise convolution kernels (forward + VJPs).

Depthwise convolutions dominate the runtime's plans (the searched agents
are inverted-residual-heavy), and an im2col gather serves them badly: it
copies ``k*k`` shifted images, and the "GEMM" that follows is ``N*C``
degenerate ``(1, k^2) @ (k^2, L)`` dot products.  Both kernels here work on
NHWC activations, where each tap is a contiguous multiply along the channel
axis::

    out[n, y, x, c] = sum_ij xpad[n, y*s + i, x*s + j, c] * w[c, 0, i, j]

* ``depthwise_native`` — the compiled C loops of
  :mod:`~repro.runtime.kernels._native` (``dw_fwd`` / ``dw_bwd``): implicit
  zero padding with per-tap clipped bounds, so there is no padded copy and
  no scratch, and one pass over ``(n, y, i, j, x)`` produces both VJPs.
  Each routine is bound once per kernel and reused while the plan hands
  back the same buffers.
* ``depthwise_einsum`` — the NumPy formulation: the depthwise fallback
  (never quarantined), and the only depthwise kernel where the C library
  cannot be built (``REPRO_NATIVE=0``, no compiler).  See
  :class:`DepthwiseEinsumKernel`.

The two sum the same products in different orders, so they agree to the
usual float-reassociation tolerance (1e-12 f64 / 1e-6 f32 relative).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _native
from .registry import SCRATCH_MAIN, SCRATCH_PAD, ConvKernel, register_kernel

__all__ = ["DepthwiseNativeKernel", "DepthwiseEinsumKernel"]


def _embed(dst, src, offset, step=1):
    """Write NHWC ``src`` into ``dst`` at ``offset``, every ``step`` rows/cols.

    Every other element of ``dst`` is zeroed: the scratch arenas are shared
    with other steps, so borders (and the zeros a stride dilation inserts)
    must be rewritten on every call.  Returns ``dst``.
    """
    h, w = src.shape[1:3]
    rows = slice(offset, offset + step * (h - 1) + 1, step)
    cols = slice(offset, offset + step * (w - 1) + 1, step)
    if step == 1:
        dst[:, :offset] = 0.0
        dst[:, rows.stop:] = 0.0
        dst[:, rows, :offset] = 0.0
        dst[:, rows, cols.stop:] = 0.0
    else:
        dst.fill(0.0)
    dst[:, rows, cols] = src
    return dst


def _windows(buf, oh, ow, k, s):
    """Zero-copy ``(n, oh, ow, k, k, C)`` tap-window view of an NHWC buffer."""
    st = buf.strides
    return as_strided(
        buf,
        (buf.shape[0], oh, ow, k, k, buf.shape[3]),
        (st[0], st[1] * s, st[2] * s, st[1], st[2], st[3]),
    )


class _DepthwiseKernel(ConvKernel):
    """Shared binding: the tap-major ``(k*k, C)`` weight rows."""

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        #: Tap-major weight rows, refreshed from the live weight array every
        #: call (tiny next to any feature map).
        self._wt = plan.alloc((spec.kernel * spec.kernel, spec.in_channels))

    def _load_taps(self, weight):
        self._wt[...] = weight.reshape(self.spec.in_channels, -1).T
        return self._wt


@register_kernel
class DepthwiseNativeKernel(_DepthwiseKernel):
    """ctypes front-end of the compiled float depthwise forward and VJPs."""

    name = "depthwise_native"

    @classmethod
    def supports(cls, spec):
        return (
            spec.depthwise
            and spec.dtype in ("float32", "float64")
            and _native.available()
        )

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        #: The forward's weight rows (``_native.tap_row``): at stride 1 the
        #: taps replicated over a whole output row, else the taps themselves.
        row = _native.tap_row(spec.out_width, spec.in_channels, spec.stride)
        self._wrows = self._wt if row == spec.in_channels else plan.alloc((len(self._wt), row))

    def allocate_backward(self, plan, input_grad_needed):
        #: Weight-VJP staging in the C routine's tap-major order.
        self._gwt = plan.alloc(self._wt.shape)

    def _bind_fwd(self, x, out):
        spec = self.spec
        return _native.dw_fwd_bind(x, self._wrows, out, spec.kernel, spec.stride, spec.padding)

    def _bind_bwd(self, x, gout, gin):
        spec = self.spec
        return _native.dw_bwd_bind(x, self._wt, gout, self._gwt, gin,
                                   spec.kernel, spec.stride, spec.padding)

    def forward(self, x, weight, out, epilogue):
        wt = self._load_taps(weight)
        if self._wrows is not wt:
            self._wrows.reshape(len(wt), -1, wt.shape[1])[...] = wt[:, None]
        _native.bound(self, "_fwd_bound", self._bind_fwd, x, out)()
        epilogue.apply(out)

    def backward(self, gout, x, weight, gw, gin):
        self._load_taps(weight)
        _native.bound(self, "_bwd_bound", self._bind_bwd, x, gout, gin)()
        k = self.spec.kernel
        gw[:, 0] += self._gwt.reshape(k, k, -1).transpose(2, 0, 1)


@register_kernel
class DepthwiseEinsumKernel(_DepthwiseKernel):
    """Strided-view ``einsum`` contractions: the NumPy float fallback.

    The forward is one ``einsum`` over a zero-copy ``(n, oh, ow, k, k, C)``
    window view of the border-padded input.  Reverse mode is two more::

        gw[c, 0, i, j] += sum_nyx view(xpad)[n, y, x, i, j, c] * gout[n, y, x, c]
        gin[n, y, x, c] += sum_ij view(gdil)[n, y, x, i, j, c] * w[c, 0, k-1-i, k-1-j]

    The weight VJP contracts the forward's tap windows with ``gout``.  The
    input VJP is the transposed correlation: ``gdil`` is ``gout`` dilated by
    the stride and padded by ``k-1-p``, read through stride-1 windows
    against the flipped taps.  Every buffer involved (padded input,
    ``gdil``, the ``gin`` staging tile) is a call-transient scratch
    workspace whose border is re-zeroed per call; the kernel keeps no
    activation state between forward and backward.  Serves where
    ``depthwise_native`` cannot: hosts without the C library.
    """

    name = "depthwise_einsum"
    fallback = True

    @classmethod
    def supports(cls, spec):
        # The input VJP pads the dilated gout by ``k-1-p``, which must not
        # be negative (no real network pads by a whole kernel or more).
        return spec.depthwise and spec.padding < spec.kernel

    @classmethod
    def _pad_bytes(cls, spec):
        if spec.padding == 0:
            return 0
        padded = (spec.height + 2 * spec.padding) * (spec.width + 2 * spec.padding)
        return spec.batch * padded * spec.in_channels * spec.itemsize

    @classmethod
    def scratch_requests(cls, spec):
        pad = cls._pad_bytes(spec)
        return ((SCRATCH_PAD, pad),) if pad else ()

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        n, c, item = spec.batch, spec.in_channels, spec.itemsize
        h, w, k = spec.height, spec.width, spec.kernel
        # SCRATCH_PAD holds the padded input during the weight VJP, then
        # the dilated gout during the input VJP.
        pad = cls._pad_bytes(spec)
        requests = []
        if input_grad_needed:
            pad = max(pad, n * (h + k - 1) * (w + k - 1) * c * item)
            requests.append((SCRATCH_MAIN, n * h * w * c * item))
        if pad:
            requests.append((SCRATCH_PAD, pad))
        return tuple(requests)

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        p = spec.padding
        self._xpad = (
            plan.workspace(
                (spec.batch, spec.height + 2 * p, spec.width + 2 * p, spec.in_channels),
                channel=SCRATCH_PAD,
            )
            if p > 0
            else None
        )

    def _padded(self, x):
        p = self.spec.padding
        return _embed(self._xpad, x, p) if p > 0 else x

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        k, c = spec.kernel, spec.in_channels
        xv = _windows(self._padded(x), spec.out_height, spec.out_width, k, spec.stride)
        np.einsum("nhwijc,ijc->nhwc", xv, self._load_taps(weight).reshape(k, k, c), out=out)
        epilogue.apply(out)

    def allocate_backward(self, plan, input_grad_needed):
        spec = self.spec
        n, c, k = spec.batch, spec.in_channels, spec.kernel
        h, w = spec.height, spec.width
        #: Weight-VJP staging in the contraction's natural ``(k, k, C)`` order.
        self._gwt = plan.alloc((k, k, c))
        if input_grad_needed:
            self._gdil = plan.workspace((n, h + k - 1, w + k - 1, c), channel=SCRATCH_PAD)
            self._ginh = plan.workspace((n, h, w, c), channel=SCRATCH_MAIN)

    def backward(self, gout, x, weight, gw, gin):
        spec = self.spec
        c, p, k, s = spec.in_channels, spec.padding, spec.kernel, spec.stride
        wt = self._load_taps(weight)
        xv = _windows(self._padded(x), spec.out_height, spec.out_width, k, s)
        np.einsum("nhwijc,nhwc->ijc", xv, gout, out=self._gwt)
        gw[:, 0] += self._gwt.transpose(2, 0, 1)
        if gin is None:
            return
        # The staging tile keeps the ``+=`` contract.
        gv = _windows(_embed(self._gdil, gout, k - 1 - p, s), spec.height, spec.width, k, 1)
        np.einsum("nhwijc,ijc->nhwc", gv, wt[::-1].reshape(k, k, c), out=self._ginh)
        gin += self._ginh

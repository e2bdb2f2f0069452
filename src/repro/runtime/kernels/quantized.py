"""Int8 quantized inference kernels with a fused requant tail.

These kernels serve conv signatures whose ``ConvSpec.quant`` field is
``"q8"``: activations and weights arrive as int8, the convolution
accumulates exactly in a wider type, and a per-channel *requantization*
epilogue (scale, bias, optional residual, clip, round-half-even, narrow)
writes the next layer's int8 activations — the software analogue of the
paper's fixed-point accelerator arithmetic.

Numerics contract (shared with :mod:`._native`): every q8 kernel produces
**bitwise identical** output.  The integer accumulation is exact
everywhere — products are at most ``127*127`` and the deepest sum stays far
below ``2**24``, so float32 arithmetic (einsum, BLAS sgemm, the C kernel's
int32 loop) computes the same exact integers in any association.  The
requant tail then performs one multiply round, one add round per term, and
a round-half-even narrow, in the same order on every path.  This is what
lets the kernel rule use the C kernel where it builds and the NumPy one
elsewhere without perturbing trajectories, and what the parity suite pins
against an i64 reference.

Candidates, in the rule's preference order:

* ``depthwise_native_q8`` — the compiled C kernel
  (:mod:`repro.runtime.kernels._native`): true int32 accumulation, no
  upcast copies, requant fused into the row loop.  Absent when the host
  cannot build it.
* ``depthwise_einsum_q8`` — single strided-view einsum contraction over an
  upcast padded copy; the always-available depthwise fallback.
* ``pointwise_q8`` — 1x1 conv as a row-blocked flat BLAS GEMM on upcast
  activations (the GEMM's integer partial sums are exact, see above).

All quantized kernels are NHWC, inference-only; float kernels never see
these signatures (dispatch filters on the kernel's ``quant`` attribute).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _native
from .registry import (
    BLOCK_TARGET_BYTES,
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    register_kernel,
)

__all__ = [
    "RequantEpilogue",
    "DepthwiseNativeQ8Kernel",
    "DepthwiseEinsumQ8Kernel",
    "PointwiseQ8Kernel",
]


class RequantEpilogue:
    """Per-channel requantization tail of a quantized conv step.

    Plays the role :class:`~repro.runtime.plan._ConvEpilogue` plays for
    float convs, with a narrower contract: ``requant`` maps a block of
    exact-integer float accumulators to the output's integer dtype via

        ``out = cast(rint(clip(acc * scale + bias [+ res * res_scale])))``

    with one rounding per multiply/add (the C kernels replicate exactly
    this sequence; the build pins ``-ffp-contract=off`` so no FMA fuses a
    round away).  ``lo``/``hi`` encode the fused activation: a ReLU conv
    clips to ``[0, qmax]``, which *is* the ReLU in the quantized domain.

    The owning step refreshes ``scale``/``bias`` in place when the live
    weights change and bumps ``version`` so kernels re-derive their private
    weight forms (tap-major int copies, upcast GEMM matrices).
    """

    __slots__ = ("scale", "bias", "lo", "hi", "res", "res_scale", "version")

    def __init__(self, channels, acc_dtype, qmax, relu=False):
        acc_dtype = np.dtype(acc_dtype)
        self.scale = np.zeros(int(channels), dtype=acc_dtype)
        self.bias = np.zeros(int(channels), dtype=acc_dtype)
        self.lo = 0.0 if relu else -float(qmax)
        self.hi = float(qmax)
        #: Full-batch integer buffer of the residual slot (set per run by the
        #: step); kernels slice it to their current block.
        self.res = None
        #: ``s_res / s_out`` — rescales residual integers into output units.
        self.res_scale = 0.0
        self.version = 0

    def requant(self, acc, out, res=None):
        """Requantize ``acc`` (in place) and narrow into ``out``.

        When the compiled helpers are available and every operand is
        C-contiguous, the whole tail runs as one fused native pass instead
        of five NumPy passes — bitwise identical by the module contract.
        """
        if (
            _native.available()
            and acc.flags.c_contiguous
            and out.flags.c_contiguous
            and (res is None or res.flags.c_contiguous)
        ):
            _native.requant_q8(
                acc, self.scale, self.bias, res, float(self.res_scale),
                out, float(self.lo), float(self.hi),
            )
            return
        np.multiply(acc, self.scale, out=acc)
        acc += self.bias
        if res is not None:
            acc += res * self.scale.dtype.type(self.res_scale)
        np.clip(acc, self.lo, self.hi, out=acc)
        np.rint(acc, out=acc)
        np.copyto(out, acc, casting="unsafe")


class _QuantKernel(ConvKernel):
    """Shared geometry/eligibility for the quantized NHWC kernels."""

    @classmethod
    def supports(cls, spec):
        return not spec.train and cls._shape_ok(spec)

    @classmethod
    def _shape_ok(cls, spec):
        raise NotImplementedError

    def _res_block(self, epilogue, lanes):
        res = epilogue.res
        return res[lanes] if res is not None else None


# --------------------------------------------------------------------------- #
# Depthwise: compiled C kernel
# --------------------------------------------------------------------------- #
@register_kernel
class DepthwiseNativeQ8Kernel(_QuantKernel):
    """ctypes front-end of the C depthwise kernel (int32 accumulate, fused requant)."""

    name = "depthwise_native_q8"
    quant = "q8"

    @classmethod
    def _shape_ok(cls, spec):
        return spec.depthwise and _native.available()

    @classmethod
    def scratch_requests(cls, spec):
        return ((SCRATCH_GEMM, spec.out_width * spec.in_channels * 4),)  # int32 acc

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        c, k = spec.in_channels, spec.kernel
        self._acc = plan.workspace(
            (spec.out_width * c,), dtype=np.int32, channel=SCRATCH_GEMM
        )
        #: Tap-major ``(k*k, C)`` integer weight, re-derived when the step
        #: requantizes (signalled by the epilogue version counter).
        self._wt = plan.alloc((k * k, c), dtype=spec.act_dtype)
        self._wt_version = None

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        assert x.flags["C_CONTIGUOUS"] and out.flags["C_CONTIGUOUS"]
        if self._wt_version != epilogue.version:
            self._wt[...] = weight.reshape(spec.in_channels, -1).T
            self._wt_version = epilogue.version
        _native.dw_conv_q8(
            x, self._wt, epilogue.scale, epilogue.bias,
            epilogue.res, float(epilogue.res_scale), out, self._acc,
            spec.kernel, spec.stride, spec.padding,
            float(epilogue.lo), float(epilogue.hi),
        )


# --------------------------------------------------------------------------- #
# Depthwise: NumPy fallback over an upcast padded copy
# --------------------------------------------------------------------------- #
@register_kernel
class DepthwiseEinsumQ8Kernel(_QuantKernel):
    """Strided-view einsum depthwise conv over an upcast padded copy.

    The int8 input block is widened into a float32 padded workspace (the
    float arithmetic is exact for these magnitudes — module docstring),
    contracted into a float32 accumulator, and the epilogue narrows the
    result back.
    """

    name = "depthwise_einsum_q8"
    quant = "q8"

    @classmethod
    def _shape_ok(cls, spec):
        return spec.depthwise

    @classmethod
    def _block(cls, spec):
        tile = spec.out_height * spec.out_width
        padded = (spec.height + 2 * spec.padding) * (spec.width + 2 * spec.padding)
        lane_bytes = (padded + tile) * spec.in_channels * spec.acc_dtype.itemsize
        return max(1, min(spec.batch, BLOCK_TARGET_BYTES // max(lane_bytes, 1)))

    @classmethod
    def scratch_requests(cls, spec):
        block = cls._block(spec)
        c, item = spec.in_channels, spec.acc_dtype.itemsize
        padded = (
            block * (spec.height + 2 * spec.padding)
            * (spec.width + 2 * spec.padding) * c * item
        )
        tile = block * spec.out_height * spec.out_width * c * item
        return ((SCRATCH_PAD, padded), (SCRATCH_MAIN, tile))

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        c = spec.in_channels
        acc_dtype = spec.acc_dtype
        self._b = self._block(spec)
        self._xph = plan.workspace(
            (
                self._b,
                spec.height + 2 * spec.padding,
                spec.width + 2 * spec.padding,
                c,
            ),
            dtype=acc_dtype,
            channel=SCRATCH_PAD,
        )
        self._acch = plan.workspace(
            (self._b, spec.out_height, spec.out_width, c),
            dtype=acc_dtype,
            channel=SCRATCH_MAIN,
        )
        #: Tap-major ``(k*k, C)`` float weight, upcast from the step's
        #: integer weights when the epilogue version moves.
        self._wt = plan.alloc((spec.kernel * spec.kernel, c), dtype=acc_dtype)
        self._wt_version = None

    def _fill_block(self, x, n0, n1):
        """Upcast (and zero-pad) one batch block into the float workspace."""
        spec = self.spec
        p, h, w = spec.padding, spec.height, spec.width
        xb = self._xph[: n1 - n0]
        if p > 0:
            # The scratch arena is shared with other steps, so the padding
            # border must be re-zeroed per block.
            xb[:, :p] = 0.0
            xb[:, p + h:] = 0.0
            xb[:, p:p + h, :p] = 0.0
            xb[:, p:p + h, p + w:] = 0.0
        np.copyto(xb[:, p:p + h, p:p + w, :], x[n0:n1])
        return xb

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        n, c = spec.batch, spec.in_channels
        k, s = spec.kernel, spec.stride
        oh, ow = spec.out_height, spec.out_width
        if self._wt_version != epilogue.version:
            np.copyto(self._wt, weight.reshape(c, -1).T)
            self._wt_version = epilogue.version
        wv = self._wt.reshape(k, k, c)
        for n0 in range(0, n, self._b):
            n1 = min(n0 + self._b, n)
            b = n1 - n0
            xb = self._fill_block(x, n0, n1)
            st = xb.strides
            xv = as_strided(
                xb,
                (b, oh, ow, k, k, c),
                (st[0], st[1] * s, st[2] * s, st[1], st[2], st[3]),
            )
            acc = self._acch[:b]
            np.einsum("nhwijc,ijc->nhwc", xv, wv, out=acc)
            epilogue.requant(
                acc, out[n0:n1], res=self._res_block(epilogue, slice(n0, n1))
            )


# --------------------------------------------------------------------------- #
# Pointwise: row-blocked upcast GEMM
# --------------------------------------------------------------------------- #
@register_kernel
class PointwiseQ8Kernel(_QuantKernel):
    """1x1 conv as ``upcast(x2) @ W.T`` over ``(N*H*W, C)`` row blocks.

    BLAS partial sums of exact-integer floats are exact at these magnitudes
    (even under FMA and arbitrary blocking), so the GEMM result matches the
    integer reference bitwise while running at sgemm speed.
    """

    name = "pointwise_q8"
    quant = "q8"

    @classmethod
    def _shape_ok(cls, spec):
        return spec.pointwise

    @classmethod
    def _row_block(cls, spec):
        rows = spec.batch * spec.out_height * spec.out_width
        row_bytes = (
            (spec.in_channels + spec.out_channels) * spec.acc_dtype.itemsize
        )
        return max(1, min(rows, BLOCK_TARGET_BYTES // max(row_bytes, 1)))

    @classmethod
    def scratch_requests(cls, spec):
        block = cls._row_block(spec)
        item = spec.acc_dtype.itemsize
        return (
            (SCRATCH_PAD, block * spec.in_channels * item),
            (SCRATCH_MAIN, block * spec.out_channels * item),
        )

    def __init__(self, spec, plan):
        super().__init__(spec, plan)
        acc_dtype = spec.acc_dtype
        self._rb = self._row_block(spec)
        self._xf = plan.workspace(
            (self._rb, spec.in_channels), dtype=acc_dtype, channel=SCRATCH_PAD
        )
        self._acch = plan.workspace(
            (self._rb, spec.out_channels), dtype=acc_dtype, channel=SCRATCH_MAIN
        )
        #: ``(C_in, C_out)`` float weight matrix upcast from the integer
        #: weights (transposed once so the GEMM reads it contiguously).
        self._wmat = plan.alloc(
            (spec.in_channels, spec.out_channels), dtype=acc_dtype
        )
        self._wt_version = None

    def forward(self, x, weight, out, epilogue):
        spec = self.spec
        c, cout = spec.in_channels, spec.out_channels
        if self._wt_version != epilogue.version:
            np.copyto(self._wmat, weight.reshape(cout, c).T)
            self._wt_version = epilogue.version
        x2 = x.reshape(-1, c)
        out2 = out.reshape(-1, cout)
        res2 = epilogue.res.reshape(-1, cout) if epilogue.res is not None else None
        rows = x2.shape[0]
        for r0 in range(0, rows, self._rb):
            r1 = min(r0 + self._rb, rows)
            xf = self._xf[: r1 - r0]
            np.copyto(xf, x2[r0:r1])
            acc = self._acch[: r1 - r0]
            np.matmul(xf, self._wmat, out=acc)
            epilogue.requant(
                acc, out2[r0:r1],
                res=res2[r0:r1] if res2 is not None else None,
            )

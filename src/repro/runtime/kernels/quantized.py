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
  upcast copies, requant fused into the row loop.  At stride 1 each tap is
  one flat SIMD loop over a whole output row against tap weights
  replicated over the row; the requant runs over the row too, against
  replicated scale and bias.  Int32 sums of int8 products are exact in any
  order, and the tail keeps its per-element sequence, so the bytes do not
  depend on the loop shape.  Absent when the host cannot build it.
* ``depthwise_einsum_q8`` — single strided-view einsum contraction over an
  upcast padded copy; the always-available depthwise fallback.
* ``pointwise_q8`` — 1x1 conv as a row-blocked flat BLAS GEMM on upcast
  activations (the GEMM's integer partial sums are exact, see above), then
  the C ``requant_q8`` tail in flat runs of :data:`REQUANT_SPAN` elements
  against replicated scale and bias (the NumPy tail without the library).

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
    weight forms (tap-major int rows, upcast GEMM matrices) and replicated
    scale/bias rows.
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
        """Requantize ``acc`` (in place) and narrow into ``out``: the NumPy
        tail, and the reference the C tail matches bit for bit."""
        np.multiply(acc, self.scale, out=acc)
        acc += self.bias
        if res is not None:
            acc += res * self.scale.dtype.type(self.res_scale)
        np.clip(acc, self.lo, self.hi, out=acc)
        np.rint(acc, out=acc)
        np.copyto(out, acc, casting="unsafe")


#: Elements the standalone requant's replicated scale and bias rows span (in
#: whole channel rows): long enough for full SIMD vectors, short enough to
#: stay in L1.
REQUANT_SPAN = 1024


class _QuantKernel(ConvKernel):
    """Shared geometry/eligibility and requant tail for the quantized NHWC kernels.

    Each kernel keeps a private weight form (``_load``) and, where the C
    library builds, float32 scale and bias rows replicated over ``rows``
    output rows (plan-owned, so the hot loop allocates nothing); both are
    re-derived when the epilogue version moves.
    """

    @classmethod
    def supports(cls, spec):
        return not spec.train and cls._shape_ok(spec)

    @classmethod
    def _shape_ok(cls, spec):
        raise NotImplementedError

    def _replicate(self, plan, rows):
        shape = (rows * self.spec.out_channels,)
        native = _native.available()
        self._rows = (plan.alloc(shape, np.float32), plan.alloc(shape, np.float32)) if native else ()
        self._version = None

    def _refresh(self, weight, epilogue):
        if self._version != epilogue.version:
            self._load(weight)
            for rows, row in zip(self._rows, (epilogue.scale, epilogue.bias)):
                rows.reshape(-1, row.size)[...] = row
            self._version = epilogue.version

    def _requant(self, acc, out, epilogue, e0, m):
        """Narrow the first ``m`` accumulators of the workspace ``acc`` into
        ``out``'s flat elements ``[e0, e0 + m)``: the bound C tail, else NumPy's."""
        if self._rows:
            run = _native.bound(self, "_requant_bound", _native.requant_q8_bind,
                                acc, *self._rows, epilogue.res, out)
            run(e0, m, epilogue.res_scale, epilogue.lo, epilogue.hi)
            return
        c, res = self.spec.out_channels, epilogue.res
        rows = slice(e0 // c, (e0 + m) // c)
        epilogue.requant(acc.reshape(-1, c)[: m // c], out.reshape(-1, c)[rows],
                         res=None if res is None else res.reshape(-1, c)[rows])


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
        c, k, ow = spec.in_channels, spec.kernel, spec.out_width
        self._acc = plan.workspace((ow * c,), dtype=np.int32, channel=SCRATCH_GEMM)
        #: Tap-major int weight rows, ``_native.tap_row`` long per tap.
        self._wt = plan.alloc((k * k, _native.tap_row(ow, c, spec.stride)), dtype=spec.act_dtype)
        self._replicate(plan, ow)

    def _load(self, weight):
        c = self.spec.in_channels
        self._wt.reshape(len(self._wt), -1, c)[...] = weight.reshape(c, -1).T[:, None]

    def _bind(self, x, out, res):
        spec = self.spec
        return _native.dw_conv_q8_bind(
            x, self._wt, out, *self._rows, res, self._acc,
            spec.kernel, spec.stride, spec.padding,
        )

    def forward(self, x, weight, out, epilogue):
        self._refresh(weight, epilogue)
        run = _native.bound(self, "_bound", self._bind, x, out, epilogue.res)
        run(epilogue.res_scale, epilogue.lo, epilogue.hi)


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
        self._replicate(plan, max(1, REQUANT_SPAN // c))

    def _load(self, weight):
        np.copyto(self._wt, weight.reshape(self.spec.in_channels, -1).T)

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
        self._refresh(weight, epilogue)
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
            np.einsum("nhwijc,ijc->nhwc", xv, wv, out=self._acch[:b])
            self._requant(self._acch, out, epilogue, n0 * oh * ow * c, b * oh * ow * c)


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
        self._replicate(plan, max(1, REQUANT_SPAN // spec.out_channels))

    def _load(self, weight):
        spec = self.spec
        np.copyto(self._wmat, weight.reshape(spec.out_channels, spec.in_channels).T)

    def forward(self, x, weight, out, epilogue):
        cout = self.spec.out_channels
        self._refresh(weight, epilogue)
        x2 = x.reshape(-1, self.spec.in_channels)
        rows = x2.shape[0]
        for r0 in range(0, rows, self._rb):
            r1 = min(r0 + self._rb, rows)
            xf = self._xf[: r1 - r0]
            np.copyto(xf, x2[r0:r1])
            np.matmul(xf, self._wmat, out=self._acch[: r1 - r0])
            self._requant(self._acch, out, epilogue, r0 * cout, (r1 - r0) * cout)

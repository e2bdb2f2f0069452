"""Tiny compiled helpers for the depthwise, batch-norm and im2col steps (float, int8).

NumPy has no fused multiply-accumulate over a convolution window: an
``einsum`` over 6-D strided tap windows runs at a fraction of what a plain C
loop reaches, and an ``int8`` einsum runs through the generic scalar inner
loop, slower than the f32 path it is meant to replace.  Channels-last batch
norm reduces over ``(N, H, W)`` with an inner loop only ``C`` long, where
each NumPy pass pays its per-row overhead.  These steps therefore ship small
C kernels compiled on demand with the system C compiler (no new dependency:
the toolchain that built CPython is already on the host) and loaded through
:mod:`ctypes`:

* ``dw_fwd_{f32,f64}`` / ``dw_bwd_{f32,f64}`` — float NHWC depthwise
  forward and fused VJPs (weight VJP into a tap-major staging buffer, input
  VJP added straight into ``gin``) for
  :class:`~repro.runtime.kernels.depthwise.DepthwiseNativeKernel`;
* ``bn_train_*`` / ``bn_vjp_*`` (f32, f64) — NHWC batch norm for the plan
  steps' ``_BNMixin``: a whole train-mode forward (per-channel mean and
  two-pass variance, the running-stat EMA, ``inv_std``/scale/shift, then
  ``x*scale + shift (+res)`` with relu fused);
  and the relu VJP, the input-gradient tail of
  :func:`repro.nn.vjp.batchnorm2d_vjp` and ``dgamma``/``dbeta`` added into
  the plan's gradient accumulators;
* ``im2col_nhwc_*`` / ``col2im_nhwc_*`` (f32, f64) — the tap-major column
  gather of an unpadded NHWC input and its adjoint scatter, for
  :class:`~repro.runtime.kernels.conv.Im2colNHWCKernel`;
* ``dw_conv_q8`` — int8 depthwise conv, ``int32`` accumulate, fused
  per-channel requantization tail;
* ``requant_q8`` — the same tail as one pass over a float32 accumulator,
  used by the float-accumulate q8 kernels (``pointwise_q8``).

Loop shape.  The agents' convs have ``C`` = 8 to 160 channels, fewer than
one 64-byte vector holds of int8 (and often of float32), so a loop over one
pixel's channels runs mostly as its scalar remainder.  The stride-1
depthwise forwards (``dw_fwd``, ``dw_conv_q8``) therefore flatten each
output row: tap ``(i, j)`` reads one contiguous input run and adds into one
contiguous output run, ``(xo_hi - xo_lo) * C`` long, against that tap's
weights replicated over the ``ow`` output columns (:func:`tap_row`), in one
SIMD loop.  The requant tail likewise runs over whole rows against scale
and bias replicated over the row (``dw_conv_q8``) or over a span of channel
rows (``requant_q8``).  The replicated rows are caller-owned plan buffers,
refreshed with the weights.  Strided forwards keep the per-pixel channel
loop, and ``dw_bwd`` the plain ``(k*k, C)`` taps.

Exactness contract.  The float depthwise routines sum the same products as
the NumPy ``depthwise_einsum`` kernel in another order, so the two agree
only to float-reassociation tolerance (1e-12 f64 / 1e-6 f32 relative): the
kernel rule picks the C kernel wherever the library builds, so runs that
must give the same bytes on hosts with and without a compiler pin
depthwise to ``depthwise_einsum`` (``REPRO_KERNELS=heuristic``).  The
batch-norm, ``im2col_nhwc`` / ``col2im_nhwc`` and q8 routines must be
*bitwise identical* to the NumPy code they replace (the gather only
copies; ``col2im_nhwc`` adds into each element in the order of its NumPy
twin, one rounding per add).  Batch
norm sums in the slot's dtype, row by row from zero: NumPy's order for a
reduction over outer axes that keeps at least two channels (with one, NumPy
sums pairwise, so the plan steps route ``C == 1`` to NumPy); the running-stat
EMA runs in double (``r *= 1 - m; r += m * stat``) and ``inv_std``, scale and
shift in the slot's dtype, NumPy's rounding sequence for both.  The q8
fallbacks upcast to float32, where every product and partial sum stays below
2**24, so both sides compute the same integer accumulation exactly, and the
requant tail uses the same rounding sequence: one multiply round, one add
round per term, round-half-even to integer.  Both rely on the build pinning
``-ffp-contract=off`` (no FMA contraction) and on ``rintf`` matching
``np.rint`` under the default rounding mode.  Flattening the loops keeps
every byte: int8 products are at most ``127**2`` and their sums exact in
int32 in any order, the requant keeps its per-element operation sequence,
and the float forward still adds each output's taps in ``(i, j)`` order
from +0 with one rounding per operation (only which loop runs outermost
changed).

Binding rule.  :func:`bind` validates every operand once and captures the
addresses; a caller reuses them only while it holds the very same array
objects, and binds again (re-validating all) when any operand is replaced
(:func:`bound` keeps that cache for the float and q8 depthwise kernels, the
q8 requant tail, the batch-norm steps and the ``im2col_nhwc`` kernel's
gather and scatter).

The shared object is cached inside the package (``_ccache/``, keyed by a
hash of the source and flags, ignored by git).  Builds are atomic
(tempfile + rename) so concurrent processes race benignly.  Any failure —
no compiler, sandboxed filesystem, exotic cc — degrades silently:
``available()`` returns ``False`` and the NumPy fallbacks
(``depthwise_einsum``, the NumPy batch-norm code, ``im2col_nhwc``'s NumPy
gather and scatter, ``depthwise_einsum_q8`` and the NumPy requant tail)
serve the plan.
``REPRO_NATIVE=0`` disables the path outright.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = [
    "available", "bind", "bound", "tap_row", "dw_fwd_bind", "dw_bwd_bind", "dw_conv_q8_bind",
    "requant_q8_bind", "bn_train_bind", "bn_vjp_bind", "nhwc_cols_bind",
]

ENV_VAR = "REPRO_NATIVE"

_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <string.h>

/* Output columns [*lo, *hi) whose tap column j reads inside the unpadded
 * row: clipping the loop bounds keeps the channel loops branch-free. */
static inline void tap_cols(int j, int s, int p, int wd, int ow, int *lo, int *hi)
{
    int last = wd - 1 - j + p;
    *lo = j < p ? (p - j + s - 1) / s : 0;
    *hi = last < 0 ? 0 : (last / s + 1 < ow ? last / s + 1 : ow);
}
"""

#: The q8 requant tail over a flat run of ``m`` accumulators, against scale
#: and bias rows replicated over the run (so one SIMD loop covers it however
#: short C is): one multiply round, one add round per term, clip,
#: round-half-even, narrow.  Instantiated for the int32 and float32
#: accumulators by substituting ``ACC``.
_REQUANT = r"""
static inline void requant_ACC(const ACC *restrict a, const float *restrict sc,
                               const float *restrict bi, const int8_t *restrict r,
                               float rs, int8_t *restrict o, long m, float lo, float hi)
{
    if (r) {
        #pragma omp simd
        for (long e = 0; e < m; ++e) {
            float v = (float)a[e] * sc[e] + bi[e] + (float)r[e] * rs;
            o[e] = (int8_t)rintf(v < lo ? lo : (v > hi ? hi : v));
        }
    } else {
        #pragma omp simd
        for (long e = 0; e < m; ++e) {
            float v = (float)a[e] * sc[e] + bi[e];
            o[e] = (int8_t)rintf(v < lo ? lo : (v > hi ? hi : v));
        }
    }
}
"""

_Q8 = r"""
/* Depthwise NHWC convolution with implicit zero padding, int32 accumulate
 * into the ow*c scratch row `acc`, then the requant tail over the row.  `w`
 * holds a (k*k, wl) tap-major row per tap: replicated over the ow output
 * columns (wl = ow*c) at stride 1, where a tap adds one contiguous input run
 * into one contiguous accumulator run, and plain (wl = c) otherwise;
 * `scale`/`bias` are replicated over ow*c. */
void dw_conv_q8(const int8_t *restrict x, const int8_t *restrict w, int8_t *restrict out,
                const float *restrict scale, const float *restrict bias,
                const int8_t *restrict res, int32_t *restrict acc,
                int n, int h, int wd, int c, int k, int s, int p, int oh, int ow,
                float res_scale, float lo, float hi)
{
    const long in_row = (long)wd * c, out_row = (long)ow * c, wl = s == 1 ? out_row : c;
    for (long r = 0; r < (long)n * oh; ++r) {
        const int y = r % oh, b = r / oh;
        memset(acc, 0, (size_t)out_row * sizeof(int32_t));
        for (int i = 0; i < k; ++i) {
            int yi = y * s + i - p;
            if (yi < 0 || yi >= h) continue;
            const int8_t *xrow = x + ((long)b * h + yi) * in_row;
            for (int j = 0; j < k; ++j) {
                int xo_lo, xo_hi;
                tap_cols(j, s, p, wd, ow, &xo_lo, &xo_hi);
                const int8_t *wp = w + ((long)i * k + j) * wl;
                if (s == 1) {
                    const long a = (long)xo_lo * c, z = (long)xo_hi * c, d = (long)(j - p) * c;
                    #pragma omp simd
                    for (long e = a; e < z; ++e)
                        acc[e] += (int32_t)xrow[e + d] * (int32_t)wp[e];
                    continue;
                }
                for (int xo = xo_lo; xo < xo_hi; ++xo) {
                    const int8_t *xp = xrow + (long)(xo * s + j - p) * c;
                    int32_t *ap = acc + (long)xo * c;
                    #pragma omp simd
                    for (int ch = 0; ch < c; ++ch)
                        ap[ch] += (int32_t)xp[ch] * (int32_t)wp[ch];
                }
            }
        }
        requant_int32_t(acc, scale, bias, res ? res + r * out_row : 0, res_scale,
                        out + r * out_row, out_row, lo, hi);
    }
}

/* The requant tail alone, for the float-accumulate kernels: the m exact
 * integers of `acc` land in out[e0, e0 + m) (residual res[e0, e0 + m)), in
 * runs of `span` against `scale`/`bias` replicated over span elements. */
void requant_q8(const float *restrict acc, const float *restrict scale,
                const float *restrict bias, const int8_t *restrict res,
                int8_t *restrict out, long span, long e0, long m,
                float res_scale, float lo, float hi)
{
    for (long a = 0; a < m; a += span)
        requant_float(acc + a, scale, bias, res ? res + e0 + a : 0, res_scale,
                      out + e0 + a, m - a < span ? m - a : span, lo, hi);
}
"""

#: Float NHWC depthwise forward and fused VJPs, instantiated for ``float``
#: and ``double`` by substituting ``REAL`` and ``SFX`` below.  The loop nest
#: is ``dw_conv_q8``'s: implicit zero padding, per-tap clipped column range,
#: contiguous channel loop (or, in the stride-1 forward, the whole
#: row-flattened run) innermost.
_DW_FLOAT = r"""
/* Depthwise forward: `out` (NHWC) is overwritten.  `w` is laid out as in
 * dw_conv_q8: replicated over ow at stride 1 (wl = ow*c), plain otherwise. */
void dw_fwd_SFX(const REAL *restrict x, const REAL *restrict w,
                REAL *restrict out, int n, int h, int wd, int c,
                int k, int s, int p, int oh, int ow)
{
    const long in_row = (long)wd * c, out_row = (long)ow * c, wl = s == 1 ? out_row : c;
    memset(out, 0, (size_t)n * oh * out_row * sizeof(REAL));
    for (int b = 0; b < n; ++b) {
        for (int y = 0; y < oh; ++y) {
            REAL *orow = out + ((long)b * oh + y) * out_row;
            for (int i = 0; i < k; ++i) {
                int yi = y * s + i - p;
                if (yi < 0 || yi >= h) continue;
                const REAL *xrow = x + ((long)b * h + yi) * in_row;
                for (int j = 0; j < k; ++j) {
                    int xo_lo, xo_hi;
                    tap_cols(j, s, p, wd, ow, &xo_lo, &xo_hi);
                    const REAL *wp = w + ((long)i * k + j) * wl;
                    if (s == 1) {
                        const long a = (long)xo_lo * c, z = (long)xo_hi * c, d = (long)(j - p) * c;
                        #pragma omp simd
                        for (long e = a; e < z; ++e)
                            orow[e] += xrow[e + d] * wp[e];
                        continue;
                    }
                    for (int xo = xo_lo; xo < xo_hi; ++xo) {
                        const REAL *xp = xrow + (long)(xo * s + j - p) * c;
                        REAL *op = orow + (long)xo * c;
                        #pragma omp simd
                        for (int ch = 0; ch < c; ++ch)
                            op[ch] += xp[ch] * wp[ch];
                    }
                }
            }
        }
    }
}

/* Both depthwise VJPs in one pass over (n, y, i, j, x): the weight VJP
 * overwrites the tap-major (k*k, C) staging buffer `gw`; the input VJP is
 * added into `gin` (NHWC) unless it is NULL. */
void dw_bwd_SFX(const REAL *restrict x, const REAL *restrict w,
                const REAL *restrict gout, REAL *restrict gw,
                REAL *restrict gin, int n, int h, int wd, int c,
                int k, int s, int p, int oh, int ow)
{
    const long in_row = (long)wd * c, out_row = (long)ow * c;
    memset(gw, 0, (size_t)k * k * c * sizeof(REAL));
    for (int b = 0; b < n; ++b) {
        for (int y = 0; y < oh; ++y) {
            const REAL *grow = gout + ((long)b * oh + y) * out_row;
            for (int i = 0; i < k; ++i) {
                int yi = y * s + i - p;
                if (yi < 0 || yi >= h) continue;
                const long row = ((long)b * h + yi) * in_row;
                for (int j = 0; j < k; ++j) {
                    int xo_lo, xo_hi;
                    tap_cols(j, s, p, wd, ow, &xo_lo, &xo_hi);
                    const REAL *wp = w + ((long)i * k + j) * c;
                    REAL *gwp = gw + ((long)i * k + j) * c;
                    for (int xo = xo_lo; xo < xo_hi; ++xo) {
                        const long at = row + (long)(xo * s + j - p) * c;
                        const REAL *gp = grow + (long)xo * c;
                        const REAL *xp = x + at;
                        #pragma omp simd
                        for (int ch = 0; ch < c; ++ch)
                            gwp[ch] += gp[ch] * xp[ch];
                        if (gin) {
                            REAL *gip = gin + at;
                            #pragma omp simd
                            for (int ch = 0; ch < c; ++ch)
                                gip[ch] += gp[ch] * wp[ch];
                        }
                    }
                }
            }
        }
    }
}
"""

#: Channels-last batch norm over a C-contiguous ``(rows, c)`` view, for
#: ``float`` and ``double`` like ``_DW_FLOAT``.  Every sum runs in ``REAL``,
#: row by row from zero, which is NumPy's order for a reduction over outer
#: axes keeping ``c >= 2`` (``mean``, ``sum``, ``einsum("nhwc,nhwc->c")``);
#: with one rounding per operation the results equal the NumPy path's bits.
_BN_FLOAT = r"""
/* out = x*scale + shift (+ res), then relu (np.maximum(v, 0): NaN stays,
 * -0 becomes +0) when `relu`.  `out` may be `x`. */
static void bn_apply_SFX(const REAL *x, const REAL *restrict res, REAL *out,
                  const REAL *restrict scale, const REAL *restrict shift,
                  long rows, int c, int relu)
{
    for (long i = 0; i < rows * c; i += c) {
        #pragma omp simd
        for (int ch = 0; ch < c; ++ch) {
            REAL v = x[i + ch] * scale[ch];
            v = v + shift[ch];
            if (res)
                v = v + res[i + ch];
            out[i + ch] = relu && v <= 0 ? 0 : v;
        }
    }
}

/* Train-mode batch norm in the NumPy path's order: mean and two-pass
 * variance, the running-stat EMA in double, inv_std, scale and shift in
 * REAL, then bn_apply (`out` may be `x`). */
void bn_train_SFX(const REAL *x, const REAL *restrict res, REAL *out,
                  const REAL *restrict gamma, const REAL *restrict beta,
                  double *restrict run_mean, double *restrict run_var,
                  REAL *restrict mean, REAL *restrict inv_std,
                  long rows, int c, double momentum, double eps, int relu)
{
    REAL var[c], scale[c], shift[c];
    memset(mean, 0, (size_t)c * sizeof(REAL));
    memset(var, 0, (size_t)c * sizeof(REAL));
    for (long i = 0; i < rows * c; i += c) {
        #pragma omp simd
        for (int ch = 0; ch < c; ++ch)
            mean[ch] += x[i + ch];
    }
    for (int ch = 0; ch < c; ++ch)
        mean[ch] /= (REAL)rows;
    for (long i = 0; i < rows * c; i += c) {
        #pragma omp simd
        for (int ch = 0; ch < c; ++ch) {
            REAL d = x[i + ch] - mean[ch];
            var[ch] += d * d;
        }
    }
    for (int ch = 0; ch < c; ++ch)
        var[ch] /= (REAL)rows;
    for (int ch = 0; ch < c; ++ch) {
        run_mean[ch] = run_mean[ch] * (1.0 - momentum);
        run_mean[ch] = run_mean[ch] + momentum * (double)mean[ch];
        run_var[ch] = run_var[ch] * (1.0 - momentum);
        run_var[ch] = run_var[ch] + momentum * (double)var[ch];
    }
    for (int ch = 0; ch < c; ++ch) {
        inv_std[ch] = (REAL)1 / SQRT(var[ch] + (REAL)eps);
        scale[ch] = gamma[ch] * inv_std[ch];
        shift[ch] = beta[ch] - mean[ch] * scale[ch];
    }
    bn_apply_SFX(x, res, out, scale, shift, rows, c, relu);
}

/* The VJP of bn_apply without residual (nn/vjp.batchnorm2d_vjp): when
 * `relu`, `g` is first masked in place by `y > 0`; `dgamma`/`dbeta` are added
 * into `pg_gamma`/`pg_beta` and the input gradient into `gin`. */
void bn_vjp_SFX(REAL *restrict g, const REAL *restrict y,
                const REAL *restrict x, REAL *restrict gin,
                const REAL *restrict mean, const REAL *restrict inv_std,
                const REAL *restrict gamma, REAL *restrict pg_gamma,
                REAL *restrict pg_beta, long rows, int c, int training, int relu)
{
    REAL dgamma[c], dbeta[c], k1[c], k2[c], scale[c];
    memset(dgamma, 0, (size_t)c * sizeof(REAL));
    memset(dbeta, 0, (size_t)c * sizeof(REAL));
    for (long i = 0; i < rows * c; i += c) {
        #pragma omp simd
        for (int ch = 0; ch < c; ++ch) {
            if (relu)
                g[i + ch] = g[i + ch] * (REAL)(y[i + ch] > 0);
            REAL xhat = (x[i + ch] - mean[ch]) * inv_std[ch];
            dgamma[ch] += g[i + ch] * xhat;
            dbeta[ch] += g[i + ch];
        }
    }
    for (int ch = 0; ch < c; ++ch) {
        scale[ch] = gamma[ch] * inv_std[ch];
        k1[ch] = dgamma[ch] / (REAL)rows;
        k2[ch] = dbeta[ch] / (REAL)rows;
        pg_gamma[ch] = pg_gamma[ch] + dgamma[ch];
        pg_beta[ch] = pg_beta[ch] + dbeta[ch];
    }
    for (long i = 0; i < rows * c; i += c) {
        #pragma omp simd
        for (int ch = 0; ch < c; ++ch) {
            REAL v = g[i + ch];
            if (training) {
                REAL t = (x[i + ch] - mean[ch]) * inv_std[ch] * k1[ch];
                v = (v - t) - k2[ch];
            }
            gin[i + ch] = gin[i + ch] + v * scale[ch];
        }
    }
}
"""

#: ``im2col_nhwc``'s gather and scatter, for ``float`` and ``double``.
_IM2COL_NHWC = r"""
/* Tap-major columns of the unpadded NHWC `x`: row (b, y, xo) of `cols`
 * holds, kernel row i after kernel row i, the k*C input values
 * x[b, y*s+i-p, xo*s-p+j, :] over j, one contiguous run in both arrays;
 * the run is clipped to [lo, hi) inside the image and taps in the padding
 * are zeros.  Needs p < k. */
void im2col_nhwc_SFX(const REAL *restrict x, REAL *restrict cols,
                     int n, int h, int wd, int c, int k, int s, int p, int oh, int ow)
{
    const long kc = (long)k * c;
    for (long r = 0; r < (long)n * oh; ++r) {
        const int y = r % oh, b = r / oh;
        for (int xo = 0; xo < ow; ++xo) {
            const int x0 = xo * s - p;
            const long lo = (x0 < 0 ? -x0 : 0) * (long)c, hi = (x0 + k > wd ? wd - x0 : k) * (long)c;
            for (int i = 0; i < k; ++i, cols += kc) {
                const int yi = y * s + i - p;
                const int in = yi >= 0 && yi < h;
                const REAL *xr = in ? x + (((long)b * h + yi) * wd + x0) * c + lo : x;
                const long a = in ? lo : kc, z = in ? hi : kc;
                for (long e = 0; e < a; ++e)
                    cols[e] = 0;
                #pragma omp simd
                for (long e = a; e < z; ++e)
                    cols[e] = xr[e - a];
                for (long e = z; e < kc; ++e)
                    cols[e] = 0;
            }
        }
    }
}

/* Adjoint of im2col_nhwc: each in-image run of `g`'s column rows is added
 * into `gin` (NHWC), in (b, y, xo, i, j, C) order. */
void col2im_nhwc_SFX(REAL *restrict gin, const REAL *restrict g,
                     int n, int h, int wd, int c, int k, int s, int p, int oh, int ow)
{
    const long kc = (long)k * c;
    for (long r = 0; r < (long)n * oh; ++r) {
        const int y = r % oh, b = r / oh;
        for (int xo = 0; xo < ow; ++xo) {
            const int x0 = xo * s - p;
            const long lo = (x0 < 0 ? -x0 : 0) * (long)c, hi = (x0 + k > wd ? wd - x0 : k) * (long)c;
            for (int i = 0; i < k; ++i, g += kc) {
                const int yi = y * s + i - p;
                if (yi < 0 || yi >= h)
                    continue;
                REAL *gr = gin + (((long)b * h + yi) * wd + x0) * c + lo;
                #pragma omp simd
                for (long e = 0; e < hi - lo; ++e)
                    gr[e] += g[lo + e];
            }
        }
    }
}
"""

_SOURCE += "".join(_REQUANT.replace("ACC", ctype) for ctype in ("int32_t", "float")) + _Q8
_SOURCE += "".join(
    (_DW_FLOAT + _BN_FLOAT + _IM2COL_NHWC).replace("REAL", ctype).replace("SFX", suffix).replace("SQRT", sqrt)
    for ctype, suffix, sqrt in (("float", "f32", "sqrtf"), ("double", "f64", "sqrt"))
)

#: ``-ffp-contract=off`` is load-bearing: a fused multiply-add in the requant
#: tail or the batch-norm loops would round differently from the NumPy code
#: and break the bitwise C-vs-NumPy contract.
_CFLAGS = (
    "-O3", "-march=native", "-fopenmp-simd", "-fno-math-errno",
    "-ffp-contract=off", "-shared", "-fPIC",
)

_lib = None
_load_attempted = False


def _cache_path():
    tag = hashlib.sha256(
        (_SOURCE + "\x00" + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    return os.path.join(os.path.dirname(__file__), "_ccache", "dwq_{}.so".format(tag))


def _build(so_path):
    cache_dir = os.path.dirname(so_path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    tmp_so = tmp_c[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_SOURCE)
        subprocess.run(
            ["cc", *_CFLAGS, tmp_c, "-o", tmp_so],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_so, so_path)  # atomic: concurrent builders race benignly
    finally:
        for path in (tmp_c, tmp_so):
            try:
                os.unlink(path)
            except OSError:
                pass


def _bind(lib):
    ints = [ctypes.c_int] * 9
    floats = [ctypes.c_float] * 3
    lib.dw_conv_q8.restype = lib.requant_q8.restype = None
    lib.dw_conv_q8.argtypes = [ctypes.c_void_p] * 7 + ints + floats
    lib.requant_q8.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_long] * 3 + floats
    for suffix in ("f32", "f64"):
        fwd, bwd = getattr(lib, "dw_fwd_" + suffix), getattr(lib, "dw_bwd_" + suffix)
        fwd.restype = bwd.restype = None
        fwd.argtypes = [ctypes.c_void_p] * 3 + ints
        bwd.argtypes = [ctypes.c_void_p] * 5 + ints
        for name in ("im2col_nhwc", "col2im_nhwc"):
            fn = getattr(lib, name + "_" + suffix)
            fn.restype = None
            fn.argtypes = [ctypes.c_void_p] * 2 + ints
        # Batch norm: pointers, the row count, C, then the scalar arguments.
        for name, scalars in (("bn_train", [ctypes.c_double] * 2 + [ctypes.c_int]),
                              ("bn_vjp", [ctypes.c_int] * 2)):
            fn = getattr(lib, name + "_" + suffix)
            fn.restype = None
            fn.argtypes = [ctypes.c_void_p] * 9 + [ctypes.c_long, ctypes.c_int] + scalars


def _load():
    """The loaded library, building it on first use (``None`` on any failure)."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get(ENV_VAR, "1").strip() == "0":
        return None
    try:
        so_path = _cache_path()
        if not os.path.exists(so_path):
            _build(so_path)
        lib = ctypes.CDLL(so_path)
        _bind(lib)
        _lib = lib
    except Exception:
        _lib = None
    return _lib


def available():
    """Whether the compiled library (depthwise, batch-norm, im2col, q8) can be used."""
    return _load() is not None


def _routine(name):
    """The named C routine, loading the library first if need be.

    Raises ``RuntimeError`` when the library is disabled (``REPRO_NATIVE=0``)
    or cannot be built; callers that have a NumPy path check
    :func:`available` first.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError(
            "{}: the compiled kernel library is unavailable ({}=0 or no working "
            "C compiler)".format(name, ENV_VAR))
    return getattr(lib, name)


_SUFFIX = {np.dtype(np.float32): "_f32", np.dtype(np.float64): "_f64"}
_F64 = np.dtype(np.float64)
_F32, _I8, _I32 = np.dtype(np.float32), np.dtype(np.int8), np.dtype(np.int32)


def bind(name, operands, *extents):
    """Validate a routine's operands once; returns ``run(*scalars)``.

    The C loops trust every pointer and extent, so a wrong dtype, a strided
    view or a mis-shaped buffer is rejected here (``ValueError``) rather than
    read out of bounds.  ``operands`` are ``(array or None, expected
    shape[, dtype])`` in C argument order; the first one's dtype is the
    others' default and, for a float routine, picks the variant (a ``_q8``
    routine has one).  ``run`` calls the routine with the pointers,
    ``extents`` and ``scalars``.
    """
    dtype = operands[0][0].dtype
    suffix = "" if name.endswith("_q8") else _SUFFIX.get(dtype)
    if suffix is None:
        raise ValueError("{}: no {} variant".format(name, dtype))
    pointers = []
    for arr, shape, *own in operands:
        want = own[0] if own else dtype
        if arr is None:
            pointers.append(None)
            continue
        if arr.dtype != want or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(
                "{}: expected a C-contiguous {} array of shape {}, got {} {}".format(
                    name, want, shape, arr.dtype, arr.shape))
        pointers.append(arr.ctypes.data)
    routine = _routine(name + suffix)
    args = (*pointers, *extents)

    def run(*scalars):
        routine(*args, *scalars)

    return run


def bound(owner, attr, bind, *operands):
    """``bind(*operands)``, cached on ``owner.attr`` while the same arrays come back.

    The cache is keyed on the operands' ids and holds the operands, so no id
    is reused while it stands; a replaced operand binds (and validates) again.
    """
    key = tuple(map(id, operands))
    cached = getattr(owner, attr, None)
    if cached is None or cached[0] != key:
        cached = (key, operands, bind(*operands))
        setattr(owner, attr, cached)
    return cached[2]


def tap_row(ow, c, stride):
    """Length of a depthwise forward's weight row per tap: the ``C`` taps
    replicated over the ``ow`` output columns at stride 1, plain otherwise."""
    return ow * c if stride == 1 else c


def _dw_bind(name, x, w_taps, y, k, stride, padding, *extra):
    """Bind a depthwise routine; ``y`` is the output-shaped operand and
    ``extra`` are further :func:`bind` operands.  The forwards read
    :func:`tap_row`-long weight rows, ``dw_bwd`` plain ``(k*k, C)`` taps."""
    n, h, wd, c = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    row = c if name == "dw_bwd" else tap_row(ow, c, stride)
    operands = [(x, x.shape), (w_taps, (k * k, row)), (y, (n, oh, ow, c)), *extra]
    return bind(name, operands, n, h, wd, c, k, stride, padding, oh, ow)


def dw_fwd_bind(x, w_taps, out, k, stride, padding):
    """Bound float NHWC depthwise forward: ``run()`` overwrites ``out``.

    ``x``/``out`` are C-contiguous NHWC float32 or float64; ``w_taps`` is the
    tap-major ``(k*k, tap_row(ow, C, stride))`` weight of the same dtype.
    """
    return _dw_bind("dw_fwd", x, w_taps, out, k, stride, padding)


def dw_bwd_bind(x, w_taps, gout, gw_taps, gin, k, stride, padding):
    """Bound float depthwise VJPs: ``run()`` overwrites ``gw_taps`` and adds to ``gin``.

    ``x``/``gout`` as in :func:`dw_fwd_bind`; ``w_taps`` is the plain
    ``(k*k, C)`` weight, ``gw_taps`` the same-shaped staging, and ``gin`` (input-shaped, or ``None`` to skip the input VJP) is added to.
    """
    return _dw_bind("dw_bwd", x, w_taps, gout, k, stride, padding,
                    (gw_taps, w_taps.shape), (gin, x.shape))


def nhwc_cols_bind(name, image, cols, k, stride, padding):
    """Bound ``im2col_nhwc`` (``run()`` overwrites the tap-major
    ``(N*oh*ow, k*k*C)`` columns ``cols`` of the NHWC ``image``) or
    ``col2im_nhwc`` (``run()`` adds ``cols`` back into ``image``, taps in the
    padding dropped)."""
    n, h, w, c = image.shape
    oh, ow = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    return bind(name, [(image, image.shape), (cols, (n * oh * ow, k * k * c))],
                n, h, w, c, k, stride, padding, oh, ow)


def dw_conv_q8_bind(x, w_taps, out, scale, bias, res, acc, k, stride, padding):
    """Bound int8 depthwise conv + requant: ``run(res_scale, lo, hi)`` overwrites ``out``.

    ``x``/``out``/``res`` (or ``None``) are NHWC int8 and ``w_taps`` the
    ``(k*k, tap_row(ow, C, stride))`` int8 weight rows; ``scale``/``bias``
    are float32 replicated over a whole output row (``ow*C``) and ``acc`` is
    ``ow*C`` int32 scratch.
    """
    row = (out.shape[2] * x.shape[3],)
    return _dw_bind("dw_conv_q8", x, w_taps, out, k, stride, padding,
                    (scale, row, _F32), (bias, row, _F32), (res, out.shape), (acc, row, _I32))


def requant_q8_bind(acc, scale, bias, res, out):
    """Bound standalone requant tail: ``run(e0, m, res_scale, lo, hi)``.

    Narrows the first ``m`` float32 accumulators of ``acc`` into ``out``'s
    flat elements ``[e0, e0 + m)`` (residual: the same elements of ``res``,
    or ``None``).  ``scale``/``bias`` are float32 rows replicated over a span
    of whole channel rows; ``e0`` must start a channel row, and ``e0 + m``
    must stay inside ``out`` and ``m`` inside ``acc``.
    """
    span = scale.shape
    return bind("requant_q8", [(acc, acc.shape), (scale, span), (bias, span),
                               (res, out.shape, _I8), (out, out.shape, _I8)], span[0])


# Batch norm: activations are channels-last; every vector is ``(C,)``.
def bn_train_bind(x, res, out, gamma, beta, running_mean, running_var, mean, inv_std):
    """Bound ``bn_train``: ``run(momentum, eps, relu)`` normalises ``x`` into
    ``out`` (``out`` may be ``x``), updates the running buffers in place and
    writes ``mean``/``inv_std``."""
    c = x.shape[-1]
    vec, act = (c,), x.shape
    return bind("bn_train", [
        (x, act), (res, act), (out, act), (gamma, vec), (beta, vec),
        (running_mean, vec, _F64), (running_var, vec, _F64), (mean, vec), (inv_std, vec),
    ], x.size // c, c)


def bn_vjp_bind(g, y, x, gin, mean, inv_std, gamma, pg_gamma, pg_beta):
    """Bound ``bn_vjp``: ``run(training, relu)`` adds the input gradient into
    ``gin`` and ``dgamma``/``dbeta`` into ``pg_gamma``/``pg_beta``; ``y`` is
    the relu output that masks ``g`` in place (``None``: no relu)."""
    c = x.shape[-1]
    vec, act = (c,), x.shape
    return bind("bn_vjp", [
        (g, act), (y, act), (x, act), (gin, act), (mean, vec), (inv_std, vec), (gamma, vec),
        (pg_gamma, vec), (pg_beta, vec),
    ], x.size // c, c)

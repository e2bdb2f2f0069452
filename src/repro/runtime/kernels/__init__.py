"""Pluggable compute kernels for the runtime's convolution steps.

This package separates *what* a plan step computes from *how* it is
computed.  :mod:`~repro.runtime.kernels.registry` holds named kernel
implementations keyed by op signature (shape / groups / kernel / stride /
dtype / direction) and a dispatcher that picks one per signature by a
static rule — the first supporting kernel in registration order — with a
``REPRO_KERNELS`` environment override, so every process makes the same
choices.

Registered kernels, in the rule's preference order:

* ``depthwise_native`` — compiled C NHWC depthwise forward and fused
  input/weight VJPs (float32/float64; :mod:`~repro.runtime.kernels._native`);
* ``depthwise_einsum`` — the same NHWC depthwise conv and VJPs as strided
  tap-view einsums: the float fallback where the C library cannot build;
* ``pointwise_nhwc`` — 1x1 convolutions on channels-last activations as one
  flat GEMM over the trailing channel axis (forward + VJPs);
* ``im2col_nhwc`` — dense convs on channels-last activations: a compiled
  tap-major column gather plus one flat GEMM, the input VJP scattered back
  in C (float32/float64, only where the C library builds);
* ``im2col`` — the original whole-batch im2col + batched GEMM, supporting
  every NCHW signature in both directions (the total fallback for that
  layout);
* ``depthwise_native_q8``, ``depthwise_einsum_q8``, ``pointwise_q8`` — the
  int8 inference kernels (:mod:`~repro.runtime.kernels.quantized`): int8
  activations, exact wide accumulation, fused per-channel requant tail.
  They serve only signatures whose ``quant`` field is ``"q8"``, so the
  float paths are untouched.

Signatures carry a physical activation layout (``NCHW`` / ``NHWC``); the
layout-assignment pass in :mod:`repro.runtime.passes` puts a conv
channels-last wherever
:func:`~repro.runtime.kernels.registry.pinned_candidates` offers an NHWC
kernel for it.  Every NHWC float kernel trains, so one plan structure serves
both directions.  Without the C library dense convs have no NHWC kernel and
run on ``im2col``.

The same software structure the paper's accelerator templates use in
hardware — dataflow-specialised conv engines selected per workload shape —
applied to the NumPy runtime.
"""

from . import depthwise as _depthwise  # noqa: F401  (registers the float depthwise kernels)
from . import conv as _conv  # noqa: F401  (registers pointwise_nhwc, im2col_nhwc, im2col)
from . import quantized as _quantized  # noqa: F401  (registers the q8 kernels)
from .autotune import blas_thread_count
from .quantized import RequantEpilogue
from .registry import (
    ENV_VAR,
    LAYOUTS,
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    ConvSpec,
    candidates,
    clear_quarantine,
    kernel_for,
    kernel_names,
    pinned_candidates,
    quarantine_kernel,
    quarantined_kernels,
    register_kernel,
    reset_selections,
    scratch_upper_bound,
    selection_table,
)

__all__ = [
    "ConvSpec",
    "ConvKernel",
    "RequantEpilogue",
    "ENV_VAR",
    "LAYOUTS",
    "register_kernel",
    "kernel_names",
    "candidates",
    "quarantine_kernel",
    "quarantined_kernels",
    "clear_quarantine",
    "kernel_for",
    "pinned_candidates",
    "blas_thread_count",
    "scratch_upper_bound",
    "selection_table",
    "reset_selections",
    "SCRATCH_MAIN",
    "SCRATCH_GEMM",
    "SCRATCH_PAD",
]

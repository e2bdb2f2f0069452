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
  tap-view einsums: the depthwise fallback, and the only depthwise kernel
  where the C library cannot build;
* ``pointwise_nhwc`` — 1x1 convolutions as one flat GEMM over the trailing
  channel axis (forward + VJPs);
* ``im2col_nhwc`` — dense convs: a tap-major column gather plus one flat
  GEMM, the input VJP scattered back; the gather and scatter run in C where
  the library builds and as their byte-equal NumPy twins elsewhere;
* ``depthwise_native_q8``, ``depthwise_einsum_q8``, ``pointwise_q8`` — the
  int8 inference kernels (:mod:`~repro.runtime.kernels.quantized`): int8
  activations, exact wide accumulation, fused per-channel requant tail.
  They serve only signatures whose ``quant`` field is ``"q8"``, so the
  float paths are untouched.

Every conv step the compiler emits runs channels-last (``NHWC``), so every
kernel serves that layout only, and every float kernel trains: one plan
structure serves both directions.  Each float op class ends in a fallback
kernel (``pointwise_nhwc``, ``depthwise_einsum``, ``im2col_nhwc``) that no
smoke failure can quarantine.  Grouped non-depthwise convs have no kernel;
the compiler rejects them and callers stay on the eager tape.

The same software structure the paper's accelerator templates use in
hardware — dataflow-specialised conv engines selected per workload shape —
applied to the NumPy runtime.
"""

from . import depthwise as _depthwise  # noqa: F401  (registers the float depthwise kernels)
from . import conv as _conv  # noqa: F401  (registers pointwise_nhwc, im2col_nhwc)
from . import quantized as _quantized  # noqa: F401  (registers the q8 kernels)
from .autotune import blas_thread_count
from .quantized import RequantEpilogue
from .registry import (
    ENV_VAR,
    SCRATCH_GEMM,
    SCRATCH_MAIN,
    SCRATCH_PAD,
    ConvKernel,
    ConvSpec,
    candidates,
    clear_quarantine,
    kernel_for,
    kernel_names,
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
    "register_kernel",
    "kernel_names",
    "candidates",
    "quarantine_kernel",
    "quarantined_kernels",
    "clear_quarantine",
    "kernel_for",
    "blas_thread_count",
    "scratch_upper_bound",
    "selection_table",
    "reset_selections",
    "SCRATCH_MAIN",
    "SCRATCH_GEMM",
    "SCRATCH_PAD",
]

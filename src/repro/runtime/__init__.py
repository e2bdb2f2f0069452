"""Tape-free batched inference runtime.

Training needs gradients; inference needs throughput.  The autograd
:class:`~repro.nn.tensor.Tensor` substrate pays for the former on every
forward pass: each op allocates fresh output arrays, wraps them in tensors,
and (outside ``no_grad``) wires backward closures.  Rollout collection,
evaluation, teacher distillation and the co-search's agent-reward queries are
all pure inference, so this subsystem executes them on a different engine:

* :func:`~repro.runtime.compiler.compile_plan` captures a :class:`repro.nn`
  module graph **once** (structurally, no tracing overhead) into a flat
  :class:`~repro.runtime.plan.Plan` of NumPy steps;
* :class:`~repro.runtime.engine.InferenceEngine` executes the plan with
  pre-allocated activation buffers and cached im2col workspaces — zero
  per-call allocations on the hot path and no ``Tensor`` wrapping;
* :class:`~repro.runtime.engine.RuntimePolicy` is the engine for an
  :class:`~repro.drl.agent.ActorCriticAgent` and serves ``(probs, values)``
  batches for rollout collection, including sampled supernet paths (one plan
  per batch shape holds every candidate; each call selects its path);
* :class:`~repro.runtime.engine.PlanCache` is the one plan cache every
  engine and train step owns: an LRU with its :class:`BufferPool`, a
  negative compile cache and the registry counters :func:`cache_stats`
  reads.

The engine reads parameters live from the source module on every run, so a
module can keep training between rollouts without invalidating its plans.
``dtype=np.float64`` (the default) reproduces the eager math to a few ulps;
``dtype=np.float32`` is the production fast path (~2-3x on BLAS-bound nets).
A float32 plan reads each float64 parameter through
:meth:`~repro.nn.modules.Parameter.cast`: one mirror per parameter and
dtype, shared by every plan and re-copied once per parameter version, so a
training loop's rollout and train plans cast each weight once per update.

Since the compiled-training extension, the same compiler also emits
**reverse-mode plans**: ``compile_plan(..., train=True)`` adds per-slot
gradient buffers and per-op VJP steps (sharing the rules in
:mod:`repro.nn.vjp` with the eager tape), and
:class:`~repro.runtime.train.CompiledTrainStep` packages forward + loss head
+ backward + fused optimiser step into the facade that
:class:`~repro.drl.a2c.A2CTrainer`, teacher training, and the one-level
co-search updates route through.  The eager tape remains the
always-available reference path, selected per call on
:class:`~repro.runtime.compiler.CompileError`.

Convolution steps dispatch their compute through the pluggable kernel
subsystem in :mod:`repro.runtime.kernels`: named channels-last
implementations (compiled and einsum depthwise, flat-GEMM pointwise, and the
im2col gather + GEMM for dense convs) are selected per op signature by a
static registry rule with a ``REPRO_KERNELS`` override; :func:`cache_stats`
reports the chosen kernel for every signature the process compiled.

The quantized inference path rides the same machinery:
:class:`~repro.runtime.quantize.Calibrator` harvests activation ranges from
a short rollout, and passing the resulting
:class:`~repro.runtime.quantize.QuantCalibration` to an engine (or
``compile_plan(quantize=...)``) lowers eligible convolutions to int8 (the
one quantized format) kernels with a fused requantization tail — eval-only, score-parity gated,
and bitwise-reproducible across kernel candidates.
"""

from .compiler import CompileError, compile_plan, register_expander, supported_module_types
from .engine import InferenceEngine, PlanCache, RuntimePolicy
from .passes import PASS_NAMES, enabled_passes
from .plan import BufferPool, Plan
from .quantize import Calibrator, QuantCalibration
from .train import CompiledTrainStep, TrainStepResult

__all__ = [
    "Plan",
    "BufferPool",
    "compile_plan",
    "register_expander",
    "supported_module_types",
    "CompileError",
    "InferenceEngine",
    "PlanCache",
    "RuntimePolicy",
    "CompiledTrainStep",
    "TrainStepResult",
    "Calibrator",
    "QuantCalibration",
    "PASS_NAMES",
    "enabled_passes",
    "cache_stats",
]


def cache_stats():
    """Process-wide plan-cache, :class:`BufferPool`, kernel and health counters.

    ``inference_plans`` and ``train_plans`` hold the hits / misses /
    evictions summed over the :class:`PlanCache` of every
    :class:`InferenceEngine` and :class:`CompiledTrainStep` the process
    created, ``buffer_pools`` the recycled vs freshly-allocated bytes over
    every pool.  All three are views of the ``runtime/`` counters of the
    metrics registry (the only place these counts live), so they only
    grow (collected objects keep their counts) and per-update deltas never go
    negative.  ``kernels`` reports the conv kernel chosen per op signature,
    and ``health`` the process-wide reliability counters of
    :mod:`repro.reliability.health` (worker restarts, guard trips, eager
    fallbacks, ...), putting recovery activity next to the cache counters.
    """
    from ..reliability import health
    from ..telemetry.metrics import registry
    from .kernels import selection_table

    return {
        "inference_plans": registry().view("runtime/inference_plans/"),
        "train_plans": registry().view("runtime/train_plans/"),
        "buffer_pools": registry().view("runtime/buffer_pools/"),
        "kernels": selection_table(),
        "health": health.stats(),
    }

"""Kernel registry + dispatcher: *what* a conv step computes vs *how*.

A :class:`ConvSpec` captures the full op signature of one convolution step
(shape, kernel/stride/padding/groups, dtype, direction); registered
:class:`ConvKernel` implementations declare which signatures they
:meth:`~ConvKernel.supports` and how much call-transient scratch they need.
Every signature is channels-last: the compiler emits NHWC conv steps only.
The dispatcher (:func:`kernel_for`) picks one implementation per signature
by a static rule, so every process on every host makes the same choices:

* ``REPRO_KERNELS`` unset / ``auto`` — the rule: the first supporting
  kernel in registration (preference) order.  With the kernels' ``supports``
  predicates that means ``depthwise_native`` / ``depthwise_native_q8`` for
  depthwise convs where the C library builds, else ``depthwise_einsum`` /
  ``depthwise_einsum_q8``; ``pointwise_nhwc`` / ``pointwise_q8`` for 1x1
  convs; ``im2col_nhwc`` for dense convs (C gather and scatter where the
  library builds, their byte-equal NumPy twins elsewhere).  Grouped
  non-depthwise convs, and convs padded by a whole kernel or more, have no
  kernel: :func:`~repro.runtime.compiler.compile_plan` rejects them;
* ``REPRO_KERNELS=heuristic`` — the rule with depthwise pinned to
  ``depthwise_einsum``, so the float choices, and the numerics, are the
  same with or without a C compiler;
* ``REPRO_KERNELS=<name>`` — pin one kernel globally (e.g.
  ``depthwise_einsum``); signatures the pinned kernel rejects fall back to
  the rule;
* ``REPRO_KERNELS=<class>=<name>,...`` — pin per op class, where the classes
  are ``pointwise`` / ``depthwise`` / ``grouped`` / ``dense`` (e.g.
  ``depthwise=depthwise_einsum``).

No choice is timed: where two kernels compete (depthwise, compiled vs
einsum) the compiled one wins every workload signature, so a committed rule
gets the kernels a per-process timing run would.  The first bind of a rule
choice that has a rival runs one untimed smoke forward on zero buffers; a
kernel that raises or returns non-finite output there is quarantined and the
rule picks again.  Every selection is recorded in an in-process table
(chosen kernel, how it was chosen, smoke failures) surfaced through
``repro.runtime.cache_stats()``.

Survival rule: a registered kernel stays only while (a) the rule selects it
on signatures of the ``perfbench`` workloads (``cosearch``,
``derived_train``, ``serve``) *and* it beats the path that would serve
those signatures without it (the next candidate), in a one-off census
timing of the rivals in one process; or (b) it is the fallback of its op
class — the last float kernel serving it, exempt from quarantine:
``pointwise_nhwc`` (1x1), ``depthwise_einsum`` (depthwise, and the only
depthwise kernel on hosts where :mod:`~repro.runtime.kernels._native`
cannot build) and ``im2col_nhwc`` (dense) — or a supported platform needs
it, as hosts without the C library need ``depthwise_einsum_q8`` and the
NumPy requant tail of
:class:`~repro.runtime.kernels.quantized.RequantEpilogue` (int8).  A kernel
(or a branch of one) that meets neither is deleted, not kept "just in
case"; int8 (``q8``) is the only quantized format for the same reason.

Kernels are *bound* per plan step: instantiating a kernel class with
``(spec, plan)`` allocates its persistent buffers through ``plan.alloc`` and
its transient workspaces through ``plan.workspace``, so kernel memory obeys
the same buffer-pool and scratch-arena discipline as every other step
workspace.  The scratch arenas are sized before the kernel is chosen, so
:func:`scratch_upper_bound` reports the per-channel maxima over *all*
supporting candidates.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from ...nn.functional import conv_output_size

__all__ = [
    "ConvSpec",
    "ConvKernel",
    "ENV_VAR",
    "KERNELS",
    "register_kernel",
    "kernel_names",
    "candidates",
    "quarantine_kernel",
    "quarantined_kernels",
    "clear_quarantine",
    "kernel_for",
    "scratch_upper_bound",
    "selection_table",
    "reset_selections",
    "SCRATCH_MAIN",
    "SCRATCH_GEMM",
    "SCRATCH_PAD",
]

ENV_VAR = "REPRO_KERNELS"

#: Shared scratch-arena channels (see :class:`repro.runtime.plan.Plan`).  A
#: workspace may live in a channel when its contents are only alive within a
#: single ``forward``/``backward`` call of one step; workspaces that must
#: coexist within one call use distinct channels.
SCRATCH_MAIN = 0   # im2col columns / column gradients / elementwise temps
SCRATCH_GEMM = 1   # weight-gradient workspaces / kernel accumulators
SCRATCH_PAD = 2    # padded buffers / padded scatter targets

#: Op classes a signature can be pinned by (``REPRO_KERNELS=<class>=<name>``).
OP_CLASSES = ("pointwise", "depthwise", "grouped", "dense")

#: Per-lane-block working-set target of the blocked kernels — roughly half
#: the L2 of the small cores this runtime targets, leaving room for the
#: output tile.  Shared so every kernel family blocks against the same
#: cache assumption.
BLOCK_TARGET_BYTES = 1 << 20


class ConvSpec(NamedTuple):
    """Signature of one convolution step: everything dispatch may key on."""

    batch: int
    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel: int
    stride: int
    padding: int
    groups: int
    dtype: str      # numpy dtype name, e.g. "float32"
    direction: str  # "infer" (forward only) or "train" (forward + VJPs)
    quant: str = ""  # quantization mode: "" (float) or "q8" (int8)

    # Derived geometry ---------------------------------------------------- #
    @property
    def out_height(self):
        return conv_output_size(self.height, self.kernel, self.stride, self.padding)

    @property
    def out_width(self):
        return conv_output_size(self.width, self.kernel, self.stride, self.padding)

    @property
    def itemsize(self):
        return np.dtype(self.dtype).itemsize

    @property
    def act_dtype(self):
        """Physical dtype of the activation buffers under this spec."""
        return np.dtype(np.int8) if self.quant == "q8" else np.dtype(self.dtype)

    @property
    def acc_dtype(self):
        """Float dtype whose arithmetic is exact for int8 accumulation.

        Quantized products and sums stay below 2**24, so float32
        accumulation computes the exact integer result in any summation
        order — the NumPy fallback kernels lean on this to match the C
        kernels bitwise.
        """
        return np.dtype(np.float32)

    @property
    def qmax(self):
        """Symmetric int8 clip bound."""
        return 127

    @property
    def train(self):
        return self.direction == "train"

    @property
    def pointwise(self):
        return (
            self.kernel == 1 and self.stride == 1 and self.padding == 0 and self.groups == 1
        )

    @property
    def depthwise(self):
        return self.groups > 1 and self.groups == self.in_channels == self.out_channels

    @property
    def op_class(self):
        if self.pointwise:
            return "pointwise"
        if self.depthwise:
            return "depthwise"
        if self.groups > 1:
            return "grouped"
        return "dense"

    @property
    def in_shape(self):
        """Physical (channels-last) input-array shape."""
        return (self.batch, self.height, self.width, self.in_channels)

    @property
    def out_shape(self):
        """Physical (channels-last) output-array shape."""
        return (self.batch, self.out_height, self.out_width, self.out_channels)

    def describe(self):
        """Compact human-readable signature key for stats tables."""
        base = (
            "{op}:n{n}c{c}->{o}@{h}x{w}/k{k}s{s}p{p}g{g}/{dt}/{dir}/nhwc".format(
                op=self.op_class, n=self.batch, c=self.in_channels,
                o=self.out_channels, h=self.height, w=self.width, k=self.kernel,
                s=self.stride, p=self.padding, g=self.groups, dt=self.dtype,
                dir=self.direction,
            )
        )
        if self.quant:
            base += "/" + self.quant
        return base


class ConvKernel:
    """Base class of one convolution implementation.

    Subclasses are registered (in preference order) via
    :func:`register_kernel` and bound per plan step by instantiation:
    ``__init__`` receives the spec plus an allocator object exposing
    ``alloc(shape, dtype=..., zero=...)`` and
    ``workspace(shape, dtype=..., channel=...)`` — a real
    :class:`~repro.runtime.plan.Plan` in production, a temporary arena during
    the first-bind smoke call.

    The contract mirrors the plan-step aliasing rules: ``forward`` may mutate
    only ``out`` and kernel-owned workspaces, never ``x``; ``backward`` may
    mutate ``gout`` (it owns the output-slot gradient by the time it runs) and
    must *accumulate* into ``gw`` / ``gin``.
    """

    #: Registry name (stable; used by ``REPRO_KERNELS`` and stats tables).
    name = None
    #: Quantization mode the kernel serves ("" = float).  Dispatch only
    #: considers kernels whose mode matches the spec's ``quant`` field, so
    #: float kernels never see int8 buffers and vice versa.
    quant = ""
    #: Whether this kernel is the last float kernel of its op class, the one
    #: every signature of that class degrades to.  Fallback kernels are
    #: exempt from quarantine: with them gone there is nothing left to
    #: dispatch to.
    fallback = False

    @classmethod
    def supports(cls, spec):
        """Whether this kernel can serve ``spec`` (never raises)."""
        raise NotImplementedError

    @classmethod
    def scratch_requests(cls, spec):
        """``(channel, nbytes)`` call-transient forward workspace needs."""
        return ()

    @classmethod
    def backward_scratch_requests(cls, spec, input_grad_needed):
        """``(channel, nbytes)`` call-transient backward workspace needs."""
        return ()

    def __init__(self, spec, plan):
        self.spec = spec

    def forward(self, x, weight, out, epilogue):
        """Compute the convolution into ``out`` and apply ``epilogue``.

        ``epilogue`` is the step's fused bias/BN/residual/activation
        descriptor: kernels call ``epilogue.apply(out)`` once, on the whole
        freshly computed output.
        """
        raise NotImplementedError

    def allocate_backward(self, plan, input_grad_needed):
        """Draw reverse-mode workspaces (training plans only)."""
        raise NotImplementedError(
            "{} has no reverse-mode implementation".format(type(self).__name__)
        )

    def backward(self, gout, x, weight, gw, gin):
        """Accumulate the weight VJP into ``gw`` and the input VJP into ``gin``.

        ``gout`` is the output-slot gradient after the activation VJP and
        bias accumulation already ran (the step owns those); ``gin`` is
        ``None`` when the input gradient is not needed (stem convolutions).
        """
        raise NotImplementedError

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.spec.describe())


#: Registered kernel classes, in preference order: the rule binds the first
#: one that supports a signature (each op class's fallback comes last).
KERNELS = []

#: signature -> {"kernel": name, "source": how it was chosen, "layout": "NHWC"}.
_SELECTIONS = {}

#: signature -> {kernel name: smoke failure reason, or None if it passed}.
_SMOKED = {}

#: kernel name -> reason, for kernels excluded for the rest of the session
#: after raising (or producing non-finite output) in their first-bind smoke
#: call.  Dispatch simply never sees a quarantined kernel again, so one
#: broken implementation degrades to its rival instead of crashing every
#: plan that would have picked it.
_QUARANTINED = {}


def quarantine_kernel(name, reason):
    """Exclude kernel ``name`` from dispatch for the rest of the session.

    Fallback kernels (``cls.fallback``) are never quarantined — they are the
    total implementation every signature can degrade to; if one of *them* is
    broken there is nothing to fall back on and the error must surface.
    Re-quarantining an already-quarantined kernel keeps the first reason and
    does not bump the health counter again.
    """
    if any(cls.fallback for cls in KERNELS if cls.name == name):
        return False
    if name not in _QUARANTINED:
        _QUARANTINED[name] = str(reason)
        from ...reliability import health

        health.record("quarantined_kernels")
    return True


def quarantined_kernels():
    """``{kernel name: reason}`` of every currently quarantined kernel."""
    return dict(_QUARANTINED)


def clear_quarantine():
    """Lift every quarantine (tests)."""
    _QUARANTINED.clear()


def register_kernel(cls):
    """Register a :class:`ConvKernel` subclass (decorator-friendly)."""
    if any(existing.name == cls.name for existing in KERNELS):
        raise ValueError("kernel {!r} already registered".format(cls.name))
    KERNELS.append(cls)
    return cls


def kernel_names():
    """Names of every registered kernel, in preference order."""
    return tuple(cls.name for cls in KERNELS)


def candidates(spec):
    """Registered kernels that support ``spec``.

    Every float kernel implements the VJPs and no int8 kernel serves a
    training signature, so the ``quant`` tier alone separates inference-only
    kernels from training ones.

    Quarantined kernels are excluded — unless exclusion would leave no
    candidate at all (a registry stripped down in a test), in which case the
    unfiltered list is returned so dispatch never goes empty-handed.
    """
    supporting = [
        cls
        for cls in KERNELS
        if cls.quant == spec.quant and cls.supports(spec)
    ]
    if _QUARANTINED:
        healthy = [cls for cls in supporting if cls.name not in _QUARANTINED]
        if healthy:
            return healthy
    return supporting


def _parse_env():
    """Resolve ``REPRO_KERNELS`` into per-class pins.

    Pins map op classes (or the wildcard ``"*"`` for a bare kernel name) to
    kernel names; ``auto`` (or unset) pins nothing and ``heuristic`` pins
    depthwise to ``depthwise_einsum``.  Unknown
    kernel or class names raise ``ValueError`` so typos fail loudly.
    """
    raw = os.environ.get(ENV_VAR, "auto").strip()
    if raw.lower() == "heuristic":
        raw = "depthwise=depthwise_einsum"
    elif raw.lower() == "auto":
        raw = ""
    names = set(kernel_names())
    pins = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            op_class, _, name = part.partition("=")
            op_class = op_class.strip().lower()
            name = name.strip()
            if op_class not in OP_CLASSES:
                raise ValueError(
                    "unknown op class {!r} in {}={!r}; valid classes: {}".format(
                        op_class, ENV_VAR, raw, list(OP_CLASSES)
                    )
                )
        else:
            op_class, name = "*", part
        if name not in names:
            raise ValueError(
                "unknown kernel {!r} in {}={!r}; registered kernels: {}".format(
                    name, ENV_VAR, raw, sorted(names)
                )
            )
        pins[op_class] = name
    return pins


def _pinned_name(spec):
    """The kernel ``REPRO_KERNELS`` pins for ``spec``'s op class, or ``None``."""
    pins = _parse_env()
    return pins.get(spec.op_class, pins.get("*"))


class _Arena:
    """Duck-typed stand-in for a :class:`~repro.runtime.plan.Plan` allocator.

    Kernels draw persistent buffers via ``alloc`` and transient workspaces
    via ``workspace``; outside a plan both are plain temporary numpy
    allocations that die with the arena.
    """

    def __init__(self, spec):
        self.dtype = np.dtype(spec.dtype)
        self.train = spec.train

    def alloc(self, shape, dtype=None, zero=False):
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        if zero:
            return np.zeros(tuple(int(d) for d in shape), dtype=dtype)
        return np.empty(tuple(int(d) for d in shape), dtype=dtype)

    def workspace(self, shape, dtype=None, channel=0):
        return self.alloc(shape, dtype=dtype)


class _NullEpilogue:
    """No-op epilogue for standalone kernel calls."""

    def apply(self, out):
        return out


NULL_EPILOGUE = _NullEpilogue()


def _smoke(spec, cls):
    """One untimed forward of ``cls`` on zero buffers of ``spec``'s geometry.

    Returns ``None`` when it runs clean, else the failure reason.  Zero
    inputs must give finite output; the ``kernel_error`` fault makes the
    named kernel raise here on demand.
    """
    from ...reliability.faults import get_injector

    x = np.zeros(spec.in_shape, dtype=spec.act_dtype)
    weight = np.zeros(
        (spec.out_channels, spec.in_channels // spec.groups, spec.kernel, spec.kernel),
        dtype=spec.act_dtype,
    )
    out = np.empty(spec.out_shape, dtype=spec.act_dtype)
    if spec.quant:
        # The quantized kernels read a real per-channel requant tail.
        from .quantized import RequantEpilogue

        epilogue = RequantEpilogue(spec.out_channels, spec.acc_dtype, spec.qmax)
    else:
        epilogue = NULL_EPILOGUE
    try:
        injector = get_injector()
        if injector is not None and injector.should_fire("kernel_error", target=cls.name):
            raise RuntimeError("injected kernel_error fault")
        cls(spec, _Arena(spec)).forward(x, weight, out, epilogue)
        if not np.all(np.isfinite(np.asarray(out, dtype=np.float64))):
            raise RuntimeError("kernel produced non-finite output on zero input")
    except Exception as error:  # noqa: BLE001 — any kernel crash degrades
        return "{}: {}".format(type(error).__name__, error)
    return None


def _rule(spec, cands):
    """The first of ``cands`` (preference order) that survives its smoke call.

    Only a non-fallback choice with a rival left behind it is smoke-tested,
    once per signature; a failure quarantines the kernel and the rule moves
    on to the next candidate.
    """
    for cls in cands[:-1]:
        if cls.fallback:
            return cls
        smoked = _SMOKED.setdefault(spec, {})
        if cls.name not in smoked:
            smoked[cls.name] = _smoke(spec, cls)
            if smoked[cls.name] is not None:
                quarantine_kernel(cls.name, smoked[cls.name])
        if smoked[cls.name] is None:
            return cls
    return cands[-1]


def kernel_for(spec, plan):
    """Select and bind the kernel serving ``spec`` on ``plan``.

    Selection policy (see module docstring): explicit pin > the rule.  The
    decision is recorded in the process-wide selection table.
    """
    cands = candidates(spec)
    if not cands:
        raise RuntimeError(
            "no registered kernel supports {} (compile_plan rejects such convs, and "
            "pointwise_nhwc / depthwise_einsum / im2col_nhwc are never quarantined; "
            "was the registry mutated?)".format(spec.describe())
        )
    name = _pinned_name(spec)
    pinned = [cls for cls in cands if cls.name == name]
    if pinned:
        cls, source = pinned[0], "pinned"
    else:
        cls, source = _rule(spec, cands), ("rule" if name is None else "pin-fallback")
    _SELECTIONS[spec] = {"kernel": cls.name, "source": source, "layout": "NHWC"}
    return cls(spec, plan)


def scratch_upper_bound(spec, input_grad_needed=True):
    """Per-channel scratch maxima over every candidate kernel of ``spec``.

    The aliasing pass sizes the shared scratch arenas *before* the kernel is
    selected, so the bound covers every candidate.  Returns ``(channel,
    nbytes)`` pairs.
    """
    channels = {}
    for cls in candidates(spec):
        requests = list(cls.scratch_requests(spec))
        if spec.train:
            requests += list(cls.backward_scratch_requests(spec, input_grad_needed))
        for channel, nbytes in requests:
            channels[channel] = max(channels.get(channel, 0), int(nbytes))
    return tuple(sorted(channels.items()))


def selection_table():
    """Chosen kernel per signature, with the source of the choice.

    A kernel that failed its smoke call for a signature appears in that
    row's ``"failures"`` entry (``{kernel: reason}``), so a quarantined
    kernel is visible in the same table as the selection it lost.
    """
    table = {}
    for spec, entry in _SELECTIONS.items():
        row = dict(entry)
        failures = {k: r for k, r in _SMOKED.get(spec, {}).items() if r is not None}
        if failures:
            row["failures"] = failures
        table[spec.describe()] = row
    return table


def reset_selections():
    """Clear the selection table and the per-signature smoke results."""
    _SELECTIONS.clear()
    _SMOKED.clear()

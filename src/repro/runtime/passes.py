"""Graph-level optimisation passes over compiled :class:`~repro.runtime.plan.Plan`s.

The compiler emits a plan whose layouts are decided and whose inference
epilogues are already fused and folded (see :mod:`repro.runtime.compiler`);
this module rewrites that program *between emission and finalisation*:

``quantize``
    Opt-in int8 lowering for inference plans (requires a
    :class:`~repro.runtime.quantize.QuantCalibration` in the pass context):
    eligible NHWC depthwise / pointwise convolutions are converted to
    integer arithmetic with per-tensor activation scales from calibration,
    and explicit :class:`~repro.runtime.plan.QuantizeStep` /
    :class:`~repro.runtime.plan.DequantizeStep` boundary steps bracket the
    quantized regions the way transpose steps bracket layout changes.  Heads,
    the dense stem and anything without a quantized kernel stay float; when
    the calibration was observed on a different plan (its
    :func:`plan_digest` differs) the pass declines to fire rather than apply
    wrong scales.

``alias_slots``
    Slot-liveness buffer aliasing: a last-use analysis over the forward
    program (and over the reverse program for training plans) assigns
    non-overlapping slots to shared byte arenas, and sizes one shared scratch
    arena for the transient im2col workspaces, cutting peak plan memory.
    For training plans the gradient buffers are interval-shared with a fill
    schedule that zeroes each buffer exactly when its live interval begins.
    Arenas are shared by *bytes*, so NHWC intervals coexist with NCHW ones.

After the passes run, a plan-lint debug check (:func:`lint_plan`) validates
the layout and aliasing invariants — no adjacent transpose-transpose pairs,
every step's input layouts matching its slot tags, aliased buffers fitting
their arenas — and raises :class:`PlanLintError` on violation.  It is on by
default under pytest and controllable via ``REPRO_RUNTIME_LINT=1/0``.

Pass selection: every pass runs by default; the ``REPRO_RUNTIME_PASSES``
environment variable (``all`` | ``none`` | comma-list, e.g.
``quantize,alias_slots``) or the ``passes=`` argument of
:func:`~repro.runtime.compiler.compile_plan` disables individual passes for
bisection, mirroring the ``use_compiled_train`` fallback style.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from ..telemetry import trace
from . import kernels as conv_kernels
from .plan import (
    ActivationStep,
    AddStep,
    BatchNormStep,
    Conv2dStep,
    DequantizeStep,
    FlattenStep,
    GateCombineStep,
    GlobalAvgPoolStep,
    LinearStep,
    OpaqueStep,
    Pool2dStep,
    QuantInfo,
    QuantizeStep,
    ReshapeStep,
    SoftmaxStep,
    StoragePlan,
    TransposeStep,
)

__all__ = [
    "PASS_NAMES",
    "enabled_passes",
    "run_passes",
    "PassContext",
    "PlanLintError",
    "lint_plan",
    "lint_enabled",
]

#: Pipeline order matters: quantization first (its calibration was observed
#: on the bare compiler output), then the liveness analysis over the final
#: step list.
PASS_NAMES = ("quantize", "alias_slots")

ENV_VAR = "REPRO_RUNTIME_PASSES"

#: Debug-lint control: "1"/"0" force it on/off; unset means "on under pytest".
LINT_ENV_VAR = "REPRO_RUNTIME_LINT"

#: Step types the analyses understand.  A plan containing anything else
#: (custom :class:`Step` subclasses from third-party expanders) receives no
#: pass.
_KNOWN_STEPS = frozenset(
    {
        ActivationStep,
        AddStep,
        BatchNormStep,
        Conv2dStep,
        FlattenStep,
        GateCombineStep,
        GlobalAvgPoolStep,
        LinearStep,
        OpaqueStep,
        Pool2dStep,
        QuantizeStep,
        DequantizeStep,
        ReshapeStep,
        SoftmaxStep,
        TransposeStep,
    }
)

#: Step types whose output slot is a zero-copy view of their input slot.
_VIEW_STEPS = (FlattenStep, ReshapeStep)


def enabled_passes(spec=None):
    """Resolve a pass-selection spec into a frozen set of pass names.

    ``None`` reads ``REPRO_RUNTIME_PASSES`` (default: all passes).  Accepts
    ``"all"``, ``"none"``, a comma-separated name list, or any iterable of
    names; unknown names raise ``ValueError`` so typos fail loudly.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR, "all")
    if isinstance(spec, (set, frozenset, list, tuple)):
        names = [str(name).strip() for name in spec]
    else:
        text = str(spec).strip().lower()
        if text in ("all", ""):
            return frozenset(PASS_NAMES)
        if text == "none":
            return frozenset()
        names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = sorted(set(names) - set(PASS_NAMES))
    if unknown:
        raise ValueError(
            "unknown runtime passes {}; valid names: {}".format(unknown, list(PASS_NAMES))
        )
    return frozenset(names)


class PassContext:
    """Compile-time facts the passes need beyond the plan itself."""

    def __init__(self, protected_slots=(), quantize=None):
        #: Slots with externally visible contents (plan input/outputs, named
        #: slots): never re-routed, never storage-shared, never dead.
        self.protected_slots = frozenset(protected_slots)
        #: :class:`~repro.runtime.quantize.QuantCalibration` matching this
        #: compile, or ``None``; enables the ``quantize`` pass.
        self.quantize = quantize


# --------------------------------------------------------------------------- #
# Step metadata
# --------------------------------------------------------------------------- #
def step_reads(step):
    """Slots whose contents the step's ``run`` consumes."""
    if isinstance(step, Conv2dStep):
        reads = [step.in_slot]
        if step.res_slot is not None:
            reads.append(step.res_slot)
        return reads
    if isinstance(step, AddStep):
        return [step.a_slot, step.b_slot]
    if isinstance(step, GateCombineStep):
        return list(step.in_slots)
    return [step.in_slot]


def step_writes(step):
    """Slots the step's ``run`` (re)defines."""
    return [step.out_slot]


def _writers(plan):
    """Slot -> indices of the steps that (re)define it."""
    writers = {}
    for index, step in enumerate(plan.steps):
        for slot in step_writes(step):
            writers.setdefault(slot, []).append(index)
    return writers


def _view_roots(plan):
    """Map each view slot to the slot whose storage it observes."""
    root = {}

    def find(slot):
        while slot in root:
            slot = root[slot]
        return slot

    for step in plan.steps:
        if isinstance(step, _VIEW_STEPS):
            root[step.out_slot] = find(step.in_slot)
    return root, find


def _ensure_storage(plan):
    if plan.storage is None:
        plan.storage = StoragePlan()
    return plan.storage


def plan_digest(plan):
    """sha256 of the plan's dataflow: every step's type, reads, writes and
    branch, and every slot's shape.

    A calibration records the digest of the plan it observed; the quantize
    pass applies it only to a plan with the same digest.
    """
    steps = [
        (type(step).__name__, step_reads(step), step_writes(step), step.branch)
        for step in plan.steps
    ]
    return hashlib.sha256(repr((steps, plan._shapes)).encode()).hexdigest()


# --------------------------------------------------------------------------- #
# Boundary-step helpers (quantize pass)
# --------------------------------------------------------------------------- #
def _rewire_reads(step, remap):
    """Point a step's reads at twin slots (``remap``: slot -> twin)."""
    if isinstance(step, Conv2dStep):
        step.in_slot = remap.get(step.in_slot, step.in_slot)
        if step.res_slot is not None:
            step.res_slot = remap.get(step.res_slot, step.res_slot)
    elif isinstance(step, AddStep):
        step.a_slot = remap.get(step.a_slot, step.a_slot)
        step.b_slot = remap.get(step.b_slot, step.b_slot)
    elif isinstance(step, GateCombineStep):
        step.in_slots = tuple(remap.get(slot, slot) for slot in step.in_slots)
    elif hasattr(step, "in_slot"):
        step.in_slot = remap.get(step.in_slot, step.in_slot)


def _feed_branch(step, slot):
    """Branch tag of a boundary step inserted to feed ``slot`` into ``step``.

    A combine reads each branch's output only when that branch runs, so a
    boundary feeding a combine input belongs to that input's branch.
    """
    if isinstance(step, GateCombineStep):
        return step.branch_of(slot)
    return step.branch


def _share_boundary(boundary, step, slot):
    """Retag a memoised boundary step reused by another reader.

    A boundary serving readers of different branches must run whenever any
    of them does, so it moves to the trunk.
    """
    if boundary.branch != _feed_branch(step, slot):
        boundary.branch = None


# --------------------------------------------------------------------------- #
# quantize: calibrated int8 lowering of eligible convolutions
# --------------------------------------------------------------------------- #
def quantize_plan(plan, ctx):
    """Convert eligible convs to int8 arithmetic (inference, opt-in).

    Runs only when the pass context carries a
    :class:`~repro.runtime.quantize.QuantCalibration` observed on this very
    plan: the calibration ran the bare compiler output, so its
    :func:`plan_digest` must equal this plan's before the rewrite.  Any
    drift makes the pass decline entirely — quantization is an
    optimisation, never a correctness requirement.

    A conv is eligible when it is depthwise or pointwise, inference
    direction, outside any gated-supernet branch (a calibration observes one
    path, and the plan serves every path), its activation quantizes losslessly into the requant clip
    (``None`` / ``relu``), its output slot is unprotected and single-writer, a registered kernel serves
    the quantized signature, and calibration observed all its slots with the
    right channel counts.  The walk then threads integer data through
    eligible chains: a quantized conv reading a float slot gets a
    :class:`~repro.runtime.plan.QuantizeStep` twin, a float step reading a
    quantized slot gets a :class:`~repro.runtime.plan.DequantizeStep` twin
    (memoised per slot, like the compiler's transpose twins), and
    conv-to-conv edges inside a chain stay integer with matching scales by
    construction.  Value / policy heads stay float automatically: their
    first read of a quantized slot dequantizes it.
    """
    calib = ctx.quantize
    if calib is None or plan.train:
        return
    if calib.digest != plan_digest(plan):
        return  # observed on another plan: fail safe to float
    mode = calib.mode
    act_dtype = np.dtype(np.int8)
    qmax = 127

    writers = _writers(plan)

    def slot_scale(slot):
        channels = calib.channels(slot)
        if channels is None or channels != plan.shape(slot)[1]:
            return None
        return calib.scale(slot, qmax)

    eligible = {}
    for step in plan.steps:
        if not isinstance(step, Conv2dStep):
            continue
        spec = step._spec(plan)
        if (
            step.branch is not None
            or step.activation not in (None, "relu")
            or spec.op_class not in ("pointwise", "depthwise")
            or step.out_slot in ctx.protected_slots
            or len(writers.get(step.out_slot, ())) != 1
            or not conv_kernels.candidates(spec._replace(quant=mode))
        ):
            continue
        in_scale = slot_scale(step.in_slot)
        out_scale = slot_scale(step.out_slot)
        res_scale = (
            slot_scale(step.res_slot) if step.res_slot is not None else 0.0
        )
        if in_scale is None or out_scale is None or res_scale is None:
            continue
        eligible[id(step)] = (in_scale, out_scale, res_scale)
    if not eligible:
        return

    new_steps = []
    int_scale = {}  # slot -> activation scale, for slots carrying integers
    qtwins = {}     # (float slot, write version) -> integer twin
    ftwins = {}     # integer slot -> float twin
    versions = {}

    def int_view(slot, scale, layout, reader):
        key = (slot, versions.get(slot, 0))
        if key in qtwins:
            twin, boundary = qtwins[key]
            _share_boundary(boundary, reader, slot)
            return twin
        twin = plan.new_slot(plan.shape(slot), layout=layout, dtype=act_dtype)
        boundary = QuantizeStep(slot, twin, scale, qmax, layout=layout)
        boundary.branch = _feed_branch(reader, slot)
        new_steps.append(boundary)
        int_scale[twin] = scale
        qtwins[key] = (twin, boundary)
        return twin

    def float_view(slot, layout, reader):
        if slot in ftwins:
            twin, boundary = ftwins[slot]
            _share_boundary(boundary, reader, slot)
            return twin
        twin = plan.new_slot(plan.shape(slot), layout=layout)
        boundary = DequantizeStep(slot, twin, int_scale[slot], layout=layout)
        boundary.branch = _feed_branch(reader, slot)
        new_steps.append(boundary)
        ftwins[slot] = (twin, boundary)
        return twin

    for step in plan.steps:
        scales = eligible.get(id(step))
        if scales is not None:
            in_scale, out_scale, res_scale = scales
            if step.in_slot in int_scale:
                in_scale = int_scale[step.in_slot]
            else:
                step.in_slot = int_view(step.in_slot, in_scale, step.layout, step)
            if step.res_slot is not None:
                if step.res_slot in int_scale:
                    res_scale = int_scale[step.res_slot]
                else:
                    step.res_slot = int_view(step.res_slot, res_scale, step.layout, step)
            plan.set_slot_dtype(step.out_slot, act_dtype)
            int_scale[step.out_slot] = out_scale
            step.quant = QuantInfo(mode, in_scale, out_scale, res_scale)
        else:
            remap = {
                slot: float_view(slot, plan.layout(slot), step)
                for slot in step_reads(step)
                if slot in int_scale
            }
            if remap:
                _rewire_reads(step, remap)
        new_steps.append(step)
        for slot in step_writes(step):
            versions[slot] = versions.get(slot, 0) + 1
    plan.steps = new_steps


# --------------------------------------------------------------------------- #
# alias_slots: liveness analysis -> shared storage arenas
# --------------------------------------------------------------------------- #
def _assign_arenas(intervals, nbytes_of):
    """Greedy linear-scan assignment of live intervals to shared arenas.

    ``intervals`` is ``{slot: (start, end)}`` in program order; two slots may
    share an arena only when one's interval ends strictly before the other's
    begins (the strictness keeps GEMM outputs from aliasing their inputs).
    Returns ``(slot_arena, arena_nbytes)``.
    """
    slot_arena = {}
    arenas = []  # [capacity, free_at]
    for slot in sorted(intervals, key=lambda s: (intervals[s][0], s)):
        start, end = intervals[slot]
        nbytes = nbytes_of(slot)
        fit = grow = None
        for arena_id, (capacity, free_at) in enumerate(arenas):
            if free_at >= start:
                continue
            if capacity >= nbytes:
                if fit is None or capacity < arenas[fit][0]:
                    fit = arena_id
            elif grow is None or capacity > arenas[grow][0]:
                grow = arena_id
        if fit is not None:
            arena_id = fit
        elif grow is not None:
            arena_id = grow
            arenas[grow][0] = nbytes
        else:
            arena_id = len(arenas)
            arenas.append([nbytes, end])
        arenas[arena_id][1] = end
        slot_arena[slot] = arena_id
    return slot_arena, [capacity for capacity, _ in arenas]


def _scratch_channels(plan):
    """Per-channel maxima over every step's call-transient workspace needs."""
    channels = {}
    for step in plan.steps:
        for channel, nbytes in step.scratch_requests(plan):
            channels[channel] = max(channels.get(channel, 0), int(nbytes))
    return channels


def alias_slots(plan, ctx):
    """Share storage between slots whose live ranges never overlap.

    Inference plans alias the activation slots themselves and provision one
    shared scratch arena for the transient im2col workspaces.  Training plans
    keep every forward activation alive (they are the saved intermediates)
    and instead alias the reverse program's gradient buffers, zeroing each
    one at the start of its live interval via the plan's fill schedule.
    """
    storage = _ensure_storage(plan)
    root_map, find = _view_roots(plan)

    def nbytes_of(slot):
        # Per-slot dtype: quantized activation slots are narrower than the
        # plan dtype, and arenas are shared by bytes.
        return int(np.prod(plan.shape(slot))) * plan.slot_dtype(slot).itemsize

    protected_roots = {find(slot) for slot in ctx.protected_slots}

    if not plan.train:
        # Forward liveness: def index of each storage root and its last read.
        first_def = {}
        last_use = {}

        def touch(slot, index):
            root = find(slot)
            first_def.setdefault(root, index)
            last_use[root] = index

        if plan.input_slot is not None:
            touch(plan.input_slot, -1)
        for index, step in enumerate(plan.steps):
            for slot in step_reads(step):
                touch(slot, index)
            for slot in step_writes(step):
                touch(slot, index)
        intervals = {
            slot: (first_def[slot], last_use[slot])
            for slot in first_def
            if slot not in protected_roots and slot not in plan._view_slots
        }
        storage.slot_arena, storage.arena_nbytes = _assign_arenas(intervals, nbytes_of)
        storage.scratch_channels = _scratch_channels(plan)
        return

    # Training plans: alias the gradient buffers over the reverse program.
    length = len(plan.steps)
    touches = {}  # root -> [forward step indices touching its gradient]
    for index, step in enumerate(plan.steps):
        for slot in set(step_reads(step)) | set(step_writes(step)):
            touches.setdefault(find(slot), []).append(index)
    intervals = {}
    fill_schedule = {}
    for root, indices in touches.items():
        if root in protected_roots or root in plan._view_slots:
            continue
        first, last = min(indices), max(indices)
        if first == last:
            continue  # single-step slot: gradient never crosses a step boundary
        # Reverse positions: the gradient is first written by the backward of
        # the *last* forward toucher and finally consumed by the backward of
        # the *first* (its producer).
        intervals[root] = (length - 1 - last, length - 1 - first)
        fill_schedule.setdefault(last, []).append(root)
    storage.grad_arena, storage.grad_arena_nbytes = _assign_arenas(intervals, nbytes_of)
    storage.scratch_channels = _scratch_channels(plan)
    storage.grad_fill_schedule = {
        index: tuple(slots) for index, slots in fill_schedule.items()
    }
    # Gradients nothing touches (and nothing views) need no buffer at all.
    storage.grad_dead = {
        slot
        for slot in range(len(plan._shapes))
        if slot not in plan._view_slots
        and find(slot) == slot
        and slot not in touches
        and slot not in protected_roots
        and slot not in {find(v) for v in root_map}
    }


def mark_dead_slots(plan, ctx):
    """Record slots no remaining step touches so finalize skips them."""
    used = set(ctx.protected_slots)
    if plan.input_slot is not None:
        used.add(plan.input_slot)
    for step in plan.steps:
        used.update(step_reads(step))
        used.update(step_writes(step))
    storage = _ensure_storage(plan)
    storage.dead_slots = {
        slot
        for slot in range(len(plan._shapes))
        if slot not in used and slot not in plan._view_slots
    }


# --------------------------------------------------------------------------- #
# Plan lint: layout / aliasing invariant checks (debug, on under pytest)
# --------------------------------------------------------------------------- #
class PlanLintError(RuntimeError):
    """A compiled plan violates the layout / aliasing invariants."""


def lint_enabled():
    """Whether :func:`run_passes` should lint: env override, else pytest."""
    raw = os.environ.get(LINT_ENV_VAR)
    if raw is not None:
        return raw.strip().lower() not in ("", "0", "false", "off")
    return "PYTEST_CURRENT_TEST" in os.environ


def _expected_layouts(step, lay):
    """Per-read/write layout every step type requires, given its own tags."""
    if isinstance(step, Conv2dStep):
        expected = {step.in_slot: step.layout, step.out_slot: step.layout}
        if step.res_slot is not None:
            expected[step.res_slot] = step.layout
        return expected
    if isinstance(step, BatchNormStep):
        return {step.in_slot: step.layout, step.out_slot: step.layout}
    if isinstance(step, GlobalAvgPoolStep):
        return {step.in_slot: step.layout}
    if isinstance(step, (AddStep, ActivationStep)):
        layout = lay(step.out_slot)
        return {} if layout is None else {slot: layout for slot in step_reads(step)}
    if isinstance(step, GateCombineStep):
        layout = lay(step.out_slot)
        return {} if layout is None else {slot: layout for slot in step.in_slots}
    if isinstance(step, TransposeStep):
        return {
            step.in_slot: step.from_layout,
            step.out_slot: step.to_layout,
        }
    if isinstance(step, (QuantizeStep, DequantizeStep)):
        # Dtype boundaries preserve the physical layout on both sides.
        layout = step.layout
        return {} if layout is None else {
            step.in_slot: layout,
            step.out_slot: layout,
        }
    # Anchors (pooling / flatten / reshape / opaque / ...): logical NCHW.
    return {slot: "NCHW" for slot in step_reads(step) if lay(slot) is not None}


def lint_plan(plan, ctx=None):
    """Validate the layout and aliasing invariants; raise on any violation.

    Checks, in one walk over the program plus the storage plan:

    * no transpose step consumes another transpose's still-current output
      (adjacent pairs must have been cancelled through the twin memo);
    * every step observes each 4-D slot in the layout the slot is tagged
      with (conv/BN/pool steps via their own ``layout`` attribute, joins via
      their operands' tags, anchor steps as NCHW);
    * quantized edges are scale-consistent: every integer slot's scale is
      fixed by its writer (quantize step or quantized conv) and every
      consumer — quantized conv input/residual, dequantize step — must
      carry exactly that scale; integer slots may only be read by
      quant-aware steps (no un-dequantized edges) and protected slots stay
      in the plan dtype;
    * every aliased slot fits its arena (forward and gradient), byte-wise,
      under its own dtype.
    """
    problems = []
    lay = plan.layout
    transposed = {}  # slot -> True while its latest definition is a transpose
    for index, step in enumerate(plan.steps):
        if isinstance(step, TransposeStep):
            if step.from_layout == step.to_layout:
                problems.append(
                    "step {}: transpose {}->{} is a no-op".format(
                        index, step.from_layout, step.to_layout
                    )
                )
            if transposed.get(step.in_slot):
                problems.append(
                    "step {}: transpose of slot {} consumes another "
                    "transpose's output (uncancelled adjacent pair)".format(
                        index, step.in_slot
                    )
                )
        for slot, needed in _expected_layouts(step, lay).items():
            tag = lay(slot)
            if tag is not None and tag != needed:
                problems.append(
                    "step {} ({}): slot {} tagged {} but step expects {}".format(
                        index, type(step).__name__, slot, tag, needed
                    )
                )
        for slot in step_writes(step):
            transposed[slot] = isinstance(step, TransposeStep)
    # Quantized-edge invariants: an integer slot's scale is fixed by its
    # writer; every consumer must agree on it exactly, and only quant-aware
    # steps may read integer data.
    scale_of = {}
    for step in plan.steps:
        if isinstance(step, QuantizeStep):
            scale_of[step.out_slot] = step.scale
        elif isinstance(step, Conv2dStep) and step.quant is not None:
            scale_of[step.out_slot] = step.quant.out_scale
    for index, step in enumerate(plan.steps):
        if isinstance(step, Conv2dStep) and step.quant is not None:
            if plan.train:
                problems.append(
                    "step {}: quantized conv in a training plan".format(index)
                )
            if scale_of.get(step.in_slot) != step.quant.in_scale:
                problems.append(
                    "step {}: quantized conv reads slot {} at scale {!r} but "
                    "its producer wrote scale {!r}".format(
                        index, step.in_slot, step.quant.in_scale,
                        scale_of.get(step.in_slot),
                    )
                )
            if (
                step.res_slot is not None
                and scale_of.get(step.res_slot) != step.quant.res_scale
            ):
                problems.append(
                    "step {}: quantized conv residual slot {} at scale {!r} "
                    "but its producer wrote scale {!r}".format(
                        index, step.res_slot, step.quant.res_scale,
                        scale_of.get(step.res_slot),
                    )
                )
        elif isinstance(step, DequantizeStep):
            if scale_of.get(step.in_slot) != step.scale:
                problems.append(
                    "step {}: dequantize of slot {} at scale {!r} but its "
                    "producer wrote scale {!r}".format(
                        index, step.in_slot, step.scale,
                        scale_of.get(step.in_slot),
                    )
                )
        for slot in step_reads(step):
            if plan.slot_dtype(slot).kind not in "iu":
                continue
            quant_aware = isinstance(step, DequantizeStep) or (
                isinstance(step, Conv2dStep) and step.quant is not None
            )
            if not quant_aware:
                problems.append(
                    "step {} ({}): reads quantized slot {} without "
                    "dequantizing".format(index, type(step).__name__, slot)
                )
    if ctx is not None:
        for slot in sorted(ctx.protected_slots):
            if plan.slot_dtype(slot) != plan.dtype:
                problems.append(
                    "protected slot {} carries dtype {} instead of the plan "
                    "dtype {}".format(slot, plan.slot_dtype(slot), plan.dtype)
                )
    storage = plan.storage
    if storage is not None:
        checks = (
            ("forward", storage.slot_arena, storage.arena_nbytes),
            ("grad", storage.grad_arena, storage.grad_arena_nbytes),
        )
        for kind, slot_arena, arena_nbytes in checks:
            for slot, arena in slot_arena.items():
                need = (
                    int(np.prod(plan.shape(slot)))
                    * plan.slot_dtype(slot).itemsize
                )
                if arena_nbytes[arena] < need:
                    problems.append(
                        "{} arena {} holds {} bytes but aliased slot {} "
                        "needs {}".format(
                            kind, arena, arena_nbytes[arena], slot, need
                        )
                    )
    if problems:
        raise PlanLintError(
            "plan lint failed:\n  " + "\n  ".join(problems)
        )
    return plan


_PASS_FUNCS = {
    "quantize": quantize_plan,
    "alias_slots": alias_slots,
}


def run_passes(plan, ctx, enabled=None):
    """Run the enabled passes, in pipeline order, on an un-finalised plan,
    then mark its dead slots and lint it (:func:`lint_enabled`), with or
    without a pass; a plan holding a step no pass knows is left as compiled."""
    enabled = enabled if isinstance(enabled, frozenset) else enabled_passes(enabled)
    if any(type(step) not in _KNOWN_STEPS for step in plan.steps):
        return plan
    for name in PASS_NAMES:
        if name in enabled:
            with trace.span("pass/" + name, "compile"):
                _PASS_FUNCS[name](plan, ctx)
    mark_dead_slots(plan, ctx)
    if lint_enabled():
        lint_plan(plan, ctx)
    return plan

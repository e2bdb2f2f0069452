"""Structural compiler: :class:`repro.nn` module trees -> flat :class:`Plan`.

The module zoo of this repository is small and closed, so instead of tracing
an example forward pass the compiler walks the module structure directly: a
registry maps module types to *expanders* that append steps to the plan and
return the output slot.

Inference epilogues are fused as the steps are emitted, the way
lowering-time operator fusion works in deep-learning compilers: a conv
step carries its batch norm (folded into the weights while the BN is in
eval mode), its activation and its residual join, so each feature map is
written once.  Every decision is local to the emitting expander:

* ``ConvBNReLU`` emits one conv step with BN and activation;
* in a ``Sequential``, a ``BatchNorm2d`` folds into a bare conv the
  previous layer emitted last, and an activation into a conv, linear or
  batch-norm step the previous layer emitted last (:func:`_fold_into`);
  an activation that cannot fuse runs on an :class:`ActivationStep`;
* a residual join (:func:`_emit_join`) becomes the residual epilogue of
  the body's conv when that conv is the step emitted last, so the shortcut
  is materialised before the conv runs; otherwise it is an in-place
  :class:`AddStep`.

Training plans keep BN and joins as their own steps (the reverse program
needs the pre-normalisation and pre-join values).

Layouts are decided here, as each step is emitted: conv, batch-norm, join
(add, gate combine) and global-pool steps read and write channels-last
(NHWC) slots; pooling windows, flatten, reshape and opaque steps read NCHW,
and so does a 4-D plan output.  Where a read needs the layout its slot does
not carry, :meth:`CompileContext.read` emits a :class:`TransposeStep` into a
twin slot, reused by later readers until the slot is written again (and
never across gated-supernet branches).  So a network of convs runs
channels-last behind one transpose of its NCHW input.  A conv no registered
kernel serves (grouped non-depthwise, or padded by a whole kernel) raises
:class:`CompileError`, and callers stay on the eager tape.

Modules without a registered expander fall back to an :class:`OpaqueStep`
that runs their eager ``forward`` under ``no_grad``, so the engine stays
total over custom user modules (just slower for that one node).

Custom layers can join the fast path via :func:`register_expander`.
"""

from __future__ import annotations

import numpy as np

from ..nn import blocks as nn_blocks
from ..nn import modules as nn_modules
from ..nn.functional import conv_output_size
from ..telemetry import trace
from . import kernels as conv_kernels
from .passes import PassContext, enabled_passes, run_passes, step_writes
from .plan import (
    ActivationStep,
    AddStep,
    BatchNormStep,
    Conv2dStep,
    FlattenStep,
    GateCombineStep,
    GlobalAvgPoolStep,
    LinearStep,
    OpaqueStep,
    Plan,
    Pool2dStep,
    ReshapeStep,
    SoftmaxStep,
    TransposeStep,
)

__all__ = [
    "ALL_CANDIDATES", "compile_plan", "register_expander", "supported_module_types", "CompileError"
]

_EXPANDERS = {}

#: ``gated_paths`` value compiling every candidate branch of every cell.
ALL_CANDIDATES = "all"

#: The layout of every conv, batch-norm, join and global-pool step.
NHWC = "NHWC"
#: The layout of the plan input, pooling windows, flatten / reshape / opaque
#: inputs and 4-D plan outputs.
NCHW = "NCHW"


class CompileError(RuntimeError):
    """Raised when a module tree cannot be compiled into a plan."""


def register_expander(module_type, expander):
    """Register ``expander(module, ctx, in_slot) -> out_slot`` for a module type."""
    _EXPANDERS[module_type] = expander
    return expander


def supported_module_types():
    """Module types with a native (non-opaque) expander."""
    return sorted(_EXPANDERS, key=lambda t: t.__name__)


def _expander(module_type):
    def decorator(fn):
        return register_expander(module_type, fn)

    return decorator


class CompileContext:
    """Mutable state threaded through expanders while building one plan."""

    def __init__(self, plan, path=None, gated=None):
        self.plan = plan
        self.path = path
        self.path_consumed = False
        self.gated = gated
        self.gated_consumed = False
        #: ``(cell, candidate)`` of the gated-supernet branch being emitted;
        #: :meth:`add` tags every step with it.
        self.branch = None
        #: ``(slot, layout, branch)`` -> transposed twin of the slot's
        #: current contents.
        self._twins = {}

    @property
    def train(self):
        """Whether this plan must also support the reverse-mode program."""
        return self.plan.train

    def emit(self, module, in_slot):
        """Expand ``module`` (dispatching over its MRO) and return its output slot."""
        for klass in type(module).__mro__:
            expander = _EXPANDERS.get(klass)
            if expander is not None:
                return expander(module, self, in_slot)
        return _emit_opaque(module, self, in_slot)

    def slot(self, shape, view=False, layout=NHWC):
        """A new slot; ``layout`` tags it only if it is 4-D."""
        return self.plan.new_slot(shape, view=view, layout=layout if len(shape) == 4 else None)

    def shape(self, slot):
        return self.plan.shape(slot)

    def add(self, step):
        """Append ``step`` to the current branch; its writes stale their twins."""
        step.branch = self.branch
        written = set(step_writes(step))
        self._twins = {
            key: twin for key, twin in self._twins.items()
            if key[0] not in written and twin not in written
        }
        return self.plan.add(step)

    def read(self, slot, layout):
        """``slot`` as a step reading it in ``layout`` sees it.

        That is ``slot`` itself when it carries ``layout`` (or is not 4-D),
        else a twin slot a :class:`TransposeStep` fills: emitted on first
        need, then reused until ``slot`` is written again, by readers of the
        same branch or of the trunk.
        """
        current = self.plan.layout(slot)
        if current is None or current == layout:
            return slot
        for branch in (self.branch, None):
            twin = self._twins.get((slot, layout, branch))
            if twin is not None:
                return twin
        plan = self.plan
        twin = plan.new_slot(plan.shape(slot), layout=layout)
        if slot == plan.input_slot or slot in plan._no_grad_slots:
            plan._no_grad_slots.add(twin)
        self.add(TransposeStep(slot, twin, current, layout))
        self._twins[(slot, layout, self.branch)] = twin
        return twin


def _emit_opaque(module, ctx, in_slot):
    """Fallback expander: run the module eagerly to discover its output shape.

    The probe runs in eval mode so compile-time shape discovery never mutates
    training state (BN running statistics, dropout RNG streams); the module's
    mode is restored afterwards and :class:`OpaqueStep` respects it at run
    time.
    """
    from ..nn import Tensor, no_grad

    if ctx.train:
        raise CompileError(
            "{} has no compiled backward; training stays on the autograd tape".format(
                type(module).__name__
            )
        )
    in_slot = ctx.read(in_slot, NCHW)
    probe = np.zeros(ctx.shape(in_slot), dtype=np.float64)
    was_training = bool(getattr(module, "training", False))
    if was_training:
        module.eval()
    try:
        with no_grad():
            out = module(Tensor(probe))
    finally:
        if was_training:
            module.train()
    out_slot = ctx.slot(out.shape, layout=NCHW)
    ctx.add(OpaqueStep(module, in_slot, out_slot))
    return out_slot


# --------------------------------------------------------------------------- #
# Primitive layers
# --------------------------------------------------------------------------- #
def _activation_kind(module):
    """The fused-activation tag of an activation module, or ``None``."""
    if isinstance(module, nn_modules.ReLU):
        return "relu"
    if isinstance(module, nn_modules.LeakyReLU):
        return ("leaky_relu", module.negative_slope)
    if isinstance(module, nn_modules.Tanh):
        return "tanh"
    if isinstance(module, nn_modules.Sigmoid):
        return "sigmoid"
    return None


def _emit_conv(conv, ctx, in_slot, bn=None, activation=None):
    """Emit a fused convolution step and its output slot.

    Training plans keep BN as its own step: reverse-mode batch norm needs the
    pre-normalisation activations, which the fused step would overwrite.  The
    activation still fuses into the last step of the pair (its VJP only needs
    the post-activation output).
    """
    in_slot = ctx.read(in_slot, NHWC)
    n, _, h, w = ctx.shape(in_slot)
    oh = conv_output_size(h, conv.kernel_size, conv.stride, conv.padding)
    ow = conv_output_size(w, conv.kernel_size, conv.stride, conv.padding)
    fused = bn is not None and not ctx.train
    out_slot = ctx.slot((n, conv.out_channels, oh, ow))
    step = Conv2dStep(conv, in_slot, out_slot, bn=bn if fused else None,
                      activation=activation if fused or bn is None else None)
    spec = step._spec(ctx.plan)
    if not conv_kernels.candidates(spec):
        raise CompileError("no conv kernel serves {}".format(spec.describe()))
    ctx.add(step)
    if fused or bn is None:
        return out_slot
    bn_slot = ctx.slot(ctx.shape(out_slot))
    ctx.add(BatchNormStep(bn, out_slot, bn_slot, activation=activation))
    return bn_slot


@_expander(nn_modules.Conv2d)
def _expand_conv2d(module, ctx, in_slot):
    return _emit_conv(module, ctx, in_slot)


@_expander(nn_modules.Linear)
def _expand_linear(module, ctx, in_slot):
    in_slot = ctx.read(in_slot, NCHW)
    n = ctx.shape(in_slot)[0]
    out_slot = ctx.slot((n, module.out_features))
    ctx.add(LinearStep(module, in_slot, out_slot))
    return out_slot


@_expander(nn_modules.BatchNorm2d)
def _expand_batchnorm(module, ctx, in_slot):
    in_slot = ctx.read(in_slot, NHWC)
    out_slot = ctx.slot(ctx.shape(in_slot))
    ctx.add(BatchNormStep(module, in_slot, out_slot))
    return out_slot


def _expand_activation(module, ctx, in_slot):
    # A fresh output slot: the compiler cannot prove single-consumer
    # ownership of an arbitrary input slot, and the copy is cheap next to any
    # surrounding GEMM.  Sequentials fold activations into their producer
    # where they can (:func:`_fold_into`).
    in_slot = ctx.read(in_slot, NHWC)
    out_slot = ctx.slot(ctx.shape(in_slot))
    ctx.add(ActivationStep(_activation_kind(module), in_slot, out_slot))
    return out_slot


for _act_type in (nn_modules.ReLU, nn_modules.LeakyReLU, nn_modules.Tanh, nn_modules.Sigmoid):
    register_expander(_act_type, _expand_activation)


@_expander(nn_modules.Identity)
def _expand_identity(module, ctx, in_slot):
    return in_slot


@_expander(nn_modules.Flatten)
def _expand_flatten(module, ctx, in_slot):
    in_slot = ctx.read(in_slot, NCHW)
    shape = ctx.shape(in_slot)
    flat = int(np.prod(shape[1:]))
    out_slot = ctx.slot((shape[0], flat), view=True)
    ctx.add(FlattenStep(in_slot, out_slot))
    return out_slot


@_expander(nn_modules.Dropout)
def _expand_dropout(module, ctx, in_slot):
    if module.p <= 0.0:
        return in_slot
    # Plans outlive train/eval switches and training-mode dropout needs the
    # module's RNG stream, so stay faithful via the eager fallback (which
    # checks ``module.training`` at run time; inference rarely hits this).
    # Training plans cannot host the fallback: _emit_opaque raises there.
    return _emit_opaque(module, ctx, in_slot)


@_expander(nn_modules.MaxPool2d)
def _expand_maxpool(module, ctx, in_slot):
    return _emit_pool("max", module.kernel_size, module.stride, ctx, in_slot)


@_expander(nn_modules.AvgPool2d)
def _expand_avgpool(module, ctx, in_slot):
    return _emit_pool("avg", module.kernel_size, module.stride, ctx, in_slot)


def _emit_pool(mode, kernel, stride, ctx, in_slot):
    in_slot = ctx.read(in_slot, NCHW)
    n, c, h, w = ctx.shape(in_slot)
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    out_slot = ctx.slot((n, c, oh, ow), layout=NCHW)
    ctx.add(Pool2dStep(mode, kernel, stride, in_slot, out_slot))
    return out_slot


@_expander(nn_modules.GlobalAvgPool2d)
def _expand_gap(module, ctx, in_slot):
    in_slot = ctx.read(in_slot, NHWC)
    n, c = ctx.shape(in_slot)[:2]
    out_slot = ctx.slot((n, c))
    ctx.add(GlobalAvgPoolStep(in_slot, out_slot))
    return out_slot


def _fold_into(step, layer, ctx):
    """Fold ``layer`` into ``step``, the inference step that wrote its input.

    A ``BatchNorm2d`` folds into a bare conv, an activation into a conv,
    linear or batch-norm step that has none yet.  Returns whether it did.
    """
    if ctx.train:
        return False
    if isinstance(layer, nn_modules.BatchNorm2d):
        fits = (
            isinstance(step, Conv2dStep)
            and step.bn is None
            and step.activation is None
            and step.res_slot is None
        )
        if fits:
            step.bn = layer
        return fits
    kind = _activation_kind(layer)
    fits = (
        kind is not None
        and isinstance(step, (Conv2dStep, LinearStep, BatchNormStep))
        and step.activation is None
    )
    if fits:
        step.activation = kind
    return fits


@_expander(nn_modules.Sequential)
def _expand_sequential(module, ctx, in_slot):
    slot = in_slot
    last = None  # the step the previous layer emitted last, if it wrote `slot`
    for layer in module:
        if last is not None and _fold_into(last, layer, ctx):
            continue
        count = len(ctx.plan.steps)
        slot = ctx.emit(layer, slot)
        steps = ctx.plan.steps
        last = steps[-1] if len(steps) > count and step_writes(steps[-1]) == [slot] else None
    return slot


# --------------------------------------------------------------------------- #
# Composite blocks
# --------------------------------------------------------------------------- #
@_expander(nn_blocks.ConvBNReLU)
def _expand_conv_bn_relu(module, ctx, in_slot):
    return _emit_conv(
        module.conv,
        ctx,
        in_slot,
        bn=module.bn,
        activation=_activation_kind(module.act),
    )


def _emit_join(ctx, body, shortcut, activation=None):
    """``body += shortcut`` (then ``activation``), in place on the body slot.

    The body slot is owned by the calling block, so the join can write into
    it (or into its channels-last twin, which no later reader then reuses).
    In an inference plan, when the step emitted last is the bare conv that
    wrote the body, the join becomes that conv's residual epilogue: the
    shortcut was written before the conv runs, and nothing read the
    pre-join body.
    """
    body = ctx.read(body, NHWC)
    shortcut = ctx.read(shortcut, NHWC)
    steps = ctx.plan.steps
    conv = steps[-1] if steps else None
    if (
        not ctx.train
        and isinstance(conv, Conv2dStep)
        and conv.out_slot == body != shortcut
        and conv.branch == ctx.branch
        and conv.activation is None
        and conv.res_slot is None
    ):
        conv.res_slot = shortcut
        conv.activation = activation
        return body
    ctx.add(AddStep(body, shortcut, body, activation=activation))
    return body


@_expander(nn_blocks.BasicResBlock)
def _expand_basic_res_block(module, ctx, in_slot):
    body = ctx.emit(module.conv1, in_slot)
    body = ctx.emit(module.conv2, body)
    shortcut = ctx.emit(module.shortcut, in_slot)
    return _emit_join(ctx, body, shortcut, _activation_kind(module.act))


@_expander(nn_blocks.InvertedResidual)
def _expand_inverted_residual(module, ctx, in_slot):
    body = ctx.emit(module.body, in_slot)
    if module.use_residual:
        body = _emit_join(ctx, body, in_slot)
    return body


@_expander(nn_blocks.SkipConnection)
def _expand_skip(module, ctx, in_slot):
    return ctx.emit(module.op, in_slot)


# --------------------------------------------------------------------------- #
# Backbones and agents (registered lazily to avoid import cycles)
# --------------------------------------------------------------------------- #
def _register_network_expanders():
    from ..drl.agent import ActorCriticAgent
    from ..networks.resnet import ResNet
    from ..networks.supernet import AgentSuperNet, DerivedAgentNet
    from ..networks.vanilla import VanillaNet

    if VanillaNet in _EXPANDERS:
        return

    @_expander(VanillaNet)
    def _expand_vanilla(module, ctx, in_slot):
        slot = in_slot
        for conv in (module.conv1, module.conv2, module.conv3):
            slot = _emit_conv(conv, ctx, slot, activation="relu")
        slot = ctx.emit(module.flatten, slot)
        out_slot = ctx.slot((ctx.shape(slot)[0], module.fc.out_features))
        ctx.add(LinearStep(module.fc, slot, out_slot, activation="relu"))
        return out_slot

    @_expander(ResNet)
    def _expand_resnet(module, ctx, in_slot):
        slot = ctx.emit(module.stem, in_slot)
        slot = ctx.emit(module.stages, slot)
        slot = ctx.emit(module.pool, slot)
        out_slot = ctx.slot((ctx.shape(slot)[0], module.fc.out_features))
        ctx.add(LinearStep(module.fc, slot, out_slot, activation="relu"))
        return out_slot

    @_expander(DerivedAgentNet)
    def _expand_derived(module, ctx, in_slot):
        slot = ctx.emit(module.stem, in_slot)
        slot = ctx.emit(module.ops, slot)
        slot = ctx.emit(module.pool, slot)
        out_slot = ctx.slot((ctx.shape(slot)[0], module.fc.out_features))
        ctx.add(LinearStep(module.fc, slot, out_slot, activation="relu"))
        return out_slot

    @_expander(AgentSuperNet)
    def _expand_supernet(module, ctx, in_slot):
        if ctx.gated is not None:
            ctx.gated_consumed = True
            gated = ctx.gated
        elif ctx.path is not None:
            # A sampled path is the all-candidate plan with one branch per
            # cell selected (at gate 1): every path shares one compile.
            if len(ctx.path) != module.num_cells:
                raise CompileError(
                    "expected {} op indices, got {}".format(module.num_cells, len(ctx.path))
                )
            if any(not 0 <= i < cell.num_choices for cell, i in zip(module.cells, ctx.path)):
                raise CompileError("op index out of range in path {}".format(ctx.path))
            ctx.path_consumed = True
            gated = ALL_CANDIDATES
        else:
            raise CompileError(
                "AgentSuperNet requires a fixed path (op_indices) or per-cell "
                "active paths (gated_paths) to compile"
            )
        if gated == ALL_CANDIDATES:
            gated = tuple(tuple(range(cell.num_choices)) for cell in module.cells)
        return _expand_supernet_gated(module, ctx, in_slot, gated)

    def _expand_supernet_gated(module, ctx, in_slot, gated):
        """Multi-path (gate-weighted) expansion of the listed candidates.

        Each candidate expands into its own channels-last branch slots, and
        every step it emits is tagged with its ``(cell, candidate)`` branch;
        a :class:`GateCombineStep` sums the branches a run selects with
        per-run gate values, in the same left-to-right order as the eager
        gated forward.
        """
        if len(gated) != module.num_cells:
            raise CompileError(
                "expected {} active-path tuples, got {}".format(module.num_cells, len(gated))
            )
        ctx.plan.set_gate_layout(gated)
        slot = ctx.emit(module.stem, in_slot)
        for cell_index, (cell, active) in enumerate(zip(module.cells, gated)):
            if not active:
                raise CompileError("at least one path must be active per cell")
            branches = []
            for i in active:
                ctx.branch = (cell_index, int(i))
                branches.append(ctx.read(ctx.emit(cell.candidates[int(i)], slot), NHWC))
            ctx.branch = None
            out_slot = ctx.slot(ctx.shape(branches[0]))
            ctx.add(GateCombineStep(cell_index, branches, out_slot, active))
            slot = out_slot
        slot = ctx.emit(module.pool, slot)
        out_slot = ctx.slot((ctx.shape(slot)[0], module.fc.out_features))
        ctx.add(LinearStep(module.fc, slot, out_slot, activation="relu"))
        return out_slot

    @_expander(ActorCriticAgent)
    def _expand_agent(module, ctx, in_slot):
        features = ctx.emit(module.backbone, in_slot)
        n = ctx.shape(features)[0]
        logits = ctx.slot((n, module.num_actions))
        ctx.add(LinearStep(module.policy_head, features, logits))
        probs = ctx.slot((n, module.num_actions))
        ctx.add(SoftmaxStep(logits, probs))
        value_col = ctx.slot((n, 1))
        ctx.add(LinearStep(module.value_head, features, value_col))
        value = ctx.slot((n,), view=True)
        ctx.add(ReshapeStep(value_col, value, ()))
        ctx.agent_outputs = (probs, value)
        ctx.agent_slots = {
            "features": features,
            "logits": logits,
            "probs": probs,
            "value_col": value_col,
            "value": value,
        }
        return features


def compile_plan(module, input_shape, dtype=np.float64, path=None, train=False, gated_paths=None,
                 pool=None, passes=None, quantize=None):
    """Compile ``module`` for a concrete ``input_shape`` into a ready :class:`Plan`.

    Parameters
    ----------
    module:
        Any :class:`repro.nn` module with a registered expander (backbones,
        agents, blocks); unknown modules run via the eager fallback.
    input_shape:
        Full input shape including the batch dimension.
    dtype:
        Compute dtype of every buffer; ``np.float64`` matches the autograd
        engine to a few ulps, ``np.float32`` is the fast path.
    path:
        Operator index per cell when compiling a sampled supernet path.  The
        plan holds every candidate branch with this path selected (gate 1);
        :meth:`Plan.set_path` re-selects another path without recompiling.
    train:
        Also build the reverse-mode program (gradient buffers + per-step
        VJPs).  Modules the runtime cannot differentiate (opaque fallbacks,
        active dropout) raise :class:`CompileError` so callers fall back to
        the eager tape.
    gated_paths:
        Per-cell tuples of the candidate indices to compile for a gated
        (multi-path backward) supernet expansion, or :data:`ALL_CANDIDATES`
        for every candidate of every cell.  Gate *values* (one Gumbel
        sample's, one per selected candidate), and the subset of compiled
        branches each run executes, are provided per run via
        :meth:`Plan.set_gates`.
    pool:
        Optional :class:`~repro.runtime.plan.BufferPool` the plan draws its
        buffers from (and releases them to); engines that recompile often use
        one so fresh plans touch warm pages.
    passes:
        Optimisation-pass selection forwarded to
        :func:`repro.runtime.passes.enabled_passes` (``None`` reads the
        ``REPRO_RUNTIME_PASSES`` environment variable; default: all passes).
    quantize:
        A :class:`~repro.runtime.quantize.QuantCalibration` (or an iterable
        of them) enabling the ``quantize`` pass for inference plans.  The
        first calibration matching this compile's ``(input_shape, path,
        dtype)`` signature is used; no match (or a training compile) leaves
        the plan float.  The pass itself must also be enabled via
        ``passes`` / ``REPRO_RUNTIME_PASSES`` (it is, by default).

    Returns
    -------
    plan:
        A finalised :class:`Plan`.  For :class:`ActorCriticAgent` modules the
        plan outputs ``(probs, values)`` and ``plan.named_slots`` maps
        ``features / logits / probs / value_col / value`` to their slots.
    """
    _register_network_expanders()
    enabled = enabled_passes(passes)
    plan = Plan(dtype=dtype, train=train, pool=pool)
    plan.trace_name = "plan/{}[{},{},n{}]".format(
        type(module).__name__,
        np.dtype(dtype).name,
        "train" if train else "infer",
        input_shape[0],
    )
    trace.begin("compile/" + type(module).__name__, "compile")
    try:
        return _compile_plan_body(
            module, input_shape, dtype, path, gated_paths, plan, quantize, enabled,
        )
    finally:
        trace.end()


def _compile_plan_body(module, input_shape, dtype, path, gated_paths, plan, quantize, enabled):
    if gated_paths is not None and not isinstance(gated_paths, str):
        gated_paths = tuple(tuple(int(i) for i in cell) for cell in gated_paths)
    elif gated_paths not in (None, ALL_CANDIDATES):
        raise CompileError("unknown gated_paths {!r}".format(gated_paths))
    ctx = CompileContext(
        plan,
        path=tuple(int(i) for i in path) if path is not None else None,
        gated=gated_paths,
    )
    input_slot = plan.new_slot(input_shape)
    plan.input_slot = input_slot  # its transposed twins need no gradient
    out_slot = ctx.read(ctx.emit(module, input_slot), NCHW)
    if ctx.path is not None and not ctx.path_consumed:
        # Mirror the eager path, where forwarding op_indices to a module that
        # does not take them raises: silently ignoring the path would serve
        # wrong-but-plausible results (and cache one plan per ignored path).
        raise CompileError(
            "{} does not take a path (op_indices)".format(type(module).__name__)
        )
    if ctx.gated is not None and not ctx.gated_consumed:
        raise CompileError(
            "{} does not take gated paths (gates)".format(type(module).__name__)
        )
    outputs = getattr(ctx, "agent_outputs", None) or (out_slot,)
    plan.named_slots = dict(getattr(ctx, "agent_slots", {}))
    protected = {input_slot}
    protected.update(outputs)
    protected.update(plan.named_slots.values())
    calibration = None
    if quantize is not None and not plan.train:
        from .quantize import QuantCalibration

        candidates = (
            (quantize,) if isinstance(quantize, QuantCalibration) else tuple(quantize)
        )
        for cand in candidates:
            if cand.matches(input_shape, path, dtype):
                calibration = cand
                break
    run_passes(
        plan,
        PassContext(protected_slots=protected, quantize=calibration),
        enabled=enabled,
    )
    plan.finalize(input_slot, outputs)
    if ctx.path_consumed:
        plan.set_path(ctx.path)
    return plan

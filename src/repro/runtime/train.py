"""Compiled training runtime: reverse-mode plans + fused optimiser steps.

:class:`CompiledTrainStep` is the facade the trainers route their gradient
updates through.  One call executes the whole actor-critic train step of
Eq. 12 without ever touching the autograd tape:

1. the agent's forward plan runs on the rollout batch (training-mode batch
   norm included), leaving every intermediate activation in the plan's slot
   buffers;
2. the loss head — policy gradient, value regression, entropy, and the
   optional AC-distillation terms — is evaluated in closed form on the
   ``logits`` / ``probs`` / ``value`` buffers, producing both the scalar
   components (for logging) and the exact seed gradients ``dL/d logits`` and
   ``dL/d value``;
3. the reverse-mode program (the forward steps, reversed) pushes those seeds
   through per-op VJPs into pre-allocated parameter-gradient accumulators —
   convolution VJPs dispatch through the same :mod:`repro.runtime.kernels`
   registry as the forward pass (the bound kernel keeps the saved state its
   backward contracts against);
4. the fused optimiser stage (:meth:`repro.nn.optim.Optimizer.apply_gradients`)
   applies global-norm clipping and the RMSProp update in place on the
   parameter arrays, reusing one scratch buffer instead of materialising
   intermediate tensors.

Plans are cached per ``(batch shape, supernet or not)`` signature, so
steady-state A2C training compiles exactly once, and so does supernet
co-search: its plan holds every candidate branch of every cell, and each
update's sampled path or gated active set (one Gumbel sample) only selects
which branches run (:meth:`~repro.runtime.plan.Plan.set_gates`).

Anything the compiler cannot differentiate (opaque modules, active dropout)
raises :class:`~repro.runtime.compiler.CompileError`, and every caller keeps
the eager tape as the always-available reference path.
"""

from __future__ import annotations

import numpy as np

from ..reliability import health
from ..reliability.faults import get_injector
from ..telemetry import trace
from .compiler import ALL_CANDIDATES, CompileError, compile_plan
from .engine import PlanCache

__all__ = ["CompiledTrainStep", "TrainStepResult", "TaskLossWeights", "DEFAULT_LOSS_WEIGHTS"]


class TaskLossWeights:
    """Weights ``beta1, beta2, beta3`` of Eq. 12 (paper defaults from Sec. V-A).

    Defined in the runtime, whose closed-form loss head reads them, so the
    runtime never imports the drl layer (which imports the runtime);
    :mod:`repro.drl.losses` re-exports it.
    """

    def __init__(self, entropy=1e-2, actor_distill=1e-1, critic_distill=1e-3):
        self.entropy = float(entropy)
        self.actor_distill = float(actor_distill)
        self.critic_distill = float(critic_distill)

    def __repr__(self):
        return "TaskLossWeights(entropy={}, actor_distill={}, critic_distill={})".format(
            self.entropy, self.actor_distill, self.critic_distill
        )


DEFAULT_LOSS_WEIGHTS = TaskLossWeights()


class TrainStepResult:
    """Outcome of one compiled train step.

    Attributes
    ----------
    total:
        Scalar value of the combined task loss (Eq. 12).
    components:
        ``{"policy", "value", "entropy"[, "actor_distill", "critic_distill"]}``
        scalar loss terms, matching what the eager path logs.
    grad_norm:
        Pre-clipping global gradient norm (``None`` until the optimiser
        stage ran).
    gate_grads:
        For gated supernet steps: per-cell arrays of ``dL/d gate`` aligned
        with :attr:`gate_layout` (shape ``(num_active,)``), for the caller
        to chain through the Gumbel relaxation onto alpha.  ``None``
        otherwise.
    gate_layout:
        The per-cell active-candidate tuples of the step (the requested
        ``gated_paths``).
    skipped:
        True when the non-finite guard suppressed the optimiser stage: the
        loss or the global gradient norm was NaN/Inf, so no parameter (or
        optimiser state) was touched.  The scalar losses and ``grad_norm``
        still report the poisoned values for logging.
    """

    __slots__ = ("total", "components", "grad_norm", "gate_grads", "gate_layout", "skipped")

    def __init__(self, total, components, grad_norm=None, gate_grads=None, gate_layout=None,
                 skipped=False):
        self.total = total
        self.components = components
        self.grad_norm = grad_norm
        self.gate_grads = gate_grads
        self.gate_layout = gate_layout
        self.skipped = skipped


class CompiledTrainStep:
    """Tape-free train-step executor for one actor-critic agent.

    A gated supernet step runs one Gumbel sample: one active set and one
    gate value per active candidate and cell.  Searches that average K > 1
    samples per update run them on the eager tape
    (:meth:`repro.nas.search.DRLArchitectureSearch._eager_update`).

    Parameters
    ----------
    agent:
        An :class:`~repro.drl.agent.ActorCriticAgent` (anything whose
        compiled plan exposes ``logits`` / ``probs`` / ``value`` slots).
    optimizer:
        The :class:`~repro.nn.optim.Optimizer` owning the agent's parameters.
        Its state is shared with the eager path, so compiled and eager steps
        can be freely interleaved.
    dtype:
        Compute dtype of the plans.  ``np.float64`` (this class's default)
        matches the autograd engine's gradients to ~1e-12; ``np.float32`` is
        the fast path, and the trainers' default
        (:attr:`repro.drl.loop.TrainLoopConfig.compiled_train_dtype`).
    max_plans:
        LRU bound on cached ``(shape, supernet)`` signatures.  Training
        plans own gradient buffers too, so the bound is deliberately small;
        evicted plans release their buffers into the
        :class:`~repro.runtime.engine.PlanCache`'s pool, which later
        compiles reuse.
    """

    def __init__(self, agent, optimizer=None, dtype=np.float64, max_plans=2):
        self.agent = agent
        self.optimizer = optimizer
        self.dtype = np.dtype(dtype)
        self.plans = PlanCache("train_plans", max_plans)

    # ------------------------------------------------------------------ #
    # Plan cache
    # ------------------------------------------------------------------ #
    def plan_for(self, input_shape, path=None, gated_paths=None):
        """Fetch (or compile) the training plan for one signature.

        A sampled ``path`` or ``gated_paths`` only marks the agent as a
        supernet: every path shares one plan holding all candidate branches,
        and :meth:`compute_gradients` selects the branches per call.
        """
        supernet = path is not None or gated_paths is not None
        key = (tuple(input_shape), supernet)
        return self.plans.get(key, lambda: self._compile(key))

    def _compile(self, key):
        shape, supernet = key
        plan = compile_plan(
            self.agent,
            shape,
            dtype=self.dtype,
            train=True,
            gated_paths=ALL_CANDIDATES if supernet else None,
            pool=self.plans.pool,
        )
        if "logits" not in plan.named_slots:
            plan.release()
            raise CompileError(
                "compiled module exposes no policy/value heads; "
                "CompiledTrainStep requires an actor-critic agent"
            )
        return plan

    def invalidate(self):
        """Drop every compiled plan (e.g. after structural module surgery)."""
        self.plans.invalidate()

    @property
    def num_plans(self):
        """Number of currently cached compiled training plans."""
        return len(self.plans)

    # ------------------------------------------------------------------ #
    # Forward + loss head + backward
    # ------------------------------------------------------------------ #
    def compute_gradients(
        self,
        observations,
        actions,
        returns,
        advantages,
        weights=None,
        teacher_probs=None,
        teacher_values=None,
        op_indices=None,
        gated_paths=None,
        gate_values=None,
    ):
        """Run forward, evaluate the loss head, and fill the gradient buffers.

        Parameters mirror the eager update: ``returns`` / ``advantages`` are
        the rollout targets, ``teacher_probs`` enables the actor-distillation
        KL term and ``teacher_values`` the critic-distillation MSE term
        (pass ``None`` to disable either).  ``op_indices`` selects a sampled
        supernet path; ``gated_paths`` (per-cell active candidates) +
        ``gate_values`` (one Gumbel sample's, a ``(num_active,)`` array per
        cell) select a gated multi-path-backward expansion.  Either way the
        plan runs only the selected branches, and their parameters alone get
        gradients.

        Returns ``(plan, result)``: ``plan.param_grad(param)`` holds each
        parameter's gradient (``None`` for unselected branches), the result
        the scalar losses (and gate grads, aligned with ``gated_paths``).
        """
        obs = np.asarray(observations)
        path = tuple(int(i) for i in op_indices) if op_indices is not None else None
        gated = (
            tuple(tuple(int(i) for i in cell) for cell in gated_paths)
            if gated_paths is not None
            else None
        )
        plan = self.plan_for(obs.shape, path=path, gated_paths=gated)
        if gated is not None:
            plan.set_gates(gate_values, active=gated)
        elif path is not None:
            plan.set_path(path)
        trace.begin("train/forward", "train")
        plan.run(obs)
        trace.end()

        trace.begin("train/loss_head", "train")
        weights = weights if weights is not None else DEFAULT_LOSS_WEIGHTS
        dtype = plan.dtype
        slots = plan.named_slots
        logits = plan.bufs[slots["logits"]]
        probs = plan.bufs[slots["probs"]]
        values = plan.bufs[slots["value"]]
        actions = np.asarray(actions, dtype=np.int64)
        adv = np.asarray(advantages, dtype=dtype)
        ret = np.asarray(returns, dtype=dtype)
        batch = logits.shape[0]
        idx = np.arange(batch)

        # Stable log-softmax, mirroring nn.functional.log_softmax numerics.
        logp = logits - logits.max(axis=-1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))

        # Eq. 13: policy gradient with detached advantages.
        policy_loss = -float((adv * logp[idx, actions]).mean())
        dlogits = probs * adv[:, None]
        dlogits[idx, actions] -= adv

        # Eq. 14: value regression onto bootstrapped returns.
        vdiff = values - ret
        value_loss = 0.5 * float((vdiff * vdiff).mean())
        dvalue = vdiff.copy()

        # Eq. 15: negative entropy (positive beta encourages exploration).
        neg_entropy = (probs * logp).sum(axis=-1)
        entropy_loss = float(neg_entropy.mean())
        dlogits += weights.entropy * (probs * (logp - neg_entropy[:, None]))

        total = policy_loss + value_loss + weights.entropy * entropy_loss
        components = {
            "policy": policy_loss,
            "value": value_loss,
            "entropy": entropy_loss,
        }
        if teacher_probs is not None:
            # Eq. 10: KL(teacher || student) with the teacher detached.
            teacher = np.asarray(teacher_probs, dtype=dtype)
            teacher_log = np.log(np.clip(teacher, 1e-12, None))
            actor_distill = float(((teacher * (teacher_log - logp)).sum(axis=-1)).mean())
            total += weights.actor_distill * actor_distill
            dlogits += weights.actor_distill * (probs - teacher)
            components["actor_distill"] = actor_distill
        if teacher_values is not None:
            # Eq. 11: value MSE onto the (detached) teacher critic.
            teacher_v = np.asarray(teacher_values, dtype=dtype)
            cdiff = values - teacher_v
            critic_distill = 0.5 * float((cdiff * cdiff).mean())
            total += weights.critic_distill * critic_distill
            dvalue += weights.critic_distill * cdiff
            components["critic_distill"] = critic_distill
        dlogits /= batch
        dvalue /= batch
        trace.end()

        trace.begin("train/backward", "train")
        plan.zero_grads()
        plan.seed_grad(slots["logits"], dlogits)
        plan.seed_grad(slots["value_col"], dvalue[:, None])
        plan.run_backward()
        trace.end()

        gate_grads = None
        if gated is not None:
            gate_grads = [
                grads[list(positions)]
                for grads, positions in zip(plan.gate_grads, plan.active_positions)
            ]
        return plan, TrainStepResult(
            float(total), components, gate_grads=gate_grads, gate_layout=gated
        )

    # ------------------------------------------------------------------ #
    # Full step (gradients + fused optimiser stage)
    # ------------------------------------------------------------------ #
    def step(self, observations, actions, returns, advantages, max_grad_norm=None, **kwargs):
        """One complete update: gradients + clipped fused optimiser step.

        Returns a :class:`TrainStepResult` with ``grad_norm`` populated.  A
        non-finite loss or gradient norm trips the guard instead of poisoning
        the parameters: the optimiser stage is suppressed, ``result.skipped``
        is set, and the ``guard_trips`` health counter is bumped (the caller
        decides whether a streak of trips warrants a checkpoint rollback).
        """
        if self.optimizer is None:
            raise RuntimeError("CompiledTrainStep.step requires an optimizer")
        with trace.span("train/step", "train"):
            return self._step_body(
                observations, actions, returns, advantages, max_grad_norm, kwargs
            )

    def _step_body(self, observations, actions, returns, advantages, max_grad_norm, kwargs):
        plan, result = self.compute_gradients(
            observations, actions, returns, advantages, **kwargs
        )
        grads = [plan.param_grad(param) for param in self.optimizer.parameters]
        injector = get_injector()
        if injector is not None and injector.should_fire("nan_grad"):
            for grad in grads:
                if grad is not None:
                    grad.flat[0] = np.nan
                    break
        if not np.isfinite(result.total):
            # Loss already diverged: don't touch the parameters at all.  The
            # norm is still computed (skip_nonfinite suppresses the apply on
            # its own when only the grads are poisoned).
            result.grad_norm = float(
                np.sqrt(sum(float(np.vdot(g, g)) for g in grads if g is not None))
            )
            result.skipped = True
        else:
            with trace.span("train/optim", "train"):
                result.grad_norm = self.optimizer.apply_gradients(
                    grads, max_norm=max_grad_norm, skip_nonfinite=True
                )
            result.skipped = not np.isfinite(result.grad_norm)
        if result.skipped:
            health.record("guard_trips")
        return result

    def __repr__(self):
        return "CompiledTrainStep({}, dtype={}, plans={})".format(
            type(self.agent).__name__, self.dtype.name, len(self.plans)
        )

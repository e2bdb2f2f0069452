"""The AC-distillation mechanism of A3C-S (paper Sec. IV-B, Eq. 10-11).

Vanilla policy distillation [22] only matches the student policy to a teacher
policy.  The paper's contribution is to additionally distil the *critic*: the
student value function is regressed (MSE) onto the teacher's value estimates,
which further reduces gradient variance and stabilises the DNAS search.

Three distillation modes are exposed, matching the Table II ablation:

* ``"none"``             — no distillation terms,
* ``"policy"``           — actor (KL) distillation only,
* ``"ac"`` (the paper's) — actor KL + critic MSE distillation.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn import functional as F
from ..runtime import RuntimePolicy

__all__ = ["DistillationMode", "ACDistiller", "actor_distillation_loss", "critic_distillation_loss"]


class DistillationMode:
    """String constants for the three Table II distillation strategies."""

    NONE = "none"
    POLICY_ONLY = "policy"
    AC = "ac"

    ALL = (NONE, POLICY_ONLY, AC)

    @staticmethod
    def validate(mode):
        """Return ``mode`` if it is a known strategy, raise otherwise."""
        if mode not in DistillationMode.ALL:
            raise ValueError(
                "unknown distillation mode {!r}; expected one of {}".format(mode, DistillationMode.ALL)
            )
        return mode


def actor_distillation_loss(teacher_probs, student_log_probs):
    """Eq. 10: KL(teacher policy || student policy), teacher treated as constant."""
    return F.kl_divergence(teacher_probs, student_log_probs, reduction="mean")


def critic_distillation_loss(student_values, teacher_values):
    """Eq. 11: ``E[ 0.5 (V_student(s) - V_teacher(s))^2 ]``, teacher detached."""
    teacher = np.asarray(
        teacher_values.data if isinstance(teacher_values, Tensor) else teacher_values,
        dtype=student_values.dtype,
    )
    diff = student_values - Tensor(teacher)
    return (diff * diff).mean() * 0.5


class ACDistiller:
    """Computes the distillation terms of Eq. 12 from a frozen teacher agent.

    Parameters
    ----------
    teacher:
        A trained :class:`~repro.drl.agent.ActorCriticAgent` (the paper uses a
        ResNet-20 teacher).  Its parameters are never updated here.
    mode:
        One of :class:`DistillationMode` (``"none"``, ``"policy"``, ``"ac"``).
    dtype:
        Compute dtype of the teacher targets: the training loop passes the
        dtype its student trains at, so the targets reach the compiled loss
        head without a cast.  The teacher's own ``runtime_dtype`` is left as
        it is: the targets run on the distiller's own runtime.
    """

    def __init__(self, teacher, mode=DistillationMode.AC, dtype=np.float32):
        self.teacher = teacher
        self.mode = DistillationMode.validate(mode)
        self.dtype = np.dtype(dtype)
        self._runtime = None
        if teacher is not None:
            self.teacher.eval()

    @property
    def enabled(self):
        """Whether any distillation term is active."""
        return self.mode != DistillationMode.NONE and self.teacher is not None

    def teacher_targets(self, observations):
        """Run the frozen teacher on a batch of observations.

        The teacher is pure inference (its parameters are never updated), so
        this runs on the distiller's own tape-free runtime policy at
        :attr:`dtype`; the eager forward serves a teacher built without the
        runtime, or one the runtime cannot compile.

        Returns
        -------
        probs, values:
            NumPy arrays (in :attr:`dtype`) of the teacher's action
            distribution and value estimates (no gradients are recorded).
        """
        if not self.enabled:
            return None, None
        if self._runtime is None and self.teacher.use_runtime:
            self._runtime = RuntimePolicy(self.teacher, dtype=self.dtype)
        probs, values = self.teacher.policy_value(observations, runtime=self._runtime)
        return probs.astype(self.dtype, copy=False), values.astype(self.dtype, copy=False)

    def losses(self, observations, student_output, teacher_probs=None, teacher_values=None):
        """Compute ``(actor_distill_loss, critic_distill_loss)`` tensors.

        Either of the returned values is ``None`` when the corresponding term
        is disabled by the distillation mode.  Pre-computed teacher targets may
        be passed to avoid a second teacher forward pass.
        """
        if not self.enabled:
            return None, None
        if teacher_probs is None or teacher_values is None:
            teacher_probs, teacher_values = self.teacher_targets(observations)
        actor_loss = actor_distillation_loss(Tensor(teacher_probs), student_output.log_probs)
        if self.mode == DistillationMode.POLICY_ONLY:
            return actor_loss, None
        critic_loss = critic_distillation_loss(student_output.value, teacher_values)
        return actor_loss, critic_loss

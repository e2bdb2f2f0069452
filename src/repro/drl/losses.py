"""The actor-critic task loss of the paper (Eq. 12-15).

``L_task = L_policy + L_value + beta1 * L_entropy
          + beta2 * L_distill_actor + beta3 * L_distill_critic``

* ``L_policy``  (Eq. 13): policy-gradient loss weighted by the td-error.
* ``L_value``   (Eq. 14): squared td-error of the value function.
* ``L_entropy`` (Eq. 15): *positive* sum of ``pi log pi`` (i.e. negative
  entropy), so adding it with a positive ``beta1`` encourages exploration.
* The two distillation terms are implemented in
  :mod:`repro.drl.distillation` and passed in pre-computed.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..runtime.train import TaskLossWeights

__all__ = ["policy_gradient_loss", "value_loss", "entropy_loss", "TaskLossWeights", "combine_task_loss"]


def policy_gradient_loss(chosen_log_probs, advantages):
    """Eq. 13: ``-E[ delta_t * log pi(a_t|s_t) ]`` with detached advantages."""
    advantages = np.asarray(advantages, dtype=np.float64)
    return -(chosen_log_probs * Tensor(advantages)).mean()


def value_loss(values, returns):
    """Eq. 14: ``E[ 0.5 * (R_t - V(s_t))^2 ]`` against bootstrapped returns."""
    returns = np.asarray(returns, dtype=np.float64)
    diff = values - Tensor(returns)
    return (diff * diff).mean() * 0.5


def entropy_loss(probs, log_probs):
    """Eq. 15: ``E[ sum_a pi log pi ]`` (the negative entropy)."""
    return (probs * log_probs).sum(axis=-1).mean()


def combine_task_loss(policy, value, entropy, actor_distill=None, critic_distill=None, weights=None):
    """Assemble Eq. 12 from its already-computed components.

    ``actor_distill`` / ``critic_distill`` may be ``None`` (no-distillation and
    policy-only-distillation ablations of Table II).
    """
    weights = weights if weights is not None else TaskLossWeights()
    total = policy + value + entropy * weights.entropy
    if actor_distill is not None:
        total = total + actor_distill * weights.actor_distill
    if critic_distill is not None:
        total = total + critic_distill * weights.critic_distill
    return total

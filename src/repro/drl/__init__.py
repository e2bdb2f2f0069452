"""Actor-critic deep reinforcement learning: agents, A2C training, distillation."""

from .a2c import A2CConfig, A2CTrainer
from .agent import ActorCriticAgent, PolicyOutput
from .distillation import ACDistiller, DistillationMode, actor_distillation_loss, critic_distillation_loss
from .evaluation import Evaluator, evaluate_agent
from .losses import (
    TaskLossWeights,
    combine_task_loss,
    entropy_loss,
    policy_gradient_loss,
    value_loss,
)
from .rollout import RolloutBuffer, RolloutCollector, compute_gae, compute_returns, compute_td_errors
from .teacher import make_agent, train_teacher

__all__ = [
    "ActorCriticAgent",
    "PolicyOutput",
    "A2CConfig",
    "A2CTrainer",
    "ACDistiller",
    "DistillationMode",
    "actor_distillation_loss",
    "critic_distillation_loss",
    "Evaluator",
    "evaluate_agent",
    "TaskLossWeights",
    "combine_task_loss",
    "entropy_loss",
    "policy_gradient_loss",
    "value_loss",
    "RolloutBuffer",
    "RolloutCollector",
    "compute_returns",
    "compute_td_errors",
    "compute_gae",
    "make_agent",
    "train_teacher",
]

"""Importable helpers for the serving suite (conftest fixtures wrap these)."""

import numpy as np

from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet

#: 16x16 frames keep the agent small, so the serving suite stays fast.
OBS_SHAPE = (2, 16, 16)
NUM_ACTIONS = 4
DERIVED_PATH = [4, 5, 6] * 4


def build_agent(seed=0):
    """A small derived agent in eval mode on the float32 runtime."""
    supernet = AgentSuperNet(
        in_channels=OBS_SHAPE[0],
        input_size=OBS_SHAPE[1],
        feature_dim=32,
        base_width=8,
        rng=np.random.default_rng(seed),
    )
    derived = supernet.derive(DERIVED_PATH)
    agent = ActorCriticAgent(
        derived,
        num_actions=NUM_ACTIONS,
        feature_dim=32,
        rng=np.random.default_rng(seed),
        runtime_dtype=np.float32,
    )
    agent.eval()
    return agent

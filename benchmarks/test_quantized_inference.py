"""Quantized inference: rollout-calibrated int8 vs the float32 runtime.

Records what the quantize pass costs in accuracy on the derived
inverted-residual agent.  Two agents with identical weights are compared:

* ``f32`` — the float32 runtime;
* ``q8``  — the same runtime with a rollout-harvested
  :class:`~repro.runtime.QuantCalibration` attached, lowering the eligible
  conv chains to int8 kernels with f32 boundary quantize/dequantize steps.

Three views are recorded:

* **score parity across the five game families** (paddle / shooter / maze /
  navigator / duel, one game each): per-episode scores at batch 1 with a
  per-family batch-1 calibration, asserting the quantized policy's mean
  score drifts by at most two standard deviations;
* **plan structure**: how many convs lowered to int8, how many boundary
  steps the pass paid, and the op class of each q8 signature (not the
  kernel serving it, which depends on whether the host builds the C
  library);
* **numerics**: the worst-case policy/value deviation on a live batch.

The speed of q8 rollouts and serving is measured by ``perfbench`` (see
``perfbench/README.md``), not here.
"""

import statistics

import numpy as np

from repro.drl import ActorCriticAgent, evaluate_agent
from repro.envs import make_vector_env
from repro.networks import AgentSuperNet
from repro.runtime import Calibrator
from repro.runtime.kernels import selection_table
from repro.runtime.plan import Conv2dStep, DequantizeStep, QuantizeStep

from conftest import run_once

GAME = "Breakout"  # the paddle env
NUM_ENVS = 16
OBS_SIZE = 32
FRAME_STACK = 2
OBS_SHAPE = (FRAME_STACK, OBS_SIZE, OBS_SIZE)

#: Derived architecture: inverted-residual-heavy, like the paper's searched agents.
DERIVED_PATH = [4, 5, 6, 4, 5, 6, 4, 5, 6, 4, 5, 6]

#: Worst acceptable |policy delta| on a live batch (q8 noise, probs in [0,1]).
PROB_TOLERANCE = 0.1

#: One representative game per arcade engine family.
FAMILY_GAMES = {
    "paddle": "Breakout",
    "shooter": "SpaceInvaders",
    "maze": "Alien",
    "navigator": "TimePilot",
    "duel": "Boxing",
}

SCORE_EPISODES = 20
MAX_EPISODE_STEPS = 120
CALIBRATION_STEPS = 25


def _build_agent():
    """The derived agent in eval mode on the float32 runtime."""
    supernet = AgentSuperNet(
        in_channels=FRAME_STACK,
        input_size=OBS_SIZE,
        feature_dim=128,
        base_width=16,
        rng=np.random.default_rng(0),
    )
    agent = ActorCriticAgent(
        supernet.derive(DERIVED_PATH),
        num_actions=6,
        feature_dim=128,
        rng=np.random.default_rng(0),
        runtime_dtype=np.float32,
    )
    agent.eval()
    return agent


def _calibrate(agent, game, batch, steps=CALIBRATION_STEPS):
    """Harvest a q8 calibration for ``batch``-sized inputs from a live rollout."""
    calibrator = Calibrator(agent, (batch,) + OBS_SHAPE, dtype=np.float32)
    env = make_vector_env(
        game, num_envs=batch, obs_size=OBS_SIZE, frame_stack=FRAME_STACK, seed=7
    )
    rng = np.random.default_rng(7)
    observations = env.reset(seed=7)
    for _ in range(steps):
        calibrator.observe(observations)
        actions, _ = agent.act(observations, rng)
        observations, _, _, _ = env.step(actions)
    env.close()
    return calibrator.result("q8")


def _plan_structure(agent):
    """Quantized/float conv counts and boundary steps of the batched plan."""
    plan = agent.runtime.plan_for((NUM_ENVS,) + OBS_SHAPE)
    convs = [s for s in plan.steps if isinstance(s, Conv2dStep)]
    return {
        "convs_quantized": sum(1 for s in convs if s.quant is not None),
        "convs_float": sum(1 for s in convs if s.quant is None),
        "quantize_steps": sum(1 for s in plan.steps if isinstance(s, QuantizeStep)),
        "dequantize_steps": sum(1 for s in plan.steps if isinstance(s, DequantizeStep)),
    }


def _episode_scores(agent, game, episodes):
    """Per-episode scores (each episode gets its own seed and NOOP start)."""
    return [
        evaluate_agent(
            agent,
            game,
            episodes=1,
            seed=seed,
            env_kwargs={"obs_size": OBS_SIZE, "frame_stack": FRAME_STACK},
            max_steps_per_episode=MAX_EPISODE_STEPS,
        )
        for seed in range(episodes)
    ]


def _score_parity(agents, episodes):
    """Five-family score comparison with a per-family batch-1 calibration."""
    rows = {}
    for family, game in FAMILY_GAMES.items():
        agents["q8"].runtime_quantize = None  # calibrate on the float path
        calibration = _calibrate(agents["q8"], game, batch=1)
        agents["q8"].runtime_quantize = [calibration]
        f32_scores = _episode_scores(agents["f32"], game, episodes)
        q8_scores = _episode_scores(agents["q8"], game, episodes)
        f32_std = statistics.pstdev(f32_scores)
        q8_std = statistics.pstdev(q8_scores)
        rows[family] = {
            "game": game,
            "episodes": episodes,
            "f32_mean": statistics.mean(f32_scores),
            "q8_mean": statistics.mean(q8_scores),
            "f32_std": f32_std,
            "q8_std": q8_std,
            "drift": statistics.mean(q8_scores) - statistics.mean(f32_scores),
            "tolerance_2sigma": 2.0 * max(f32_std, q8_std),
        }
    return rows


def measure(episodes):
    agents = {"f32": _build_agent(), "q8": _build_agent()}
    agents["q8"].runtime_quantize = [_calibrate(agents["q8"], GAME, batch=NUM_ENVS)]

    # Worst-case live-batch numerics between the two paths.
    env = make_vector_env(
        GAME, num_envs=NUM_ENVS, obs_size=OBS_SIZE, frame_stack=FRAME_STACK, seed=0
    )
    obs = env.reset(seed=3)
    env.close()
    f32_probs, f32_value = agents["f32"].policy_value(obs)
    q8_probs, q8_value = agents["q8"].policy_value(obs)
    numeric = {
        "prob_maxabs_diff": float(np.abs(q8_probs - f32_probs).max()),
        "value_maxabs_diff": float(np.abs(q8_value - f32_value).max()),
    }
    structure = _plan_structure(agents["q8"])

    op_classes = {
        signature: signature.partition(":")[0]
        for signature in sorted(selection_table())
        if "/q8" in signature
    }

    scores = _score_parity(agents, episodes)

    return {
        "config": {
            "game": GAME,
            "num_envs": NUM_ENVS,
            "obs_size": OBS_SIZE,
            "frame_stack": FRAME_STACK,
            "calibration_steps": CALIBRATION_STEPS,
            "score_episodes": episodes,
            "max_episode_steps": MAX_EPISODE_STEPS,
            "family_games": dict(FAMILY_GAMES),
        },
        "plan_structure": structure,
        "numeric_parity": numeric,
        "score_parity": scores,
        "quantized_op_classes": op_classes,
    }


def test_quantized_inference(benchmark, profile, save_result):
    episodes = max(SCORE_EPISODES, profile.eval_episodes)
    payload = run_once(benchmark, measure, episodes=episodes)
    save_result("quantized_inference", payload)

    structure = payload["plan_structure"]
    assert structure["convs_quantized"] > 0, "quantize pass lowered nothing"
    # Boundary steps must stay rare: int8 chains through consecutive convs,
    # not one quantize/dequantize pair per conv.
    assert (
        structure["quantize_steps"] + structure["dequantize_steps"]
        <= structure["convs_quantized"] // 4 + 4
    ), structure

    assert payload["numeric_parity"]["prob_maxabs_diff"] <= PROB_TOLERANCE

    for family, row in payload["score_parity"].items():
        drift = abs(row["drift"])
        assert drift <= row["tolerance_2sigma"] or drift == 0.0, (
            "{} ({}) quantized score drifted {:.2f} "
            "(2-sigma tolerance {:.2f}): {}".format(
                family, row["game"], drift, row["tolerance_2sigma"], row
            )
        )

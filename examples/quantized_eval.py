#!/usr/bin/env python
"""Quantized inference: calibrate from a rollout, then score int8 vs float32.

The runtime's quantized path needs activation ranges before it can lower
convolutions to int8 kernels, and the ranges that matter are the ones
the policy actually visits.  This example walks the full production recipe:

1. build a derived A3C-S agent (the supernet-derived single-path network),
2. harvest per-slot activation ranges with a :class:`repro.runtime.Calibrator`
   over a short on-policy rollout (one calibrator per batch shape the agent
   will compile),
3. attach the calibrations via ``agent.runtime_quantize`` and compare the
   quantized agent against the float32 baseline: episode scores, batched
   inference throughput, and which integer kernels the kernel rule picked.

Run:  python examples/quantized_eval.py
"""

import time

import numpy as np

from repro.drl import ActorCriticAgent, evaluate_agent
from repro.envs import make_vector_env
from repro.networks import AgentSuperNet
from repro.runtime import Calibrator
from repro.runtime.kernels import selection_table

GAME = "Breakout"
OBS_SIZE = 32
FRAME_STACK = 2
NUM_ENVS = 8
CALIBRATION_STEPS = 40
EVAL_EPISODES = 5
MAX_EPISODE_STEPS = 200
QUANT_MODE = "q8"
TIMED_BATCHES = 50

#: Inverted-residual-heavy derived architecture, like the paper's searched agents.
DERIVED_PATH = [4, 5, 6, 4, 5, 6, 4, 5, 6, 4, 5, 6]


def build_agent():
    supernet = AgentSuperNet(
        in_channels=FRAME_STACK,
        input_size=OBS_SIZE,
        feature_dim=128,
        base_width=16,
        rng=np.random.default_rng(0),
    )
    agent = ActorCriticAgent(
        supernet.derive(DERIVED_PATH), num_actions=6, feature_dim=128, rng=np.random.default_rng(0)
    )
    agent.eval()
    return agent


def calibrate(agent, steps=CALIBRATION_STEPS):
    """Run a short float rollout, feeding every observation batch to calibrators.

    Evaluation queries the agent at batch 1 while rollout collection queries
    it at batch ``NUM_ENVS``; each compiled signature needs a calibration for
    its own input shape, so two calibrators observe the same trajectory.
    """
    obs_shape = (FRAME_STACK, OBS_SIZE, OBS_SIZE)
    batched = Calibrator(agent, (NUM_ENVS,) + obs_shape, dtype=np.float32)
    single = Calibrator(agent, (1,) + obs_shape, dtype=np.float32)
    env = make_vector_env(
        GAME, num_envs=NUM_ENVS, obs_size=OBS_SIZE, frame_stack=FRAME_STACK, seed=0
    )
    rng = np.random.default_rng(0)
    observations = env.reset(seed=0)
    for _ in range(steps):
        batched.observe(observations)
        single.observe(observations[:1])
        actions, _ = agent.act(observations, rng)
        observations, _, _, _ = env.step(actions)
    env.close()
    return [batched.result(QUANT_MODE), single.result(QUANT_MODE)]


def batched_throughput(agent, observations, batches=TIMED_BATCHES):
    agent.policy_value(observations)  # compile outside the timer
    start = time.perf_counter()
    for _ in range(batches):
        agent.policy_value(observations)
    return batches * observations.shape[0] / (time.perf_counter() - start)


def main():
    print("=== Quantized inference on a derived A3C-S agent ===")
    agent = build_agent()
    agent.runtime_dtype = np.float32

    print("Calibrating {} from a {}-step rollout...".format(QUANT_MODE, CALIBRATION_STEPS))
    calibrations = calibrate(agent)
    for calibration in calibrations:
        print("  {!r}".format(calibration))

    env = make_vector_env(
        GAME, num_envs=NUM_ENVS, obs_size=OBS_SIZE, frame_stack=FRAME_STACK, seed=1
    )
    observations = env.reset(seed=1)
    env.close()
    eval_kwargs = dict(
        episodes=EVAL_EPISODES,
        seed=0,
        env_kwargs={"obs_size": OBS_SIZE, "frame_stack": FRAME_STACK},
        max_steps_per_episode=MAX_EPISODE_STEPS,
    )

    # Float32 baseline (quantization off: agent.runtime_quantize is None).
    f32_score = evaluate_agent(agent, GAME, **eval_kwargs)
    f32_sps = batched_throughput(agent, observations)

    # Quantized path: same agent, calibrations attached.
    agent.runtime_quantize = calibrations
    quant_score = evaluate_agent(agent, GAME, **eval_kwargs)
    quant_sps = batched_throughput(agent, observations)

    print("\nEpisode score  ({} episodes, {} steps max):".format(EVAL_EPISODES, MAX_EPISODE_STEPS))
    print("  float32 : {:8.2f}".format(f32_score))
    print("  {:7s} : {:8.2f}   (score delta {:+.2f})".format(QUANT_MODE, quant_score, quant_score - f32_score))
    print("Batched inference throughput (batch {}):".format(NUM_ENVS))
    print("  float32 : {:8.0f} obs/sec".format(f32_sps))
    print("  {:7s} : {:8.0f} obs/sec   ({:.2f}x)".format(QUANT_MODE, quant_sps, quant_sps / f32_sps))

    quant_rows = {
        signature: row
        for signature, row in selection_table().items()
        if "/{}".format(QUANT_MODE) in signature
    }
    print("Quantized kernel selections ({} signatures):".format(len(quant_rows)))
    for signature in sorted(quant_rows)[:6]:
        print("  {:60s} -> {}".format(signature, quant_rows[signature]["kernel"]))
    if len(quant_rows) > 6:
        print("  ... and {} more".format(len(quant_rows) - 6))

    # Detaching the calibrations restores the float path bit-for-bit.
    agent.runtime_quantize = None
    probs, _ = agent.policy_value(observations)
    print("Opt-out restores float32 inference: max prob {:.3f}".format(float(probs.max())))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Where did the milliseconds go?  Trace one rollout + one train step.

The compiled runtime makes rollouts fast, but "fast" is a single number —
this example turns it into an attribution.  It enables the span tracer
(:mod:`repro.telemetry.trace`), collects one traced rollout with a derived
A3C-S agent, runs one compiled A2C train step, and then:

1. prints the per-span **self-time table** (per-kernel, per-phase — the
   depthwise convs, the env stepping, the loss head, ...),
2. writes ``trace.json`` in Chrome trace-event format — open it at
   https://ui.perfetto.dev (or ``chrome://tracing``) to see the same data
   as a zoomable timeline,
3. prints the unified ``telemetry.snapshot()`` sources, showing the trace
   ring, plan caches, kernel selections and health counters in one view.

The first (untraced) rollout pays compilation so the traced one measures
steady-state execution, the same warm-up discipline
``perfbench/run.py`` uses before its measured window.

Run:  python examples/profile_rollout.py
"""

import json

import numpy as np

from repro import telemetry
from repro.drl import ActorCriticAgent
from repro.drl.rollout import RolloutCollector
from repro.envs import make_vector_env
from repro.networks import AgentSuperNet
from repro.nn import RMSProp
from repro.runtime.train import CompiledTrainStep
from repro.telemetry import trace

GAME = "Breakout"
OBS_SIZE = 32
FRAME_STACK = 2
NUM_ENVS = 4
ROLLOUT_LENGTH = 16
GAMMA = 0.99
TRACE_PATH = "trace.json"

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
        supernet.derive(DERIVED_PATH), num_actions=6, feature_dim=128,
        rng=np.random.default_rng(0),
    )
    agent.eval()
    agent.runtime_dtype = np.float32
    return agent


def main():
    agent = build_agent()
    env = make_vector_env(
        GAME, num_envs=NUM_ENVS, obs_size=OBS_SIZE, frame_stack=FRAME_STACK, seed=0
    )
    collector = RolloutCollector(env, ROLLOUT_LENGTH)
    rng = np.random.default_rng(0)
    policy = lambda observations: agent.act(observations, rng)  # noqa: E731
    train_step = CompiledTrainStep(
        agent, RMSProp(agent.parameters(), lr=1e-3), dtype=np.float32
    )

    # Warm-up pass: compile every plan and select its kernels now, so
    # the traced rollout measures steady-state execution, not compilation.
    buffer = collector.collect(policy, seed=0)
    _, bootstrap = agent.policy_value(collector.observations)
    batch = buffer.compute_targets(bootstrap, GAMMA)
    train_step.step(
        batch["observations"], batch["actions"], batch["returns"],
        batch["advantages"], max_grad_norm=0.5,
    )

    # The measured pass: one rollout + one train step under the tracer.
    trace.enable()
    trace.clear()
    buffer = collector.collect(policy)
    _, bootstrap = agent.policy_value(collector.observations)
    batch = buffer.compute_targets(bootstrap, GAMMA)
    train_step.step(
        batch["observations"], batch["actions"], batch["returns"],
        batch["advantages"], max_grad_norm=0.5,
    )
    trace.disable()

    report = telemetry.profile()
    print("Self-time profile of one traced rollout + one train step")
    print("({} env steps x {} envs, derived A3C-S agent, float32 runtime)".format(
        ROLLOUT_LENGTH, NUM_ENVS
    ))
    print()
    print(report.table(limit=25))

    trace.export_chrome(TRACE_PATH)
    with open(TRACE_PATH) as handle:
        num_events = len(json.load(handle)["traceEvents"])
    print()
    print("wrote {} ({} events) -- open at https://ui.perfetto.dev".format(
        TRACE_PATH, num_events
    ))

    snapshot = telemetry.snapshot()
    print()
    print("telemetry.snapshot() sources: {}".format(", ".join(sorted(snapshot))))
    print("  trace ring: {recorded} spans recorded, {dropped} dropped".format(
        **snapshot["trace"]
    ))
    print("  kernel signatures: {}".format(len(snapshot["plan_cache"]["kernels"])))
    print("  plan caches: {} inference hits, {} train hits".format(
        snapshot["plan_cache"]["inference_plans"]["cache_hits"],
        snapshot["plan_cache"]["train_plans"]["cache_hits"],
    ))
    env.close()


if __name__ == "__main__":
    main()

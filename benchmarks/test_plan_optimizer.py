"""Plan-optimizer passes: output parity, plan steps and peak plan memory.

Records what the graph-level optimisation passes (slot/workspace aliasing
— see ``repro.runtime.passes``) buy on the two plan classes the co-search
loop lives on:

* the **no-grad rollout plan** of a derived A3C-S agent (batch 16, float32
  and float64);
* the **gated training plan** of the supernet one-level update (float64),
  where the aliasing pass interval-shares the reverse program's gradient
  buffers.

Each plan is compiled with the passes off (``"none"``) and on (``"all"``).
Conv-BN folding and epilogue fusion are the compiler's, so both plans of a
pair run the same steps.  Acceptance: the passes preserve output parity
(<= 1e-6 f32 / 1e-12 f64), the rollout plan holds no residual-add or
batch-norm step (every join and BN rides its conv), and the passes cut peak
plan memory by >= 30%.

Conv dispatch follows the benchmarks' ``heuristic`` pin (``conftest.py``),
so both plans of a pair bind the same kernels.  Every value recorded here is
a deterministic count or a parity bound; the speed of the compiled plans is measured by
``perfbench`` (see ``perfbench/README.md``), not here.
"""

import numpy as np

from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.runtime import compile_plan
from repro.runtime.plan import AddStep, BatchNormStep

from conftest import run_once

NUM_ENVS = 16
OBS_SHAPE = (2, 32, 32)
PARITY_F32 = 1e-6
PARITY_F64 = 1e-12
REQUIRED_MEMORY_REDUCTION = 0.30

#: Derived architecture: inverted-residual-heavy, like the paper's searched agents.
DERIVED_PATH = [4, 5, 6, 4, 5, 6, 4, 5, 6, 4, 5, 6]
#: Two candidate ops kept per gated cell in the one-level search update.
GATED_PATHS = tuple((1, 4) for _ in range(12))


def _agent(derived):
    """The derived agent in eval mode, or the supernet agent in train mode."""
    supernet = AgentSuperNet(in_channels=2, input_size=32, feature_dim=128, base_width=16,
                             rng=np.random.default_rng(0))
    backbone = supernet.derive(DERIVED_PATH) if derived else supernet
    agent = ActorCriticAgent(backbone, num_actions=6, feature_dim=128,
                             rng=np.random.default_rng(0))
    return agent.train(not derived)


def _plan_pair(derived, **kwargs):
    """Compile the same signature with the passes off and on."""
    return {passes: compile_plan(_agent(derived), passes=passes, **kwargs)
            for passes in ("none", "all")}


def _parity(plans, obs):
    """Worst |probs| difference between the pass-free and optimised plans."""
    probs = {passes: np.array(plan.run(obs)[0]) for passes, plan in plans.items()}
    return float(np.abs(probs["all"] - probs["none"]).max())


def measure():
    obs = np.random.default_rng(0).random((NUM_ENVS,) + OBS_SHAPE)
    rollout = _plan_pair(True, input_shape=obs.shape, dtype=np.float32)
    rollout64 = _plan_pair(True, input_shape=obs.shape, dtype=np.float64)
    train = _plan_pair(False, input_shape=(8,) + OBS_SHAPE, train=True,
                       gated_paths=GATED_PATHS)
    return {
        "config": {
            "num_envs": NUM_ENVS,
            "obs_size": OBS_SHAPE[-1],
            "derived_path": DERIVED_PATH,
            "gated_paths_per_cell": len(GATED_PATHS[0]),
        },
        "peak_plan_bytes": {
            "rollout_f32_passes_off": rollout["none"].alloc_bytes,
            "rollout_f32_passes_on": rollout["all"].alloc_bytes,
            "train_gated_f64_passes_off": train["none"].alloc_bytes,
            "train_gated_f64_passes_on": train["all"].alloc_bytes,
        },
        "memory_reduction": {
            "rollout_f32": 1.0 - rollout["all"].alloc_bytes / rollout["none"].alloc_bytes,
            "train_gated_f64": 1.0 - train["all"].alloc_bytes / train["none"].alloc_bytes,
        },
        "parity": {
            "rollout_f32": _parity(rollout, obs.astype(np.float32)),
            "rollout_f64": _parity(rollout64, obs),
        },
        "plan_steps": {
            "rollout_passes_off": len(rollout["none"].steps),
            "rollout_passes_on": len(rollout["all"].steps),
        },
        "rollout_unfused_steps": sum(
            isinstance(step, (AddStep, BatchNormStep)) for step in rollout["none"].steps
        ),
    }


def test_plan_optimizer(benchmark, save_result):
    payload = run_once(benchmark, measure)
    save_result("plan_optimizer", payload)

    assert payload["parity"]["rollout_f32"] <= PARITY_F32
    assert payload["parity"]["rollout_f64"] <= PARITY_F64
    assert payload["rollout_unfused_steps"] == 0
    for key, reduction in payload["memory_reduction"].items():
        assert reduction >= REQUIRED_MEMORY_REDUCTION, (
            "{} peak plan memory only shrank {:.0%} (required {:.0%})".format(
                key, reduction, REQUIRED_MEMORY_REDUCTION
            )
        )

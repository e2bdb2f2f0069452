"""The kernel rule against a committed census of ``{signature: kernel}``.

Kernel selection is a static rule, so the same plans select the same kernels
in every process on every host.  This pins the rule's choices for the plans
the workloads compile: the derived agent's float32 inference, train and int8
inference plans, the all-candidate supernet's rollout (a ``path=`` inference
compile) and train plans of the co-search, and the ResNet-20 teacher.  Every
signature must match.  Hosts without the C library (``REPRO_NATIVE=0`` or no
compiler) expect the einsum depthwise kernels wherever the census names the
compiled ones; every other choice, ``im2col_nhwc`` included, is the same.

Regenerate the census (on a host where the C library builds) with
``PYTHONPATH=src python tests/runtime/test_kernel_census.py``.
"""

import json
import os

import numpy as np

from repro.cosearch import A3CSConfig
from repro.drl import make_agent
from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.runtime import Calibrator, compile_plan
from repro.runtime.compiler import ALL_CANDIDATES
from repro.runtime.kernels import (
    ENV_VAR,
    _native,
    clear_quarantine,
    quarantined_kernels,
    selection_table,
)
from repro.runtime.kernels.registry import reset_selections

CENSUS_PATH = os.path.join(os.path.dirname(__file__), "data", "kernel_census.json")

#: The kernel each compiled kernel falls back to without the C library.
WITHOUT_LIBRARY = {
    "depthwise_native": "depthwise_einsum",
    "depthwise_native_q8": "depthwise_einsum_q8",
}


def without_library(expected):
    """The census where the C library is unavailable: the fallback kernels."""
    return {signature: WITHOUT_LIBRARY.get(name, name) for signature, name in expected.items()}


def _derived_agent():
    defaults = A3CSConfig()
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=defaults.feature_dim,
                             base_width=defaults.base_width, num_cells=defaults.num_cells,
                             rng=np.random.default_rng(0))
    return ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6,
                            feature_dim=defaults.feature_dim, rng=np.random.default_rng(0))


def census():
    """``{signature: kernel}`` selected while compiling the census plans."""
    reset_selections()
    clear_quarantine()
    agent = _derived_agent()
    agent.eval()
    compile_plan(agent, (16, 2, 28, 28), dtype=np.float32)
    calibrator = Calibrator(agent, (16, 2, 28, 28), dtype=np.float32)
    calibrator.observe(np.random.default_rng(0).random((16, 2, 28, 28)).astype(np.float32))
    compile_plan(agent, (16, 2, 28, 28), dtype=np.float32, quantize=calibrator.result("q8"))
    agent.train()
    compile_plan(agent, (80, 2, 28, 28), dtype=np.float32, train=True)

    supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=16, base_width=4,
                             rng=np.random.default_rng(0))
    searched = ActorCriticAgent(supernet, num_actions=4, feature_dim=16,
                                rng=np.random.default_rng(0))
    searched.train()
    compile_plan(searched, (4, 2, 16, 16), dtype=np.float32, path=[0] * supernet.num_cells)
    compile_plan(searched, (4, 2, 16, 16), dtype=np.float32, train=True,
                 gated_paths=ALL_CANDIDATES)

    teacher = make_agent("ResNet-20", obs_size=28, frame_stack=2, feature_dim=64,
                         base_width=8, seed=0)
    teacher.eval()
    compile_plan(teacher, (20, 2, 28, 28), dtype=np.float32)
    table = {signature: row["kernel"] for signature, row in selection_table().items()}
    reset_selections()
    return table


def test_rule_matches_committed_census(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    with open(CENSUS_PATH) as handle:
        expected = json.load(handle)
    if not _native.available():
        expected = without_library(expected)
    assert census() == expected
    # No rule choice failed its smoke call and fell back to a rival.
    assert quarantined_kernels() == {}


if __name__ == "__main__":
    os.environ.pop(ENV_VAR, None)
    assert _native.available(), "record the census where the C library builds"
    with open(CENSUS_PATH, "w") as handle:
        json.dump(census(), handle, indent=1, sort_keys=True)
        handle.write("\n")

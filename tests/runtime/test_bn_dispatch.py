"""A train-mode forward makes one compiled batch-norm call per BN step.

Channels-last float batch norm in train mode is one fused ``bn_train`` call
(statistics, running-stat EMA, scale/shift, normalise and relu) and no other
batch-norm routine.  The checks count the routines a
forward calls through a counting stand-in for the loaded library, so they
assert structure only, never time.  With the library off
(``REPRO_NATIVE=0``, or reported unavailable) the same forward takes the
NumPy path: no routine call, one ``_batch_stats`` per BN step.
"""

from collections import Counter

import numpy as np
import pytest

from repro.drl.agent import ActorCriticAgent
from repro.networks import AgentSuperNet
from repro.runtime import compile_plan
from repro.runtime.kernels import _native
from repro.runtime.plan import _BNMixin

DTYPE = np.float32


class CountingLibrary:
    """Forwards routine lookups to the loaded library, counting every call."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        routine = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] += 1
            return routine(*args)

        return counted


def supernet_agent():
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                             rng=np.random.default_rng(0))
    return ActorCriticAgent(supernet, num_actions=6, feature_dim=32,
                            rng=np.random.default_rng(0))


def rollout_plan():
    """An inference plan of a derived agent in train mode (rollout collection)."""
    supernet = AgentSuperNet(in_channels=2, input_size=28, feature_dim=32, base_width=4,
                             rng=np.random.default_rng(1))
    agent = ActorCriticAgent(supernet.derive([4, 5, 6] * 4), num_actions=6, feature_dim=32,
                             rng=np.random.default_rng(1))
    agent.train()
    return compile_plan(agent, (16, 2, 28, 28), dtype=DTYPE)


def gated_train_plan():
    """A gated supernet train plan running two branches per cell."""
    agent = supernet_agent()
    agent.train()
    paths = [[0, 4], [4, 7]] * 6
    plan = compile_plan(agent, (8, 2, 28, 28), dtype=DTYPE, train=True, gated_paths=paths)
    plan.set_gates([np.full(2, 0.5)] * len(paths))
    return plan


def bn_steps(plan):
    """The train-mode BN steps the plan's next run executes."""
    return [step for step in plan._run_steps
            if isinstance(step, _BNMixin) and step.bn is not None and step.bn.training]


def routed(step):
    """Whether the step's slots meet the compiled routine's routing rule."""
    return step.layout == "NHWC" and step.bn.num_features > 1


PLANS = {"rollout": rollout_plan, "gated_train": gated_train_plan}


@pytest.mark.parametrize("build", list(PLANS.values()), ids=list(PLANS))
@pytest.mark.parametrize("library", [True, False], ids=["native", "numpy"])
def test_one_call_per_bn_step_and_sample_group(monkeypatch, build, library):
    if library and not _native.available():
        pytest.skip("compiled library unavailable")
    if not library:
        monkeypatch.setattr(_native, "available", lambda: False)
    plan = build()
    steps = bn_steps(plan)
    assert any(routed(step) for step in steps)
    x = np.random.default_rng(2).random(plan.shape(plan.input_slot)).astype(DTYPE)
    numpy_stats = Counter()
    real_stats = _BNMixin._batch_stats

    def counted_stats(step, *args):
        numpy_stats[id(step)] += 1
        return real_stats(step, *args)

    monkeypatch.setattr(_BNMixin, "_batch_stats", counted_stats)
    library_stub = CountingLibrary(_native._lib)
    monkeypatch.setattr(_native, "_lib", library_stub)

    plan.run(x)

    calls = Counter({name: n for name, n in library_stub.calls.items() if name.startswith("bn_")})
    if library:
        expected = sum(1 for step in steps if routed(step))
        assert calls == Counter({"bn_train_f32": expected})
        assert set(numpy_stats) == {id(step) for step in steps if not routed(step)}
    else:
        assert calls == Counter()
        assert numpy_stats == Counter({id(step): 1 for step in steps})

"""One float32 mirror per parameter, shared by every plan that reads it.

A loop's rollout :class:`RuntimePolicy` and its :class:`CompiledTrainStep`
both run float32 plans over the same float64 master weights.  They must read
the same :meth:`Parameter.cast` mirror, and that mirror must follow every
sanctioned weight change: an optimiser step, ``param.data += c`` and
``load_state_dict``.  The references are fresh plans on a separately built
agent holding the same state, so they read mirrors of their own.
"""

import sys
import threading

import numpy as np
import pytest

from repro.drl import make_agent
from repro.nn import RMSProp
from repro.nn.modules import Parameter
from repro.runtime import CompiledTrainStep, RuntimePolicy

F32 = np.dtype(np.float32)
BATCH = 4


def _agent():
    agent = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                       base_width=4, seed=0)
    agent.train()
    return agent


@pytest.fixture
def batch(rng):
    return (
        rng.random((BATCH, 2, 28, 28)).astype(np.float32),
        rng.integers(0, 6, size=BATCH),
        rng.standard_normal(BATCH),
        rng.standard_normal(BATCH),
    )


def _outputs(agent, policy, step, batch):
    """Bytes of the inference outputs, the loss and every parameter gradient."""
    probs, values = policy.policy_value(batch[0])
    plan, result = step.compute_gradients(*batch)
    grads = [plan.param_grad(param) for param in agent.parameters()]
    return [probs.tobytes(), values.tobytes(), repr(result.total)] + [
        None if grad is None else grad.tobytes() for grad in grads
    ]


def _fresh_outputs(agent, batch):
    """The same outputs from freshly compiled plans on a copy of ``agent``."""
    copy = _agent()
    copy.load_state_dict(agent.state_dict())
    return _outputs(copy, RuntimePolicy(copy, dtype=F32), CompiledTrainStep(copy, dtype=F32), batch)


class TestSharedMirror:
    def test_plans_read_one_mirror_per_parameter(self, monkeypatch, batch):
        agent = _agent()
        policy = RuntimePolicy(agent, dtype=F32)
        step = CompiledTrainStep(agent, dtype=F32)
        policy.policy_value(batch[0])
        step.compute_gradients(*batch)  # both plans compiled
        read = {"infer": {}, "train": {}}
        cast = Parameter.cast
        phase = [None]

        def recording_cast(param, dtype):
            array = cast(param, dtype)
            read[phase[0]].setdefault(id(param), set()).add(id(array))
            return array

        monkeypatch.setattr(Parameter, "cast", recording_cast)
        phase[0] = "infer"
        policy.policy_value(batch[0])
        phase[0] = "train"
        step.compute_gradients(*batch)
        params = agent.parameters()
        assert set(read["train"]) == {id(param) for param in params}
        for param in params:
            mirror = cast(param, F32)
            assert mirror is not param.data and mirror.dtype == F32
            assert read["train"][id(param)] == {id(mirror)}
            if id(param) in read["infer"]:
                assert read["infer"][id(param)] == {id(mirror)}
        assert read["infer"]  # the rollout plan read mirrors too

    def test_mirrors_follow_every_weight_change(self, batch):
        agent = _agent()
        optimizer = RMSProp(agent.parameters(), lr=1e-2)
        policy = RuntimePolicy(agent, dtype=F32)
        step = CompiledTrainStep(agent, optimizer, dtype=F32)
        assert _outputs(agent, policy, step, batch) == _fresh_outputs(agent, batch)
        mirrors = [param.cast(F32) for param in agent.parameters()]

        step.step(*batch, max_grad_norm=0.5)
        assert _outputs(agent, policy, step, batch) == _fresh_outputs(agent, batch)

        for param in agent.parameters():
            param.data += 0.01
        assert _outputs(agent, policy, step, batch) == _fresh_outputs(agent, batch)

        other = make_agent("ResNet-14", obs_size=28, frame_stack=2, feature_dim=32,
                           base_width=4, seed=1)
        agent.load_state_dict(other.state_dict())
        assert _outputs(agent, policy, step, batch) == _fresh_outputs(agent, batch)
        # Refreshed in place: bound native operands stay valid.
        assert all(param.cast(F32) is mirror for param, mirror in zip(agent.parameters(), mirrors))


class TestParameterCast:
    def test_matching_dtype_returns_data(self):
        param = Parameter(np.arange(3.0))
        assert param.cast(np.dtype(np.float64)) is param.data

    def test_mirror_refreshes_only_on_version_change(self):
        param = Parameter(np.arange(3.0))
        mirror = param.cast(F32)
        np.testing.assert_array_equal(mirror, [0.0, 1.0, 2.0])
        param.data[...] = 5.0  # in place, no version bump: the mirror is kept
        assert param.cast(F32) is mirror and mirror[0] == 0.0
        param.bump_version()
        assert param.cast(F32) is mirror and mirror[0] == 5.0
        param.data = np.zeros(4)  # a new shape needs a new mirror
        assert param.cast(F32).shape == (4,)

    def test_update_between_reads_is_not_lost(self):
        """An update landing inside ``cast`` is copied by the next call at the latest."""

        class RacingParameter(Parameter):
            __slots__ = ("race",)

            @property
            def data(self):
                value = Parameter.data.fget(self)
                race, self.race = self.race, None
                if race is not None:
                    race()  # another thread's update lands right after this read
                return value

            @data.setter
            def data(self, value):
                Parameter.data.fset(self, value)

        param = RacingParameter(np.zeros(3))
        param.race = None
        param.cast(F32)
        param.bump_version()
        param.race = lambda: setattr(param, "data", np.full(3, 2.0))
        param.cast(F32)
        np.testing.assert_array_equal(param.cast(F32), param.data)

    @staticmethod
    def race_once(size=64, updates=2000, readers=4):
        """One writer updating ``data`` while ``readers`` threads call ``cast``."""
        param = Parameter(np.zeros(size))
        stop = threading.Event()
        errors = []

        def read():
            try:
                while not stop.is_set():
                    param.cast(F32)
            except Exception as exc:  # noqa: BLE001 — reported by the caller's assertion
                errors.append(exc)

        threads = [threading.Thread(target=read) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for k in range(updates):
                if k % 2:
                    param.data += 1.0  # in place, then the version bump
                else:
                    param.data = np.full(size, float(k))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        return param

    def test_racing_readers_leave_no_stale_mirror(self):
        """Readers on other threads racing a writer never mark a stale copy current.

        With the version read after ``data`` and no lock, about 4 races in
        10 ended with a stale mirror marked current on a 2-core host.
        """
        for _ in range(20):
            param = self.race_once()
            np.testing.assert_array_equal(param.cast(F32), param.data)

    def test_mirror_stays_out_of_state_dict(self):
        agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
        keys = set(agent.state_dict())
        for param in agent.parameters():
            param.cast(F32)
        state = agent.state_dict()
        assert set(state) == keys
        assert all(value.dtype != F32 for value in state.values())

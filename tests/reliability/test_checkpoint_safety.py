"""Crash-safe checkpointing: atomic writes, corruption detection, resume."""

import json
import os

import numpy as np
import pytest

from repro.nn.serialization import (
    CheckpointError,
    load_state_dict,
    save_state_dict,
    validate_state,
)

GAME = "Breakout"
ENV_KW = {"obs_size": 21, "frame_stack": 2, "max_episode_steps": 60}
SUPERNET_KW = {"input_size": 21, "in_channels": 2, "feature_dim": 32,
               "base_width": 4, "num_cells": 6}


def make_searcher(total_steps=160, seed=0, **overrides):
    from repro.nas import DRLArchitectureSearch, SearchConfig

    config = SearchConfig(total_steps=total_steps, num_envs=2, seed=seed, **overrides)
    return DRLArchitectureSearch(
        GAME, config=config, env_kwargs=dict(ENV_KW), supernet_kwargs=dict(SUPERNET_KW)
    )


def make_cosearch(**overrides):
    from repro.cosearch.a3cs import A3CSCoSearch, A3CSConfig
    from repro.drl.distillation import DistillationMode

    settings = dict(
        obs_size=21, max_episode_steps=60, num_cells=6, base_width=4,
        feature_dim=32, search_steps=20, final_das_steps=5,
        distillation_mode=DistillationMode.NONE,
    )
    config = A3CSConfig(**dict(settings, **overrides))
    co = A3CSCoSearch(GAME, config=config)
    co._build()
    return co


def fresh_env(seed):
    from repro.envs import make_vector_env

    return make_vector_env(GAME, num_envs=2, seed=seed, **ENV_KW)


def assert_states_equal(left, right):
    assert left.keys() == right.keys()
    for key in left:
        np.testing.assert_array_equal(
            np.asarray(left[key]), np.asarray(right[key]), err_msg=key
        )


class TestAtomicWrites:
    def test_save_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "state.npz")
        save_state_dict({"a": np.arange(5), "b": np.float64(2.5)}, path)
        assert os.path.exists(path)
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]
        loaded = load_state_dict(path)
        np.testing.assert_array_equal(loaded["a"], np.arange(5))

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "state.npz")
        save_state_dict({"a": np.arange(5)}, path)
        save_state_dict({"a": np.arange(5) * 2}, path)
        np.testing.assert_array_equal(load_state_dict(path)["a"], np.arange(5) * 2)
        assert [p.name for p in tmp_path.iterdir()] == ["state.npz"]


class TestCorruptionDetection:
    def test_missing_file_names_path(self, tmp_path):
        path = str(tmp_path / "nowhere.npz")
        with pytest.raises(CheckpointError, match="does not exist") as excinfo:
            load_state_dict(path)
        assert path in str(excinfo.value)

    def test_truncated_file_names_path(self, tmp_path):
        path = str(tmp_path / "state.npz")
        save_state_dict({"a": np.arange(1000)}, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt") as excinfo:
            dict(load_state_dict(path))
        assert path in str(excinfo.value)

    def test_garbage_file_names_path(self, tmp_path):
        path = str(tmp_path / "state.npz")
        with open(path, "wb") as handle:
            handle.write(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            dict(load_state_dict(path))

    def test_validate_names_missing_and_extra_keys(self):
        reference = {"agent.w": np.zeros((2, 2)), "agent.b": np.zeros(2)}
        state = {"agent.w": np.zeros((2, 2)), "agent.stray": np.zeros(1)}
        with pytest.raises(CheckpointError) as excinfo:
            validate_state(state, reference, "ckpt.npz")
        message = str(excinfo.value)
        assert "agent.b" in message and "agent.stray" in message
        assert "ckpt.npz" in message

    def test_validate_names_shape_mismatches(self):
        reference = {"agent.w": np.zeros((2, 2))}
        state = {"agent.w": np.zeros((3, 2))}
        with pytest.raises(CheckpointError, match="agent.w"):
            validate_state(state, reference, "ckpt.npz")

    def test_trainer_load_rejects_mismatched_checkpoint(self, tmp_path):
        from repro.drl import A2CConfig, A2CTrainer, make_agent
        from repro.envs import make_vector_env

        def trainer_with(feature_dim):
            agent = make_agent("Vanilla", obs_size=21, frame_stack=2,
                               feature_dim=feature_dim, seed=0)
            env = make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)
            return A2CTrainer(agent, env, config=A2CConfig(total_steps=20, num_envs=2))

        path = str(tmp_path / "ckpt.npz")
        trainer_with(16).save_checkpoint(path)
        with pytest.raises(CheckpointError):
            trainer_with(32).load_checkpoint(path)


class TestSearchResume:
    def test_search_resume_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "search.npz")
        reference = make_searcher()
        reference.search(total_steps=40)
        reference.save_checkpoint(path)
        reference.env = fresh_env(seed=0)
        reference.search(total_steps=100)

        resumed = make_searcher(seed=0)
        resumed.load_checkpoint(path)
        assert resumed.total_env_steps == 40
        assert resumed.updates == reference.updates - 6
        resumed.env = fresh_env(seed=0)
        resumed.search(total_steps=100)

        assert resumed.total_env_steps == reference.total_env_steps
        assert resumed.updates == reference.updates
        assert_states_equal(reference._checkpoint_state(), resumed._checkpoint_state())
        np.testing.assert_array_equal(resumed.rng.random(4), reference.rng.random(4))

    def test_autosave_writes_on_interval(self, tmp_path):
        from repro.reliability import health

        path = str(tmp_path / "autosave.npz")
        searcher = make_searcher(autosave_interval=2, autosave_path=path)
        saves = health.get("autosaves")
        searcher.search(total_steps=40)   # 4 updates -> autosaves at 2 and 4
        assert os.path.exists(path)
        assert health.get("autosaves") == saves + 2
        state = load_state_dict(path)
        assert int(state["search.updates"]) == 4


class TestDASStateRoundTrip:
    def make_das(self):
        from repro.accelerator.das import DASConfig, DifferentiableAcceleratorSearch
        from repro.networks import AgentSuperNet

        backbone = AgentSuperNet(
            in_channels=2, input_size=21, feature_dim=32, base_width=4,
            num_cells=6, rng=np.random.default_rng(0),
        ).derive([0, 1, 2, 0, 1, 2])
        return DifferentiableAcceleratorSearch(
            backbone, config=DASConfig(seed=0)
        )

    def test_roundtrip_resumes_bit_identically(self):
        reference = self.make_das()
        reference.search(steps=8)
        snapshot = reference.state_dict()
        reference.search(steps=6)

        resumed = self.make_das()
        resumed.load_state_dict(snapshot)
        resumed.search(steps=6)

        ref_state = reference.state_dict()
        res_state = resumed.state_dict()
        assert_states_equal(ref_state, res_state)


class TestCoSearchCheckpoint:
    def test_combined_checkpoint_roundtrip(self, tmp_path):
        from repro.cosearch.a3cs import A3CSCoSearch, A3CSConfig
        from repro.drl.distillation import DistillationMode

        path = str(tmp_path / "cosearch.npz")

        def build():
            config = A3CSConfig(
                obs_size=21, max_episode_steps=60, num_cells=6, base_width=4,
                feature_dim=32, search_steps=20, final_das_steps=5,
                distillation_mode=DistillationMode.NONE,
                autosave_interval=1, autosave_path=path,
            )
            co = A3CSCoSearch(GAME, config=config)
            co._build()
            return co

        first = build()
        first.save_checkpoint(path)

        second = build()
        second.load_checkpoint(path)
        state_first = first.searcher._checkpoint_state()
        state_second = second.searcher._checkpoint_state()
        assert_states_equal(state_first, state_second)
        assert_states_equal(first.das.state_dict(), second.das.state_dict())

        # The searcher's own periodic autosave carries the DAS state.
        os.remove(path)
        second.searcher.search(total_steps=1)
        das_keys = {"das." + key for key in second.das.state_dict()}
        assert das_keys and das_keys <= set(load_state_dict(path))

    def test_guard_rollback_restores_the_das_state(self, set_faults, tmp_path):
        from repro.reliability import health

        # Updates 2-4 trip the guard; the third trip rolls the searcher back
        # to the autosave of update 3, which must restore the DAS state too.
        path = str(tmp_path / "cosearch.npz")
        set_faults("nan_grad=3@update:2")
        co = make_cosearch(search_steps=60, autosave_interval=1, autosave_path=path)
        rollbacks = health.get("checkpoint_rollbacks")
        loaded = []
        load = co.searcher.load_checkpoint

        def spy(checkpoint):
            saved = {
                key[len("das."):]: np.array(value)
                for key, value in load_state_dict(checkpoint).items() if key.startswith("das.")
            }
            load(checkpoint)
            restored = {key: np.array(value) for key, value in co.das.state_dict().items()}
            loaded.append((saved, restored))
            return co.searcher

        co.searcher.load_checkpoint = spy
        co.run()
        assert health.get("checkpoint_rollbacks") == rollbacks + 1
        assert len(loaded) == 1
        saved, restored = loaded[0]
        assert saved
        assert_states_equal(saved, restored)

    def test_unbuilt_cosearch_refuses_save(self, tmp_path):
        from repro.cosearch.a3cs import A3CSCoSearch

        with pytest.raises(RuntimeError, match="not built"):
            A3CSCoSearch(GAME).save_checkpoint(str(tmp_path / "x.npz"))


class TestCheckpointLayouts:
    """The checkpoint formats, pinned: key -> shape per tiny config.

    Loads validate keys and shapes only, so equal layouts mean checkpoints
    written before the shared training loop still load.
    """

    LAYOUTS = os.path.join(os.path.dirname(__file__), "data", "checkpoint_layouts.json")

    @staticmethod
    def layout(state):
        return {key: list(np.shape(state[key])) for key in sorted(state)}

    def test_layouts_match_the_pinned_formats(self):
        from repro.drl import A2CConfig, A2CTrainer, make_agent
        from repro.envs import make_vector_env

        agent = make_agent("Vanilla", obs_size=21, frame_stack=2, feature_dim=16, seed=0)
        env = make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)
        trainer = A2CTrainer(agent, env, config=A2CConfig(total_steps=10, num_envs=2, seed=0))
        with open(self.LAYOUTS) as handle:
            pinned = json.load(handle)
        assert self.layout(trainer._checkpoint_state()) == pinned["a2c"]
        assert self.layout(make_searcher()._checkpoint_state()) == pinned["search"]
        assert self.layout(make_cosearch().searcher._checkpoint_state()) == pinned["cosearch"]

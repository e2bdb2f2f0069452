"""Vectorised environment tests."""

import multiprocessing as mp

import numpy as np
import pytest

from repro.envs import (
    AsyncVectorEnv,
    VectorEnv,
    get_vector_backend,
    make_vector_env,
    spawn_env_generators,
)

HAS_FORK = "fork" in mp.get_all_start_methods()


def rollout_trajectory(venv, seed, steps=40):
    """Deterministic random-play trajectory summary for reproducibility tests."""
    observations = [venv.reset(seed=seed)]
    rewards, dones = [], []
    action_rng = np.random.default_rng(seed + 99)
    for _ in range(steps):
        actions = action_rng.integers(venv.action_space.n, size=venv.num_envs)
        obs, reward, done, _ = venv.step(actions)
        observations.append(obs)
        rewards.append(reward)
        dones.append(done)
    return np.stack(observations), np.stack(rewards), np.stack(dones)


class TestVectorEnv:
    def test_requires_at_least_one_env(self):
        with pytest.raises(ValueError):
            VectorEnv([])

    def test_reset_shapes(self):
        venv = make_vector_env("Breakout", num_envs=3, obs_size=28, frame_stack=2, seed=0)
        obs = venv.reset(seed=0)
        assert obs.shape == (3, 2, 28, 28)

    def test_step_shapes_and_types(self, rng):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0)
        venv.reset(seed=0)
        obs, rewards, dones, infos = venv.step([1, 4])
        assert obs.shape == (2, 2, 28, 28)
        assert rewards.shape == (2,)
        assert dones.shape == (2,)
        assert len(infos) == 2

    def test_wrong_action_count_raises(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0)
        venv.reset(seed=0)
        with pytest.raises(ValueError):
            venv.step([1])

    def test_auto_reset_and_episode_stats(self, rng):
        venv = make_vector_env(
            "Breakout", num_envs=2, obs_size=28, frame_stack=2, max_episode_steps=30, seed=0
        )
        venv.reset(seed=0)
        episode_infos = []
        for _ in range(120):
            actions = [venv.action_space.sample(rng) for _ in range(venv.num_envs)]
            _, _, dones, infos = venv.step(actions)
            episode_infos.extend(info for info in infos if "episode_return" in info)
        assert episode_infos, "episodes should complete and report returns"
        assert all("episode_length" in info for info in episode_infos)
        assert all(info["episode_length"] <= 30 for info in episode_infos)

    def test_different_seeds_give_different_streams(self):
        venv = make_vector_env("SpaceInvaders", num_envs=2, obs_size=28, frame_stack=2, seed=0)
        obs = venv.reset(seed=0)
        # The two copies start identically (same layout) but evolve with
        # different RNG streams; after some random play they should diverge.
        rng = np.random.default_rng(0)
        diverged = False
        for _ in range(60):
            actions = [rng.integers(6), rng.integers(6)]
            obs, _, _, _ = venv.step(actions)
            if not np.allclose(obs[0], obs[1]):
                diverged = True
                break
        assert diverged

    def test_close_does_not_raise(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0)
        venv.reset(seed=0)
        venv.close()

    def test_close_twice_is_safe(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="sync")
        venv.reset(seed=0)
        venv.close()
        venv.close()

    def test_step_async_step_wait_matches_step(self):
        a = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0)
        b = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0)
        a.reset(seed=3)
        b.reset(seed=3)
        for step in range(10):
            actions = [step % 6, (step + 1) % 6]
            obs_a, rew_a, done_a, _ = a.step(actions)
            b.step_async(actions)
            obs_b, rew_b, done_b, _ = b.step_wait()
            np.testing.assert_array_equal(obs_a, obs_b)
            np.testing.assert_array_equal(rew_a, rew_b)

    def test_step_wait_without_async_raises(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0)
        venv.reset(seed=0)
        with pytest.raises(RuntimeError):
            venv.step_wait()

    def test_reset_with_step_in_flight_raises(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0)
        venv.reset(seed=0)
        venv.step_async([0, 0])
        with pytest.raises(RuntimeError):
            venv.reset(seed=0)
        with pytest.raises(RuntimeError):
            venv.step([0, 0])
        venv.step_wait()
        venv.reset(seed=0)  # fine once the step completed


class TestSeedPlumbing:
    def test_spawned_generators_are_deterministic_and_independent(self):
        a = spawn_env_generators(7, 3)
        b = spawn_env_generators(7, 3)
        draws_a = [g.random(4) for g in a]
        draws_b = [g.random(4) for g in b]
        for left, right in zip(draws_a, draws_b):
            np.testing.assert_array_equal(left, right)
        assert not np.allclose(draws_a[0], draws_a[1])

    def test_full_trajectory_reproducible_across_auto_resets(self):
        venv_a = make_vector_env(
            "Breakout", num_envs=2, obs_size=28, frame_stack=2, max_episode_steps=15, seed=0
        )
        venv_b = make_vector_env(
            "Breakout", num_envs=2, obs_size=28, frame_stack=2, max_episode_steps=15, seed=0
        )
        # 40 steps with a 15-step cap forces several auto-resets per env.
        traj_a = rollout_trajectory(venv_a, seed=11)
        traj_b = rollout_trajectory(venv_b, seed=11)
        for left, right in zip(traj_a, traj_b):
            np.testing.assert_array_equal(left, right)

    def test_auto_reset_continues_per_env_stream(self):
        """Episodes after an auto-reset must not replay the seed+index stream."""
        kwargs = dict(num_envs=1, obs_size=28, frame_stack=2, max_episode_steps=12, seed=0)
        venv = make_vector_env("SpaceInvaders", **kwargs)
        venv.reset(seed=5)
        # Step until the first auto-reset, then record the next episode.
        done = False
        for _ in range(60):
            _, _, dones, _ = venv.step([1])
            if dones[0]:
                done = True
                break
        assert done, "episode should finish within the step cap"
        second_episode = [venv.step([1])[0] for _ in range(10)]
        # Replaying reset(seed=5) reproduces episode one exactly; the
        # auto-reset episode must differ because its stochastic state comes
        # from the continuing per-env generator stream, not a reseed.
        venv2 = make_vector_env("SpaceInvaders", **kwargs)
        venv2.reset(seed=5)
        replayed_first = [venv2.step([1])[0] for _ in range(10)]
        assert any(
            not np.array_equal(a, b) for a, b in zip(second_episode, replayed_first)
        )


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestAsyncVectorEnv:
    def make_pair(self, **kwargs):
        sync = make_vector_env("Breakout", backend="sync", **kwargs)
        async_ = make_vector_env("Breakout", backend="async", **kwargs)
        return sync, async_

    def test_reset_and_step_shapes(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0,
                               backend="async")
        try:
            obs = venv.reset(seed=0)
            assert obs.shape == (2, 2, 28, 28)
            obs, rewards, dones, infos = venv.step([1, 4])
            assert obs.shape == (2, 2, 28, 28)
            assert rewards.shape == (2,) and dones.shape == (2,) and len(infos) == 2
        finally:
            venv.close()

    def test_matches_sync_trajectories_exactly(self):
        sync, async_ = self.make_pair(
            num_envs=2, obs_size=28, frame_stack=2, max_episode_steps=15, seed=0
        )
        try:
            sync_traj = rollout_trajectory(sync, seed=4)
            async_traj = rollout_trajectory(async_, seed=4)
            for left, right in zip(sync_traj, async_traj):
                np.testing.assert_array_equal(left, right)
        finally:
            sync.close()
            async_.close()

    def test_episode_stats_reported(self, rng):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2,
                               max_episode_steps=20, seed=0, backend="async")
        try:
            venv.reset(seed=0)
            episode_infos = []
            for _ in range(60):
                actions = [venv.action_space.sample(rng) for _ in range(venv.num_envs)]
                _, _, _, infos = venv.step(actions)
                episode_infos.extend(info for info in infos if "episode_return" in info)
            assert episode_infos
            assert all(info["episode_length"] <= 20 for info in episode_infos)
        finally:
            venv.close()

    def test_wrong_action_count_raises(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="async")
        try:
            venv.reset(seed=0)
            with pytest.raises(ValueError):
                venv.step([1])
        finally:
            venv.close()

    def test_close_twice_is_safe(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="async")
        venv.reset(seed=0)
        venv.close()
        venv.close()

    def test_worker_error_surfaces_and_env_recovers(self):
        """Worker exceptions must raise in the parent, not wedge the env."""
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, frame_stack=2, seed=0,
                               backend="async")
        try:
            venv.reset(seed=0)
            with pytest.raises(RuntimeError, match="invalid action"):
                venv.step([99, 1])
            # The env is not stuck in the waiting state: normal use resumes.
            obs = venv.reset(seed=0)
            assert obs.shape == (2, 2, 28, 28)
            venv.step([1, 1])
        finally:
            venv.close()

    def test_bad_env_constructor_raises_descriptively(self):
        with pytest.raises(RuntimeError, match="unknown game"):
            make_vector_env("NoSuchGame", num_envs=1, backend="async")

    def test_close_with_step_in_flight_does_not_leak_workers(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="async")
        venv.reset(seed=0)
        venv.step_async([0, 0])
        venv.close()  # must drain the in-flight step, not wedge or leak
        for proc in venv._procs:
            assert not proc.is_alive()

    def test_dead_worker_mid_step_is_restarted(self):
        """A killed worker is respawned in place; the lane reports a reset boundary."""
        from repro.reliability import health

        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="async")
        try:
            venv.reset(seed=0)
            before = health.get("worker_restarts")
            dead = venv._procs[0]
            dead.terminate()
            dead.join(timeout=5)
            venv.step_async([0, 0])
            obs, rewards, dones, infos = venv.step_wait()
            assert health.get("worker_restarts") == before + 1
            assert dones[0] and infos[0].get("worker_restarted")
            assert rewards[0] == 0.0
            assert venv._procs[0] is not dead and venv._procs[0].is_alive()
            # The healthy lane was unaffected and normal stepping resumes.
            assert not infos[1].get("worker_restarted")
            venv.step([1, 1])
        finally:
            venv.close()
        for proc in venv._procs:
            assert not proc.is_alive()

    def test_reset_with_step_in_flight_raises(self):
        venv = make_vector_env("Breakout", num_envs=2, obs_size=28, seed=0, backend="async")
        try:
            venv.reset(seed=0)
            venv.step_async([0, 0])
            with pytest.raises(RuntimeError):
                venv.reset(seed=0)
            venv.step_wait()
            venv.reset(seed=0)  # fine once the step completed
        finally:
            venv.close()


class TestBackendRegistry:
    def test_known_backends(self):
        assert get_vector_backend("sync") is VectorEnv
        assert get_vector_backend("async") is AsyncVectorEnv

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_vector_backend("cluster")

    def test_custom_backend_does_not_hide_builtins(self):
        from repro.envs.registry import VECTOR_BACKENDS, register_vector_backend

        register_vector_backend("custom-test", VectorEnv)
        try:
            assert get_vector_backend("sync") is VectorEnv
            assert get_vector_backend("custom-test") is VectorEnv
        finally:
            VECTOR_BACKENDS.pop("custom-test", None)

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR_BACKEND", "sync")
        assert get_vector_backend() is VectorEnv

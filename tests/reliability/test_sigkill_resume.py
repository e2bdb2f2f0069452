"""SIGKILL mid-search: the autosave survives and resumes bit-identically.

A child process runs the architecture search with periodic autosaves and
SIGKILLs *itself* between two autosaves (no cleanup, no atexit, no flush —
the abrupt death the atomic checkpoint writer is designed for).  The parent
resumes from the autosave and must land bit-identically on an uninterrupted
reference run.  Both processes run the default kernel rule, which picks the
same kernels in every process, so no pin is needed for the bitwise match.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np

GAME = "Breakout"
ENV_KW = {"obs_size": 21, "frame_stack": 2, "max_episode_steps": 60}
SUPERNET_KW = {"input_size": 21, "in_channels": 2, "feature_dim": 32,
               "base_width": 4, "num_cells": 6}

CHILD_SCRIPT = textwrap.dedent(
    """
    import os, signal
    from repro.nas import DRLArchitectureSearch, SearchConfig

    config = SearchConfig(total_steps=200, num_envs=2, seed=0,
                          autosave_interval=2, autosave_path={path!r})
    searcher = DRLArchitectureSearch(
        {game!r}, config=config, env_kwargs={env_kw!r}, supernet_kwargs={supernet_kw!r}
    )

    autosave = searcher._maybe_autosave

    def die_between_autosaves():
        autosave()
        if searcher.updates == 5:
            # Mid-interval: the update-4 autosave is on disk, update 5 is
            # already applied in memory, update 6's autosave never happens.
            os.kill(os.getpid(), signal.SIGKILL)

    searcher._maybe_autosave = die_between_autosaves
    searcher.search()
    """
)


def make_searcher(**overrides):
    from repro.nas import DRLArchitectureSearch, SearchConfig

    config = SearchConfig(total_steps=200, num_envs=2, seed=0, **overrides)
    return DRLArchitectureSearch(
        GAME, config=config, env_kwargs=dict(ENV_KW), supernet_kwargs=dict(SUPERNET_KW)
    )


def fresh_env():
    from repro.envs import make_vector_env

    return make_vector_env(GAME, num_envs=2, seed=0, **ENV_KW)


def test_sigkill_mid_search_resumes_bit_identically(tmp_path):
    autosave_path = str(tmp_path / "autosave.npz")
    script = CHILD_SCRIPT.format(
        path=autosave_path, game=GAME, env_kw=ENV_KW, supernet_kw=SUPERNET_KW
    )
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, timeout=600,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert completed.returncode == -signal.SIGKILL, completed.stderr.decode()
    assert os.path.exists(autosave_path)
    # The atomic writer never leaves temp droppings, even across a SIGKILL.
    assert [p.name for p in tmp_path.iterdir()] == ["autosave.npz"]

    # Resume from the autosave (update 4, 40 env steps) and run to 100.
    resumed = make_searcher()
    resumed.load_checkpoint(autosave_path)
    assert resumed.updates == 4
    assert resumed.total_env_steps == 40
    resumed.search(total_steps=100)

    # Uninterrupted reference: checkpoint semantics resume with a freshly
    # constructed environment, so the reference swaps one in at the same
    # point before continuing.
    reference = make_searcher()
    reference.search(total_steps=40)
    reference.env = fresh_env()
    reference.search(total_steps=100)

    assert resumed.total_env_steps == reference.total_env_steps
    assert resumed.updates == reference.updates
    ref_state = reference._checkpoint_state()
    res_state = resumed._checkpoint_state()
    assert ref_state.keys() == res_state.keys()
    for key in ref_state:
        np.testing.assert_array_equal(
            np.asarray(res_state[key]), np.asarray(ref_state[key]), err_msg=key
        )

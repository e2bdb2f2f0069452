"""Experiment scale profiles.

The paper trains every agent for 3e7 environment steps on a GPU farm and
measures accelerators on a real ZC706.  The NumPy substrate cannot reach that
scale, so every experiment harness accepts an :class:`ExperimentProfile`
controlling observation size, training budget, and how many games / backbones
are swept.  Three profiles are provided:

* ``smoke``  — seconds-scale, used by the pytest-benchmark harness and CI.
* ``fast``   — minutes-scale, the default for the example scripts.
* ``full``   — hours-scale, the closest this reproduction gets to the paper's
  sweep (all games / backbones, longer training).

Select a profile by name with :func:`get_profile`; the ``REPRO_PROFILE``
environment variable overrides the default everywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

__all__ = ["ExperimentProfile", "PROFILES", "get_profile", "default_profile_name"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Scale knobs shared by all experiment harnesses."""

    name: str
    obs_size: int = 28
    frame_stack: int = 2
    num_envs: int = 2
    max_episode_steps: int = 200
    feature_dim: int = 64
    base_width: int = 8
    train_steps: int = 600
    search_steps: int = 400
    teacher_steps: int = 400
    das_steps: int = 120
    eval_episodes: int = 3
    eval_points: int = 4
    games_table1: tuple = ("Breakout", "Alien", "SpaceInvaders", "Boxing")
    games_table2: tuple = ("Breakout", "Alien")
    games_table3: tuple = ("Breakout", "SpaceInvaders")
    games_fig1: tuple = ("Alien", "SpaceInvaders")
    games_fig2: tuple = ("Breakout",)
    games_fig3: tuple = ("Breakout", "SpaceInvaders")
    backbones_table1: tuple = ("Vanilla", "ResNet-14", "ResNet-20", "ResNet-38", "ResNet-74")
    backbones_fig1: tuple = ("Vanilla", "ResNet-14", "ResNet-20")
    seed: int = 0

    def with_overrides(self, **overrides):
        """Return a copy of the profile with some fields replaced."""
        return replace(self, **overrides)


PROFILES = {
    "smoke": ExperimentProfile(
        name="smoke",
        obs_size=28,
        num_envs=2,
        max_episode_steps=120,
        train_steps=200,
        search_steps=150,
        teacher_steps=150,
        das_steps=60,
        eval_episodes=2,
        eval_points=3,
        games_table1=("Breakout", "Alien"),
        games_table2=("Breakout",),
        games_table3=("Breakout",),
        games_fig1=("Alien",),
        games_fig2=("Breakout",),
        games_fig3=("Breakout",),
        backbones_table1=("Vanilla", "ResNet-14", "ResNet-20"),
        backbones_fig1=("Vanilla", "ResNet-14"),
    ),
    "fast": ExperimentProfile(name="fast"),
    "full": ExperimentProfile(
        name="full",
        obs_size=42,
        num_envs=4,
        max_episode_steps=500,
        feature_dim=128,
        base_width=16,
        train_steps=20000,
        search_steps=8000,
        teacher_steps=8000,
        das_steps=500,
        eval_episodes=30,
        eval_points=10,
        games_table1=(
            "Breakout", "Alien", "Asterix", "Atlantis", "TimePilot", "SpaceInvaders",
            "WizardOfWor", "Tennis", "Asteroids", "Assault", "BattleZone", "BeamRider",
            "Bowling", "Boxing", "Centipede", "ChopperCommand",
        ),
        games_table2=(
            "Alien", "SpaceInvaders", "Asterix", "Asteroids", "Assault", "BattleZone",
            "BeamRider", "Boxing", "Centipede", "ChopperCommand", "CrazyClimber", "DemonAttack",
        ),
        games_table3=("BeamRider", "Breakout", "Pong", "Qbert", "Seaquest", "SpaceInvaders"),
        games_fig1=("Alien", "Atlantis", "SpaceInvaders", "WizardOfWor"),
        games_fig2=("Alien", "Atlantis", "SpaceInvaders", "WizardOfWor"),
        games_fig3=("Alien", "Atlantis", "SpaceInvaders", "WizardOfWor"),
        backbones_table1=("Vanilla", "ResNet-14", "ResNet-20", "ResNet-38", "ResNet-74"),
        backbones_fig1=("Vanilla", "ResNet-14", "ResNet-20", "ResNet-38", "ResNet-74"),
    ),
}


def default_profile_name():
    """Profile selected by the ``REPRO_PROFILE`` environment variable (default ``smoke``)."""
    return os.environ.get("REPRO_PROFILE", "smoke")


def get_profile(name=None, **overrides):
    """Look up a profile by name and optionally override individual fields."""
    name = name or default_profile_name()
    if name not in PROFILES:
        raise KeyError("unknown profile {!r}; available: {}".format(name, ", ".join(PROFILES)))
    profile = PROFILES[name]
    if overrides:
        profile = profile.with_overrides(**overrides)
    return profile

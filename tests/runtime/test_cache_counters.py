"""Process-wide plan-cache and pool counters outlive the objects that bump them."""

import gc

import numpy as np

from repro import runtime
from repro.drl import make_agent
from repro.nn import Conv2d, ReLU, Sequential
from repro.runtime import CompiledTrainStep, InferenceEngine

SECTIONS = ("inference_plans", "train_plans", "buffer_pools")


def totals():
    stats = runtime.cache_stats()
    return {section: stats[section] for section in SECTIONS}


def test_counters_survive_garbage_collection():
    rng = np.random.default_rng(0)
    before = totals()

    engine = InferenceEngine(Sequential(Conv2d(2, 4, 3, padding=1), ReLU()))
    x = rng.random((2, 2, 8, 8))
    engine.run(x)
    engine.run(x)

    agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=0)
    agent.train()
    step = CompiledTrainStep(agent)
    observations = rng.random((4, 2, 28, 28)).astype(np.float32)
    for _ in range(2):
        step.compute_gradients(observations, rng.integers(0, 6, size=4),
                               rng.standard_normal(4), rng.standard_normal(4))

    used = totals()
    for section in ("inference_plans", "train_plans"):
        assert used[section]["cache_misses"] == before[section]["cache_misses"] + 1
        assert used[section]["cache_hits"] == before[section]["cache_hits"] + 1
    assert used["buffer_pools"]["bytes_fresh"] > before["buffer_pools"]["bytes_fresh"]

    del engine, step
    gc.collect()
    assert totals() == used

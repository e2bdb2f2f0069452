"""Shared fixtures for the serving suite.

Serving tests exercise scheduling, routing and shutdown semantics, not
kernel speed, so they run a small derived agent on the float32 runtime with
``REPRO_KERNELS=heuristic``: depthwise convs on ``depthwise_einsum``, so the
responses are the same bytes on hosts with and without the C library.  The
agent fixture is module-scoped: the compiled plans per bucket size are the
expensive part and every test in a module can share them.
"""

import os

import numpy as np
import pytest

from serving_helpers import OBS_SHAPE, build_agent  # noqa: F401 — fixture source


@pytest.fixture(scope="module", autouse=True)
def _heuristic_kernels():
    """Pin kernel dispatch to the heuristic (host-independent bytes) for the module."""
    previous = os.environ.get("REPRO_KERNELS")
    os.environ["REPRO_KERNELS"] = "heuristic"
    yield
    if previous is None:
        os.environ.pop("REPRO_KERNELS", None)
    else:
        os.environ["REPRO_KERNELS"] = previous


@pytest.fixture(scope="module")
def agent():
    return build_agent()


@pytest.fixture
def observations():
    rng = np.random.default_rng(7)
    return rng.standard_normal((64,) + OBS_SHAPE).astype(np.float32)

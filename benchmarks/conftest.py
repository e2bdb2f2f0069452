"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the scale of
the selected experiment profile (``REPRO_PROFILE``, default ``smoke``) and
writes its rows to ``benchmarks/results/``.  Performance is measured by
``perfbench/``, not here.
"""

import json
import os

import pytest

from repro.experiments import get_profile
from repro.runtime.kernels import ENV_VAR as KERNELS_ENV_VAR

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(autouse=True)
def heuristic_kernels(monkeypatch):
    """Pin conv dispatch to the static heuristic for every benchmark.

    The kernel rule runs depthwise convs on the compiled C kernel where the
    host can build it and on ``depthwise_einsum`` elsewhere, and the two
    agree only to float reassociation.  The heuristic pins depthwise to
    ``depthwise_einsum``; every other conv runs channels-last on the kernel
    the rule picks, which gives the same bytes with and without the C
    library (dense convs on ``im2col_nhwc``, whose C gather and scatter
    match their NumPy twins byte for byte).  So every run on every host
    rewrites the committed result files with identical numbers; only the
    records of host-dependent choices differ without the C library (the q8
    kernel names, and the pass-free plan bytes that include the NumPy
    gather's padded scratch).
    """
    monkeypatch.setenv(KERNELS_ENV_VAR, "heuristic")


@pytest.fixture(scope="session")
def profile():
    """The experiment profile used by every benchmark in this session."""
    return get_profile()


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir, profile):
    """Callable persisting one experiment's rows/curves to a JSON file."""

    def _save(name, payload):
        path = os.path.join(results_dir, "{}.json".format(name))
        with open(path, "w") as handle:
            json.dump({"profile": profile.name, "data": payload}, handle, indent=2, default=str)
        return path

    return _save


def run_once(benchmark, fn, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)

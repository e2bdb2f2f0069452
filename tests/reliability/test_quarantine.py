"""Autotuner candidate failures: recorded, excluded, quarantined."""

import numpy as np
import pytest

from repro.nn import Conv2d, Sequential
from repro.reliability import health
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ConvSpec,
    candidates,
    clear_autotune_cache,
    clear_quarantine,
    quarantine_kernel,
    quarantined_kernels,
    selection_table,
)
from repro.runtime.kernels.autotune import choose, failures_for
from repro.runtime.kernels.registry import reset_selections
from repro.runtime.passes import PASS_NAMES


@pytest.fixture(autouse=True)
def _fresh_kernel_state():
    reset_selections()
    clear_autotune_cache()
    clear_quarantine()
    yield
    reset_selections()
    clear_autotune_cache()
    clear_quarantine()


def depthwise_spec(size=24):
    # Depthwise NCHW inference, large enough that im2col_block splits the
    # batch: served by both im2col_block and the im2col fallback, so the
    # autotuner has a real decision to make.
    # batch, cin, cout, h, w, kernel, stride, padding, groups, dtype, direction
    return ConvSpec(2, 16, 16, size, size, 3, 1, 1, 16, "float64", "infer")


class TestQuarantineRegistry:
    def test_quarantine_excludes_from_candidates(self):
        spec = depthwise_spec()
        names = [cls.name for cls in candidates(spec)]
        assert "im2col_block" in names
        counter = health.get("quarantined_kernels")
        assert quarantine_kernel("im2col_block", "broken in test")
        assert health.get("quarantined_kernels") == counter + 1
        assert "im2col_block" not in [cls.name for cls in candidates(spec)]
        assert quarantined_kernels()["im2col_block"] == "broken in test"

    def test_requarantine_keeps_first_reason_without_recount(self):
        counter = health.get("quarantined_kernels")
        quarantine_kernel("im2col_block", "first")
        quarantine_kernel("im2col_block", "second")
        assert quarantined_kernels()["im2col_block"] == "first"
        assert health.get("quarantined_kernels") == counter + 1

    def test_fallback_kernel_refuses_quarantine(self):
        assert not quarantine_kernel("im2col", "must never be excluded")
        assert "im2col" not in quarantined_kernels()

    def test_candidates_never_go_empty(self):
        spec = depthwise_spec()
        for cls in candidates(spec):
            quarantine_kernel(cls.name, "sweep")
        # The fallback refused quarantine, so dispatch still has a candidate.
        assert candidates(spec)


class TestAutotunerFailures:
    def test_raising_candidate_is_recorded_and_excluded(self, set_faults):
        set_faults("kernel_error=im2col_block")
        spec = depthwise_spec()
        cls, source = choose(spec, candidates(spec))
        assert cls.name != "im2col_block"
        failures = failures_for(spec)
        assert "im2col_block" in failures
        assert "RuntimeError" in failures["im2col_block"]
        assert "im2col_block" in quarantined_kernels()
        # Subsequent signatures never see the broken candidate again.
        other = depthwise_spec(size=32)
        assert "im2col_block" not in [c.name for c in candidates(other)]

    def test_clean_autotune_records_no_failures(self):
        spec = depthwise_spec()
        choose(spec, candidates(spec))
        assert not failures_for(spec)
        assert quarantined_kernels() == {}

    def test_selection_table_reports_failures(self, set_faults, monkeypatch):
        set_faults("kernel_error=im2col_block")
        net = Sequential(Conv2d(16, 16, 3, stride=1, padding=1, groups=16,
                                rng=np.random.default_rng(0)))
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        # Without the layout pass the conv stays NCHW, where the broken
        # candidate competes.
        shape = depthwise_spec().in_shape
        plan = compile_plan(net, shape, passes=frozenset(PASS_NAMES) - {"layout"})
        x = np.random.default_rng(1).random(shape)
        out = np.asarray(plan.run(x))
        assert np.all(np.isfinite(out))
        rows = [row for row in selection_table().values() if row.get("failures")]
        assert rows, "the autotuned row should carry the candidate failure"
        assert any("im2col_block" in row["failures"] for row in rows)
        assert all(row["kernel"] != "im2col_block" for row in rows)

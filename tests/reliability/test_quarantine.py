"""Kernel smoke-call failures: recorded, excluded, quarantined."""

import numpy as np
import pytest

from repro.nn import Conv2d, Sequential, Tensor, no_grad
from repro.reliability import health
from repro.runtime import compile_plan
from repro.runtime.kernels import (
    ConvSpec,
    _native,
    candidates,
    clear_quarantine,
    kernel_for,
    quarantine_kernel,
    quarantined_kernels,
    selection_table,
)
from repro.runtime.kernels.registry import _Arena, reset_selections

needs_native = pytest.mark.skipif(
    not _native.available(),
    reason="the C library is disabled or cannot be built on this host",
)


@pytest.fixture(autouse=True)
def _fresh_kernel_state(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    reset_selections()
    clear_quarantine()
    yield
    reset_selections()
    clear_quarantine()


def depthwise_spec(size=24):
    # Depthwise channels-last inference: served by depthwise_native (where
    # the C library builds) and its rival depthwise_einsum, so the rule's
    # choice gets a smoke call at first bind.
    # batch, cin, cout, h, w, kernel, stride, padding, groups, dtype, direction
    return ConvSpec(2, 16, 16, size, size, 3, 1, 1, 16, "float64", "infer")


class TestQuarantineRegistry:
    @needs_native
    def test_quarantine_excludes_from_candidates(self):
        spec = depthwise_spec()
        names = [cls.name for cls in candidates(spec)]
        assert "depthwise_native" in names
        counter = health.get("quarantined_kernels")
        assert quarantine_kernel("depthwise_native", "broken in test")
        assert health.get("quarantined_kernels") == counter + 1
        assert "depthwise_native" not in [cls.name for cls in candidates(spec)]
        assert quarantined_kernels()["depthwise_native"] == "broken in test"

    def test_requarantine_keeps_first_reason_without_recount(self):
        counter = health.get("quarantined_kernels")
        quarantine_kernel("depthwise_native", "first")
        quarantine_kernel("depthwise_native", "second")
        assert quarantined_kernels()["depthwise_native"] == "first"
        assert health.get("quarantined_kernels") == counter + 1

    @pytest.mark.parametrize("name", ["pointwise_nhwc", "depthwise_einsum", "im2col_nhwc"])
    def test_fallback_kernel_refuses_quarantine(self, name):
        """The last float kernel of each op class is never excluded."""
        assert not quarantine_kernel(name, "must never be excluded")
        assert name not in quarantined_kernels()

    def test_candidates_never_go_empty(self):
        spec = depthwise_spec()
        for cls in candidates(spec):
            quarantine_kernel(cls.name, "sweep")
        # The class's fallback refuses quarantine, so dispatch is never left
        # empty-handed.
        assert [cls.name for cls in candidates(spec)] == ["depthwise_einsum"]


@needs_native
class TestAutotunerFailures:
    """A rule choice that fails its first-bind smoke call loses to its rival."""

    def test_raising_candidate_is_recorded_and_excluded(self, set_faults):
        set_faults("kernel_error=depthwise_native")
        spec = depthwise_spec()
        counter = health.get("quarantined_kernels")
        kernel = kernel_for(spec, _Arena(spec))
        assert kernel.name == "depthwise_einsum"
        row = selection_table()[spec.describe()]
        assert row["kernel"] == "depthwise_einsum"
        assert "RuntimeError" in row["failures"]["depthwise_native"]
        assert "depthwise_native" in quarantined_kernels()
        assert health.get("quarantined_kernels") == counter + 1
        # Subsequent signatures never see the broken kernel again.
        other = depthwise_spec(size=32)
        assert "depthwise_native" not in [c.name for c in candidates(other)]

    def test_clean_autotune_records_no_failures(self):
        spec = depthwise_spec()
        assert kernel_for(spec, _Arena(spec)).name == "depthwise_native"
        assert "failures" not in selection_table()[spec.describe()]
        assert quarantined_kernels() == {}

    def test_selection_table_reports_failures(self, set_faults):
        set_faults("kernel_error=depthwise_native")
        rng = np.random.default_rng(0)
        # expand / depthwise / project, channels-last like every plan, where
        # the depthwise conv has two candidates.
        net = Sequential(
            Conv2d(16, 16, 1, rng=rng),
            Conv2d(16, 16, 3, stride=1, padding=1, groups=16, rng=rng),
            Conv2d(16, 16, 1, rng=rng),
        )
        counter = health.get("quarantined_kernels")
        shape = (2, 16, 24, 24)
        plan = compile_plan(net, shape)
        x = np.random.default_rng(1).random(shape)
        out = np.asarray(plan.run(x))
        assert np.all(np.isfinite(out))
        rows = {k: v for k, v in selection_table().items() if k.startswith("depthwise:")}
        assert rows and all(row["layout"] == "NHWC" for row in rows.values())
        assert all(row["kernel"] == "depthwise_einsum" for row in rows.values())
        assert any("depthwise_native" in row.get("failures", {}) for row in rows.values())
        assert health.get("quarantined_kernels") == counter + 1
        # The plan serves the eager module's answer.
        with no_grad():
            reference = net(Tensor(x)).data
        np.testing.assert_allclose(out, reference, atol=1e-12)

"""Fault-spec grammar, injector determinism, and process-cache behaviour."""

import pytest

from repro.reliability import health
from repro.reliability.faults import (
    ENV_VAR,
    FaultInjector,
    get_injector,
    parse_spec,
    reset_injector,
)


class TestSpecGrammar:
    def test_probability_entry(self):
        faults, seed = parse_spec("worker_crash=0.25")
        assert "worker_crash" in faults
        assert faults["worker_crash"].p == 0.25
        assert seed == 0

    def test_seed_entry(self):
        _, seed = parse_spec("worker_crash=0.1,seed=7")
        assert seed == 7

    def test_schedule_entry(self):
        faults, _ = parse_spec("nan_grad=2@update:5")
        assert faults["nan_grad"].count == 2
        assert faults["nan_grad"].start == 5

    def test_target_entry(self):
        faults, _ = parse_spec("kernel_error=depthwise_native")
        assert faults["kernel_error"].token == "depthwise_native"

    def test_empty_parts_skipped(self):
        faults, _ = parse_spec("worker_crash=0.1, ,")
        assert list(faults) == ["worker_crash"]

    @pytest.mark.parametrize("bad", [
        "worker_crash",          # no value
        "=0.5",                  # no name
        "worker_crash=1.5",      # probability out of range
        "worker_crash=-0.1",
        "nan_grad=2@update",     # schedule without an index
        "nan_grad=x@update:3",   # non-integer count
        "nan_grad=0@update:3",   # count < 1
        "nan_grad=1@update:0",   # index < 1
    ])
    def test_bad_entries_raise_loudly(self, bad):
        with pytest.raises(ValueError, match=ENV_VAR):
            parse_spec(bad)


class TestInjector:
    def test_probability_faults_replay_deterministically(self):
        spec = "worker_crash=0.3,seed=11"
        a = [FaultInjector(spec).should_fire("worker_crash") for _ in range(1)]
        first = FaultInjector(spec)
        second = FaultInjector(spec)
        pattern_a = [first.should_fire("worker_crash") for _ in range(200)]
        pattern_b = [second.should_fire("worker_crash") for _ in range(200)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        assert a == pattern_a[:1]

    def test_seed_changes_the_schedule(self):
        a = FaultInjector("worker_crash=0.3,seed=1")
        b = FaultInjector("worker_crash=0.3,seed=2")
        assert [a.should_fire("worker_crash") for _ in range(200)] != \
               [b.should_fire("worker_crash") for _ in range(200)]

    def test_schedule_fires_exact_window(self):
        injector = FaultInjector("nan_grad=2@update:3")
        fires = [injector.should_fire("nan_grad") for _ in range(6)]
        assert fires == [False, False, True, True, False, False]

    def test_target_fires_only_on_match(self):
        injector = FaultInjector("kernel_error=depthwise_native")
        assert not injector.should_fire("kernel_error", target="im2col_nhwc")
        assert injector.should_fire("kernel_error", target="depthwise_native")
        assert not injector.should_fire("kernel_error")
        assert injector.target("kernel_error") == "depthwise_native"

    def test_unconfigured_name_consumes_nothing(self):
        injector = FaultInjector("nan_grad=1@update:2")
        # Interleaved queries for names the spec does not mention must not
        # advance the occurrence counter of the scheduled fault.
        assert not injector.should_fire("worker_crash")
        assert not injector.should_fire("nan_grad")       # occurrence 1
        assert not injector.should_fire("step_hang")
        assert injector.should_fire("nan_grad")           # occurrence 2 fires
        assert not injector.configured("worker_crash")
        assert injector.configured("nan_grad")

    def test_fired_counts_and_health_counter(self):
        before = health.get("faults_injected")
        injector = FaultInjector("nan_grad=2@update:1")
        injector.should_fire("nan_grad")
        injector.should_fire("nan_grad")
        injector.should_fire("nan_grad")
        assert injector.fired == {"nan_grad": 2}
        assert health.get("faults_injected") == before + 2


class TestProcessCache:
    def test_unset_means_no_injector(self):
        assert get_injector() is None

    def test_cached_on_spec_string(self, set_faults):
        injector = set_faults("worker_crash=0.5,seed=3")
        assert get_injector() is injector
        injector.should_fire("worker_crash")
        # Same env value -> same injector object, counters intact.
        assert get_injector() is injector

    def test_changing_spec_rebuilds(self, set_faults, monkeypatch):
        first = set_faults("worker_crash=0.5")
        monkeypatch.setenv(ENV_VAR, "worker_crash=0.25")
        assert get_injector() is not first
        assert get_injector().faults["worker_crash"].p == 0.25

    def test_reset_restarts_counters(self, set_faults):
        injector = set_faults("nan_grad=1@update:1")
        assert injector.should_fire("nan_grad")
        reset_injector()
        assert get_injector().should_fire("nan_grad")

    def test_bad_spec_raises_at_first_query(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "worker_crash=maybe@x")
        reset_injector()
        with pytest.raises(ValueError):
            get_injector()

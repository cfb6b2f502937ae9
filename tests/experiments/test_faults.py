"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import time

import pytest

from repro.experiments import faults
from repro.experiments.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    TransientPointError,
    active_plan,
    apply_driver_faults,
    maybe_fail_cache_write,
)


@pytest.fixture(autouse=True)
def clean_plan(monkeypatch):
    """Every test starts without a plan in the environment."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(kind="meteor-strike")

    def test_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="attempts"):
            FaultRule(kind="flaky", attempts=0)

    def test_applies_matches_exp_id_glob(self):
        rule = FaultRule(kind="flaky", match="table*")
        assert rule.applies("table4", "V100", 1)
        assert not rule.applies("fig8", "V100", 1)

    def test_applies_matches_scenario_substring(self):
        rule = FaultRule(kind="flaky", scenario="P100")
        assert rule.applies("table4", "P100", 1)
        assert not rule.applies("table4", "V100", 1)

    def test_applies_respects_attempt_window(self):
        rule = FaultRule(kind="flaky", attempts=2)
        assert rule.applies("x", "", 1)
        assert rule.applies("x", "", 2)
        assert not rule.applies("x", "", 3)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault rule field"):
            FaultRule.from_dict({"kind": "flaky", "knid": "oops"})

    def test_from_dict_requires_kind(self):
        with pytest.raises(ValueError, match="missing required field"):
            FaultRule.from_dict({"match": "table4"})


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan((
            FaultRule(kind="kill", match="table4", attempts=2, exit_code=3),
            FaultRule(kind="delay", delay=1.5),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_non_array(self):
        with pytest.raises(ValueError, match="JSON array"):
            FaultPlan.from_json('{"kind": "kill"}')

    def test_first_match_honors_order_and_kind_filter(self):
        flaky = FaultRule(kind="flaky", match="*")
        kill = FaultRule(kind="kill", match="*")
        plan = FaultPlan((flaky, kill))
        assert plan.first_match(("flaky", "kill"), "x", "", 1) is flaky
        assert plan.first_match(("kill",), "x", "", 1) is kill
        assert plan.first_match(("cache-write",), "x", "", 1) is None


class TestActivePlan:
    def test_none_without_plan_or_env(self):
        assert active_plan() is None

    def test_env_plan_parsed(self, monkeypatch):
        plan = FaultPlan((FaultRule(kind="kill", match="fig8"),))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        assert active_plan() == plan


class TestDriverHooks:
    def test_noop_without_plan(self):
        apply_driver_faults("table4", "V100", 1)  # must not raise

    def test_flaky_raises_transient_within_window(self, inject_faults):
        inject_faults(FaultRule(kind="flaky", attempts=2))
        with pytest.raises(InjectedFaultError):
            apply_driver_faults("table4", "V100", 1)
        with pytest.raises(TransientPointError):
            apply_driver_faults("table4", "V100", 2)
        apply_driver_faults("table4", "V100", 3)  # window passed

    def test_error_raises_deterministic_not_transient(self, inject_faults):
        inject_faults(FaultRule(kind="error"))
        with pytest.raises(RuntimeError) as exc_info:
            apply_driver_faults("table4", "V100", 1)
        assert not isinstance(exc_info.value, TransientPointError)

    def test_kill_outside_worker_downgrades_to_transient_raise(self, inject_faults):
        # A kill fault must never take down the in-process caller (CLI
        # with jobs=1, a test run, a notebook): it degrades to a
        # retryable error instead of os._exit.
        assert not faults.IN_WORKER
        inject_faults(FaultRule(kind="kill"))
        with pytest.raises(TransientPointError, match="in-process"):
            apply_driver_faults("table4", "V100", 1)

    def test_delay_sleeps(self, inject_faults):
        inject_faults(FaultRule(kind="delay", delay=0.05))
        t0 = time.monotonic()
        apply_driver_faults("table4", "V100", 1)
        assert time.monotonic() - t0 >= 0.05

    def test_rules_filter_by_experiment(self, inject_faults):
        inject_faults(FaultRule(kind="flaky", match="fig8"))
        apply_driver_faults("table4", "V100", 1)  # no match, no raise


class TestCacheWriteHook:
    def test_noop_without_plan(self):
        maybe_fail_cache_write("table4", "V100")

    def test_matching_rule_raises_oserror(self, inject_faults):
        inject_faults(FaultRule(kind="cache-write", match="table4"))
        with pytest.raises(OSError, match="injected cache write failure"):
            maybe_fail_cache_write("table4", "V100")
        maybe_fail_cache_write("fig8", "V100")  # no match

"""Typed errors, harness events, budgets and retry policies."""

import pytest

from repro.runtime.budget import Budget, BudgetTracker, RetryPolicy
from repro.runtime.errors import (
    BudgetExceededError,
    CheckpointError,
    CheckpointMismatchError,
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    TransientHarnessError,
    require_non_empty,
    require_position,
    require_positive_duration_s,
    require_positive_int,
    require_probability,
)
from repro.runtime.events import EventKind, EventLog, HarnessEvent


class TestHierarchy:
    def test_configuration_error_is_value_error(self):
        # Dual inheritance keeps pytest.raises(ValueError) call
        # sites across the suite green.
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ConfigurationError, ReproError)

    def test_budget_errors_are_runtime_errors(self):
        assert issubclass(BudgetExceededError, RuntimeError)
        assert issubclass(DeadlineExceededError, BudgetExceededError)
        assert issubclass(CheckpointMismatchError, CheckpointError)
        assert issubclass(TransientHarnessError, ReproError)

    def test_everything_shares_the_base(self):
        for exc in (
            ConfigurationError,
            BudgetExceededError,
            DeadlineExceededError,
            CheckpointError,
            CheckpointMismatchError,
            TransientHarnessError,
        ):
            assert issubclass(exc, ReproError)


class TestValidators:
    def test_duration_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            require_positive_duration_s(0.0)
        with pytest.raises(ConfigurationError):
            require_positive_duration_s(-1.0)
        assert require_positive_duration_s(2.5) == 2.5

    def test_position_rejects_negative_and_bool(self):
        with pytest.raises(ConfigurationError):
            require_position(-1)
        with pytest.raises(ConfigurationError):
            require_position(True)
        with pytest.raises(ConfigurationError):
            require_position(1.5)
        assert require_position(3) == 3

    def test_positive_int(self):
        with pytest.raises(ConfigurationError):
            require_positive_int("n", 0)
        assert require_positive_int("n", 4) == 4

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            require_probability("p", -0.1)
        with pytest.raises(ConfigurationError):
            require_probability("p", 1.0)
        assert require_probability("p", 0.0) == 0.0

    def test_non_empty(self):
        with pytest.raises(ConfigurationError):
            require_non_empty("items", [])
        assert require_non_empty("items", [1]) == [1]


class TestEvents:
    def test_record_and_count(self):
        log = EventLog()
        log.record(EventKind.ISOLATION, "x", "boom", 3)
        log.record(EventKind.RETRY, "y", "again")
        assert len(log) == 2
        assert log.count(EventKind.ISOLATION) == 1
        assert [e.label for e in log if e.kind == EventKind.RETRY] == ["y"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            HarnessEvent("explosion", "x", "boom")

    def test_round_trip(self):
        event = HarnessEvent(EventKind.RESUME, "campaign", "hi", 7)
        assert HarnessEvent.from_dict(event.to_dict()) == event

    def test_empty_log_is_falsy_by_len(self):
        # Documented trap: Supervisor must not use ``or`` on logs.
        assert len(EventLog()) == 0
        assert not EventLog()


class TestBudget:
    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            Budget(wall_clock_s=0.0)
        with pytest.raises(ConfigurationError):
            Budget(max_events=-1)
        # Zero events is legal: every simulated step degrades.
        assert Budget(max_events=0).max_events == 0

    def test_unlimited_by_default(self):
        tracker = BudgetTracker(Budget(), clock=lambda: 0.0)
        assert not tracker.deadline_exceeded()
        assert tracker.events_remaining() is None
        tracker.consume_events(10_000)
        assert tracker.events_remaining() is None

    def test_deadline_with_fake_clock(self):
        now = [0.0]
        tracker = BudgetTracker(
            Budget(wall_clock_s=2.0), clock=lambda: now[0]
        )
        now[0] = 1.0
        assert not tracker.deadline_exceeded()
        now[0] = 2.5
        with pytest.raises(DeadlineExceededError):
            tracker.check_deadline("step")

    def test_event_budget_consumption(self):
        tracker = BudgetTracker(
            Budget(max_events=10), clock=lambda: 0.0
        )
        tracker.consume_events(7)
        assert tracker.events_remaining() == 3
        tracker.consume_events(5)  # overspend is recorded, not lost
        assert tracker.events_used == 12
        assert tracker.events_remaining() == 0

    def test_require_events_raises_when_exhausted(self):
        tracker = BudgetTracker(
            Budget(max_events=2), clock=lambda: 0.0
        )
        tracker.consume_events(2)
        with pytest.raises(BudgetExceededError):
            tracker.require_events(1, "exposure")


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.1, multiplier=2.0
        )
        assert policy.delays_s() == (0.1, 0.2, 0.4)
        # Same policy, same delays — no jitter, by design.
        assert policy.delays_s() == policy.delays_s()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1.0)

"""Budgets, deadlines, and the deterministic failure policies.

Long campaigns run against two budgets: a **wall-clock deadline**
(beam time is allocated by the hour) and an **event budget** (each
simulated strike costs a workload execution).  The tracker answers
"may I start this, and how much may it use" questions; the supervised
runtime turns the answers into graceful degradation instead of a
crash.

The clock is injectable so tests — and deterministic resume — never
depend on when they run; the default is ``time.monotonic`` which
measures elapsed time only (no wall-clock reads).

Two deterministic failure policies sit beside the budgets:
:class:`RetryPolicy` (how long to back off before retrying a
transient fault) and :class:`CircuitBreaker` (when to stop using an
engine that keeps failing).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.runtime.errors import (
    BudgetExceededError,
    ConfigurationError,
    DeadlineExceededError,
)


@dataclass(frozen=True)
class Budget:
    """Resource limits for one supervised run.

    Attributes:
        wall_clock_s: elapsed-time deadline (``None`` = unlimited).
        max_events: total simulated-strike budget across all
            exposures (``None`` = unlimited).
    """

    wall_clock_s: Optional[float] = None
    max_events: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wall_clock_s is not None and self.wall_clock_s <= 0.0:
            raise ConfigurationError(
                "wall-clock budget must be positive,"
                f" got {self.wall_clock_s}"
            )
        if self.max_events is not None and self.max_events < 0:
            raise ConfigurationError(
                f"event budget must be >= 0, got {self.max_events}"
            )


class BudgetTracker:
    """Tracks consumption against a :class:`Budget`.

    Args:
        budget: the limits (an all-``None`` budget never trips).
        clock: zero-argument monotonic-seconds callable; injectable
            for deterministic tests.
        events_used: starting event consumption (checkpoint resume).
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        clock: Optional[Callable[[], float]] = None,
        events_used: int = 0,
    ) -> None:
        if events_used < 0:
            raise ConfigurationError(
                f"events_used must be >= 0, got {events_used}"
            )
        self.budget = budget or Budget()
        self._clock = clock or time.monotonic
        self._start = self._clock()
        self.events_used = int(events_used)

    # -- wall clock ----------------------------------------------------

    def elapsed_s(self) -> float:
        """Elapsed seconds since the tracker was created."""
        return self._clock() - self._start

    def deadline_exceeded(self) -> bool:
        """True once the wall-clock budget has run out."""
        limit_s = self.budget.wall_clock_s
        return limit_s is not None and self.elapsed_s() >= limit_s

    def check_deadline(self, label: str = "run") -> None:
        """Raise if the deadline has passed.

        Raises:
            DeadlineExceededError: when past the wall-clock budget.
        """
        if self.deadline_exceeded():
            raise DeadlineExceededError(
                f"{label}: wall-clock budget of"
                f" {self.budget.wall_clock_s:.1f} s exhausted after"
                f" {self.elapsed_s():.1f} s"
            )

    # -- event budget --------------------------------------------------

    def events_remaining(self) -> Optional[int]:
        """Events left in the budget (``None`` = unlimited)."""
        if self.budget.max_events is None:
            return None
        return max(self.budget.max_events - self.events_used, 0)

    def consume_events(self, n_events: int) -> None:
        """Record ``n_events`` simulated strikes as spent.

        Overspend is recorded (the exposure that spent it already
        happened) — the *next* request sees an exhausted budget.
        """
        if n_events < 0:
            raise ConfigurationError(
                f"n_events must be >= 0, got {n_events}"
            )
        self.events_used += int(n_events)

    def require_events(self, n_events: int, label: str = "run") -> None:
        """Raise unless ``n_events`` fit in the remaining budget.

        Raises:
            BudgetExceededError: when the budget cannot cover it.
        """
        remaining = self.events_remaining()
        if remaining is not None and n_events > remaining:
            raise BudgetExceededError(
                f"{label}: event budget exhausted"
                f" ({self.events_used} used of"
                f" {self.budget.max_events}; {n_events} requested)"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry-with-backoff for transient harness faults.

    Attributes:
        max_attempts: total tries, including the first (>= 1).
        base_delay_s: backoff before the first retry.
        multiplier: geometric growth factor between retries.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0.0:
            raise ConfigurationError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )

    def delays_s(self) -> Tuple[float, ...]:
        """Backoff before each retry (``max_attempts - 1`` entries)."""
        return tuple(
            self.base_delay_s * self.multiplier ** i
            for i in range(self.max_attempts - 1)
        )


class CircuitBreaker:
    """Consecutive-failure breaker over one transport engine.

    Deterministic on purpose — no clocks, no probabilities: the
    breaker opens after ``failure_threshold`` consecutive dispatch
    failures and closes again after ``recovery_successes``
    consecutive successes, so chaos trials can assert its exact
    state.

    Args:
        failure_threshold: consecutive failures that open it.
        recovery_successes: consecutive successes that close it.
    """

    def __init__(
        self,
        failure_threshold: int = 2,
        recovery_successes: int = 4,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                "failure_threshold must be >= 1,"
                f" got {failure_threshold}"
            )
        if recovery_successes < 1:
            raise ValueError(
                "recovery_successes must be >= 1,"
                f" got {recovery_successes}"
            )
        self.failure_threshold = failure_threshold
        self.recovery_successes = recovery_successes
        self._consecutive_failures = 0
        self._successes_while_open = 0
        self._open = False

    @property
    def open(self) -> bool:
        """True while dispatch to the engine is disabled."""
        return self._open

    def record_failure(self) -> None:
        """Count one dispatch failure; may open the breaker."""
        self._consecutive_failures += 1
        self._successes_while_open = 0
        if self._consecutive_failures >= self.failure_threshold:
            self._open = True

    def record_success(self) -> None:
        """Count one clean dispatch; may close the breaker."""
        self._consecutive_failures = 0
        if self._open:
            self._successes_while_open += 1
            if self._successes_while_open >= self.recovery_successes:
                self._open = False
                self._successes_while_open = 0


__all__ = ["Budget", "BudgetTracker", "CircuitBreaker", "RetryPolicy"]

"""Admission control: per-tenant budgets and deadline-aware shedding.

Every query passes through :class:`AdmissionController` before any
work happens.  Three gates, each with its own structured error code
so clients can tell them apart:

* **Load shedding** (``overloaded``) — a global in-flight ceiling;
  beyond it the service refuses instantly rather than queueing into
  collapse.
* **Tenant budgets** (``budget-exhausted``) — each tenant gets a
  :class:`~repro.runtime.budget.BudgetTracker` (the same machinery
  that bounds campaign runs); an exhausted event budget or expired
  wall-clock deadline rejects the query before it costs anything.
* **Deadline triage** (``deadline``) — a per-kind EWMA of observed
  latencies; a query whose own timeout is shorter than the expected
  service time is rejected up front instead of burning a worker on
  an answer the client will never read.

All rejections are :class:`~repro.service.protocol.ServiceError`
values — structured payloads on the wire, never unhandled
exceptions.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import core as obs
from repro.runtime.budget import Budget, BudgetTracker
from repro.runtime.errors import (
    BudgetExceededError,
    DeadlineExceededError,
)
from repro.service.protocol import ServiceError

__all__ = ["AdmissionController"]

#: EWMA smoothing factor for per-kind latency estimates (higher =
#: more reactive).
_LATENCY_ALPHA = 0.2


class AdmissionController:
    """Gates queries on load, tenant budgets, and deadlines.

    Args:
        max_inflight: global concurrent-query ceiling; queries beyond
            it are shed with ``overloaded``.
        default_budget: budget each tenant gets, tracked per tenant
            (``None`` = unbudgeted).
    """

    def __init__(
        self,
        max_inflight: int = 64,
        default_budget: Optional[Budget] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self._default_budget = default_budget
        self._trackers: Dict[str, BudgetTracker] = {}
        self._latency_s: Dict[str, float] = {}
        self.inflight = 0

    # -- gates ---------------------------------------------------------

    def admit(self, tenant: str, kind: str, timeout_s: float) -> None:
        """Admit one query or raise a coded :class:`ServiceError`.

        On success the in-flight count is incremented; the caller
        must pair every successful ``admit`` with a ``release``.
        """
        if self.inflight >= self.max_inflight:
            obs.inc("repro_service_shed_total")
            raise ServiceError(
                "overloaded",
                f"service at capacity ({self.max_inflight} queries"
                " in flight); retry with backoff",
            )
        tracker = self._tracker(tenant)
        if tracker is not None:
            try:
                tracker.check_deadline()
                tracker.require_events(1)
            except (
                BudgetExceededError,
                DeadlineExceededError,
            ) as exc:
                raise ServiceError(
                    "budget-exhausted",
                    f"tenant {tenant!r} budget exhausted: {exc}",
                ) from exc
            tracker.consume_events(1)
        estimate_s = self._latency_s.get(kind)
        if (
            timeout_s > 0.0
            and estimate_s is not None
            and estimate_s > timeout_s
        ):
            obs.inc("repro_service_shed_total")
            raise ServiceError(
                "deadline",
                f"{kind} queries currently take ~{estimate_s:.3f} s;"
                f" the {timeout_s:.3f} s deadline cannot be met",
            )
        self.inflight += 1

    def release(self) -> None:
        """Return one admitted query's in-flight slot."""
        if self.inflight > 0:
            self.inflight -= 1

    # -- feedback ------------------------------------------------------

    def observe_latency(self, kind: str, elapsed_s: float) -> None:
        """Fold one completed query's latency into the estimate."""
        previous = self._latency_s.get(kind)
        if previous is None:
            self._latency_s[kind] = elapsed_s
        else:
            self._latency_s[kind] = (
                _LATENCY_ALPHA * elapsed_s
                + (1.0 - _LATENCY_ALPHA) * previous
            )

    def _tracker(self, tenant: str) -> Optional[BudgetTracker]:
        """The tenant's budget tracker, created on first sight."""
        if self._default_budget is None:
            return None
        tracker = self._trackers.get(tenant)
        if tracker is None:
            tracker = BudgetTracker(self._default_budget)
            self._trackers[tenant] = tracker
        return tracker

"""Supervised, fault-tolerant execution for long-running campaigns.

The paper's protocol expects failures: DUEs, SEFIs and power-cycles
are logged, the device is rebooted, and the campaign continues with
fluence accounting intact.  This package gives the *virtual*
campaigns the same resilience:

* :mod:`repro.runtime.errors` — the typed exception hierarchy and
  shared argument validators;
* :mod:`repro.runtime.events` — the harness flight recorder
  (isolation, degradation, retry, resume, deadline, interrupt);
* :mod:`repro.runtime.budget` — wall-clock deadlines, event budgets,
  the deterministic retry-with-backoff policy, and the circuit
  breaker;
* :mod:`repro.runtime.checkpoint` — the one checkpoint record of a
  supervised run (cursor, runner state such as the ``SeedSequence``
  spawn position, finished units) for byte-identical resume;
* :mod:`repro.runtime.supervisor` — :class:`CampaignRunner` /
  :class:`FleetRunner` over one checkpointed segment loop, the
  supervised drivers behind ``python -m repro run --resume``, and
  the SIGINT/SIGTERM flag they poll;
* :mod:`repro.runtime.forkpool` — ``fork`` process pools whose
  workers exit when their parent dies (the service's ``--workers``
  pool and a study's shard pool).

This ``__init__`` re-exports only the leaf layers (errors, events,
budgets) that low-level packages import; the supervisor and
checkpoint layers sit *above* ``repro.beam``/``repro.core`` and are
imported as submodules (``from repro.runtime.supervisor import
CampaignRunner``) to keep the dependency graph acyclic.
"""

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
from repro.runtime.budget import (
    Budget,
    BudgetTracker,
    CircuitBreaker,
    RetryPolicy,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "CheckpointError",
    "CheckpointMismatchError",
    "TransientHarnessError",
    "require_non_empty",
    "require_position",
    "require_positive_duration_s",
    "require_positive_int",
    "require_probability",
    "EventKind",
    "EventLog",
    "HarnessEvent",
    "Budget",
    "BudgetTracker",
    "CircuitBreaker",
    "RetryPolicy",
]

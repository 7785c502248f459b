"""Harness events: the supervised runtime's flight recorder.

Beam campaigns treat DUEs, SEFIs and power-cycles as *data*, not as
failures — the device is rebooted and the run continues (paper
Section III-C).  The runtime mirrors that protocol for the harness
itself: every recovery action (an isolated crash, a degraded
exposure, a retry, a resume, a deadline stop) is recorded as a
:class:`HarnessEvent` so no intervention is ever silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.runtime.errors import ConfigurationError


class EventKind:
    """Harness event vocabulary (string constants, JSON-stable)."""

    ISOLATION = "isolation"
    DEGRADATION = "degradation"
    RETRY = "retry"
    RESUME = "resume"
    DEADLINE = "deadline"
    INTERRUPT = "interrupt"

    ALL = (ISOLATION, DEGRADATION, RETRY, RESUME, DEADLINE, INTERRUPT)


@dataclass(frozen=True)
class HarnessEvent:
    """One recovery action taken by the supervised runtime.

    Attributes:
        kind: one of :class:`EventKind`.
        label: what was being executed (step label, subsystem name).
        message: human-readable description of what happened.
        step: plan-step index the event belongs to (-1 = run level).
    """

    kind: str
    label: str
    message: str
    step: int = -1

    def __post_init__(self) -> None:
        if self.kind not in EventKind.ALL:
            raise ConfigurationError(
                f"unknown event kind {self.kind!r};"
                f" valid: {EventKind.ALL}"
            )

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready)."""
        return {
            "kind": self.kind,
            "label": self.label,
            "message": self.message,
            "step": self.step,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HarnessEvent":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kind=str(data["kind"]),
            label=str(data["label"]),
            message=str(data["message"]),
            step=int(data.get("step", -1)),
        )


@dataclass
class EventLog:
    """Append-only store of :class:`HarnessEvent` records."""

    events: List[HarnessEvent] = field(default_factory=list)

    def record(
        self, kind: str, label: str, message: str, step: int = -1
    ) -> HarnessEvent:
        """Append one event and return it."""
        event = HarnessEvent(
            kind=kind, label=label, message=message, step=step
        )
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    def extend_from_dicts(self, records: Sequence[dict]) -> None:
        """Append events serialized by :meth:`HarnessEvent.to_dict`."""
        for raw in records:
            self.events.append(HarnessEvent.from_dict(raw))

    def __iter__(self) -> Iterator[HarnessEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


__all__ = ["EventKind", "EventLog", "HarnessEvent"]

"""Named fault-injection sites threaded through the harness.

`repro.faults` models faults in the *device under test*; this module
instruments the *test harness itself*.  A :func:`fault_point` call
marks a place where real campaigns die — a checkpoint write, a plan
step about to execute, a pool worker starting a query — and a chaos
controller (see :mod:`repro.chaos.schedule`) can deterministically
fire a failure action there: raise a transient fault, SIGKILL the
process, tear a write in half, advance the clock past a deadline.

Design rules:

* **Zero overhead when disabled.**  ``fault_point`` is one module
  global read and a ``None`` check; sites sit at step / checkpoint /
  query / read-pass granularity, never inside per-neutron or
  per-strike inner loops.
* **No dependency cycles.**  This module imports nothing from the
  instrumented packages, so ``runtime``, ``beam``, ``transport`` and
  ``memory`` can all import it freely.
* **Every site is declared.**  :data:`FAULT_POINTS` is the registry
  the CLI sweeps; an undeclared site name raises at controller
  construction, not silently never-fires.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

#: The active controller (``None`` = chaos disabled, the default).
_active: Optional["SupportsReach"] = None


class SupportsReach:
    """Protocol-ish base: anything with ``reach(site, context)``."""

    def reach(self, site: str, context: dict) -> None:
        """Handle one crossing of ``site``."""
        raise NotImplementedError


@dataclass(frozen=True)
class FaultPoint:
    """One declared injection site.

    Attributes:
        name: dotted site name (``subsystem.place``).
        module: the module that hosts the ``fault_point`` call.
        description: what a failure here corresponds to in a real
            beam campaign.
        actions: chaos action names meaningful at this site (see
            :mod:`repro.chaos.actions`).
    """

    name: str
    module: str
    description: str
    actions: Tuple[str, ...]


#: Registry of every instrumented site, keyed by name.
FAULT_POINTS: Dict[str, FaultPoint] = {}


def _declare(
    name: str,
    module: str,
    description: str,
    actions: Tuple[str, ...],
) -> None:
    FAULT_POINTS[name] = FaultPoint(
        name=name,
        module=module,
        description=description,
        actions=actions,
    )


# Action name literals are repeated here (rather than imported from
# repro.chaos.actions) to keep this module import-free; the test
# suite asserts the two vocabularies stay consistent.
_declare(
    "supervisor.step",
    "repro.runtime.supervisor",
    "a campaign plan step about to execute (before any RNG spawn)",
    actions=("raise-transient", "crash", "kill-process", "delay"),
)
_declare(
    "fleet.day",
    "repro.runtime.supervisor",
    "a fleet-simulation day about to execute",
    actions=("raise-transient", "kill-process", "delay"),
)
_declare(
    "checkpoint.write",
    "repro.runtime.checkpoint",
    "a checkpoint snapshot about to be written (tmp-then-rename)",
    actions=("raise-transient", "torn-write", "kill-process", "duplicate"),
)
_declare(
    "checkpoint.load",
    "repro.runtime.checkpoint",
    "a checkpoint file about to be read for resume",
    actions=("truncate", "corrupt", "duplicate"),
)
_declare(
    "campaign.exposure",
    "repro.beam.campaign",
    "an exposure about to run (before its RNG stream is spawned)",
    actions=("raise-transient", "crash"),
)
_declare(
    "memory.pass",
    "repro.memory.tester",
    "a DDR correct-loop read pass about to start",
    actions=("raise-transient", "crash"),
)
_declare(
    "service.cache_write",
    "repro.service.cache",
    "a service result-cache entry about to be renamed into place"
    " (tmp written and fsynced)",
    actions=("raise-transient", "torn-write", "crash"),
)
_declare(
    "service.dispatch",
    "repro.service.compute",
    "a FIT query about to execute (in-process or in a pool worker)",
    actions=("raise-transient", "crash", "kill-worker"),
)
_declare(
    "service.handoff",
    "repro.service.coalesce",
    "a coalesced result about to be handed to its waiting clients",
    actions=("raise-transient", "crash"),
)
_declare(
    "service.respond",
    "repro.service.server",
    "a service response about to be serialized onto the wire",
    actions=("raise-transient", "crash"),
)
_declare(
    "studies.ledger_append",
    "repro.studies.ledger",
    "a study ledger record just made durable (written and fsynced)",
    actions=(
        "raise-transient",
        "torn-write",
        "kill-process",
        "duplicate",
        "truncate",
        "corrupt",
    ),
)
_declare(
    "studies.shard_dispatch",
    "repro.studies.scheduler",
    "a study shard about to evaluate (before any RNG work)",
    actions=("raise-transient", "crash", "kill-process"),
)
_declare(
    "studies.shard_commit",
    "repro.studies.store",
    "a shard result about to be renamed into the content-addressed"
    " store (tmp written and fsynced)",
    actions=("raise-transient", "kill-process", "duplicate"),
)
_declare(
    "studies.quarantine",
    "repro.studies.scheduler",
    "a poison shard about to be quarantined in the ledger",
    actions=("raise-transient", "kill-process"),
)
_declare(
    "surrogate.artifact_load",
    "repro.transport.surrogate.store",
    "a surrogate artifact about to be read and checksum-validated",
    actions=("raise-transient", "truncate", "corrupt"),
)


def fault_point(site: str, **context) -> None:
    """Mark a crossing of ``site``; a no-op unless chaos is active.

    Args:
        site: a name registered in :data:`FAULT_POINTS`.
        **context: site-specific hooks the firing action may use
            (paths, payload text, a ledger's append offset).
    """
    controller = _active
    if controller is not None:
        controller.reach(site, context)


def enabled() -> bool:
    """True while a chaos controller is installed."""
    return _active is not None


def install(controller: SupportsReach) -> None:
    """Install ``controller`` as the process-wide chaos handler.

    Raises:
        RuntimeError: if a controller is already installed (chaos
            runs must not nest — uninstall the old one first).
    """
    global _active
    if _active is not None:
        raise RuntimeError(
            "a chaos controller is already installed;"
            " uninstall it before installing another"
        )
    _active = controller


def uninstall() -> None:
    """Remove the installed controller (idempotent)."""
    global _active
    _active = None


@contextmanager
def activated(controller: SupportsReach) -> Iterator[SupportsReach]:
    """Context manager: install ``controller``, always uninstall."""
    install(controller)
    try:
        yield controller
    finally:
        uninstall()


def site_names() -> Tuple[str, ...]:
    """All declared site names, sorted (stable CLI/matrix order)."""
    return tuple(sorted(FAULT_POINTS))


def actions_for(site: str) -> Tuple[str, ...]:
    """Applicable action names for one declared site.

    Raises:
        KeyError: for an undeclared site name.
    """
    return FAULT_POINTS[site].actions


__all__ = [
    "FAULT_POINTS",
    "FaultPoint",
    "SupportsReach",
    "actions_for",
    "activated",
    "enabled",
    "fault_point",
    "install",
    "site_names",
    "uninstall",
]

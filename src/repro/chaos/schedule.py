"""Seeded chaos schedules and the firing controller.

Determinism contract: chaos randomness lives in its **own stream**,
derived from the chaos seed and the (site, action) cell — never from
the workload's ``SeedSequence`` tree.  Installing a controller
therefore cannot perturb a single workload draw, and the same chaos
seed always fires the same action at the same site crossing, so every
trial (and every violation it exposes) replays exactly.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.chaos import actions as chaos_actions
from repro.chaos.faultpoints import FAULT_POINTS, SupportsReach
from repro.obs import core as obs
from repro.runtime.errors import ConfigurationError

#: How far the ``delay`` action jumps the injected clock, seconds.
#: Far past any trial budget, so a delay always trips the deadline.
DEFAULT_DELAY_JUMP_S = 1.0e6


@dataclass(frozen=True)
class ChaosSpec:
    """One fully-determined injection: what fires, where, and when.

    Attributes:
        site: a declared fault-point name.
        action: a chaos action applicable at that site.
        fire_at: 0-based site-crossing index that triggers the
            action (counted per process, so it fires at most once
            per process: a retry's crossing comes later).
        worker_only: fire only in processes other than the one the
            controller was created in (pool-worker targeting; the
            parent's crossings are counted but never fired on).
        marker_path: when set, a file created the instant the action
            fires — the only way a SIGKILL trial can prove the fault
            actually triggered.
    """

    site: str
    action: str
    fire_at: int = 0
    worker_only: bool = False
    marker_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_POINTS:
            raise ConfigurationError(
                f"unknown fault-point site {self.site!r};"
                f" declared: {tuple(sorted(FAULT_POINTS))}"
            )
        if self.action not in chaos_actions.ALL_ACTIONS:
            raise ConfigurationError(
                f"unknown chaos action {self.action!r};"
                f" valid: {chaos_actions.ALL_ACTIONS}"
            )
        if self.action not in FAULT_POINTS[self.site].actions:
            raise ConfigurationError(
                f"action {self.action!r} is not applicable at"
                f" {self.site!r} (applicable:"
                f" {FAULT_POINTS[self.site].actions})"
            )
        if self.fire_at < 0:
            raise ConfigurationError(
                f"fire_at must be >= 0, got {self.fire_at}"
            )


class ChaosClock:
    """Deterministic monotonic clock the ``delay`` action can jump.

    It stands still between jumps.
    """

    def __init__(self) -> None:
        self._now_s = 0.0

    def monotonic(self) -> float:
        """Read the clock."""
        return self._now_s

    def advance(self, seconds: float) -> None:
        """Jump the clock forward (the ``delay`` action's hook)."""
        self._now_s += seconds


@dataclass
class ChaosController(SupportsReach):
    """Counts site crossings and fires the spec's action on cue.

    Install with :func:`repro.chaos.faultpoints.activated`.  The
    controller records every crossing (``trace``) so invariant
    checkers can assert a fault actually fired — and, for SIGKILL
    actions, writes the spec's marker file first, since nothing after
    the kill ever runs.

    Attributes:
        spec: the injection to perform.
        clock: the injected clock the ``delay`` action jumps (by
            :data:`DEFAULT_DELAY_JUMP_S`).
    """

    spec: ChaosSpec
    clock: Optional[ChaosClock] = None
    fires: int = 0
    trace: List[str] = field(default_factory=list)
    _counts: dict = field(default_factory=dict)
    _origin_pid: int = field(default_factory=os.getpid)

    def reach(self, site: str, context: dict) -> None:
        """Handle one crossing of ``site`` (see ``fault_point``)."""
        self.trace.append(site)
        if site != self.spec.site:
            return
        crossing = self._counts.get(site, 0)
        self._counts[site] = crossing + 1
        if crossing != self.spec.fire_at:
            return
        if self.spec.worker_only and os.getpid() == self._origin_pid:
            return
        self.fires += 1
        self._mark()
        obs.inc(
            "repro_chaos_fires_total",
            site=self.spec.site,
            action=self.spec.action,
        )
        obs.event(
            "chaos.fire", site=self.spec.site, action=self.spec.action
        )
        chaos_actions.perform(self.spec.action, context, self)

    def advance_clock(self) -> None:
        """Jump the injected clock (called by the ``delay`` action).

        Raises:
            ConfigurationError: when the trial wired no clock in.
        """
        if self.clock is None:
            raise ConfigurationError(
                "delay action fired but the controller has no"
                " injected clock; pass clock=ChaosClock()"
            )
        self.clock.advance(DEFAULT_DELAY_JUMP_S)

    def fired(self) -> bool:
        """True once the action has fired in *this* process."""
        return self.fires > 0

    def _mark(self) -> None:
        if self.spec.marker_path is not None:
            Path(self.spec.marker_path).write_text(
                f"{self.spec.site}:{self.spec.action}"
                f"@{self.spec.fire_at}\n"
            )


class ChaosSchedule:
    """Derives deterministic trial specs for every matrix cell.

    Each (site, action) cell gets its **own** generator, keyed on the
    chaos seed and a hash of the cell name — so filtering the matrix
    with ``--site``/``--action`` never changes the draws of the cells
    that do run.

    Args:
        seed: chaos seed (independent of every workload seed).
    """

    def __init__(self, seed: int = 2020) -> None:
        self.seed = int(seed)

    def cell_rng(self, site: str, action: str) -> np.random.Generator:
        """The cell's private generator (stable under filtering)."""
        digest = hashlib.sha256(
            f"{site}:{action}".encode("utf-8")
        ).digest()
        key = int.from_bytes(digest[:8], "big")
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, key])
        )

    def trials(
        self,
        site: str,
        action: str,
        n_trials: int,
        horizon: int,
        worker_only: bool = False,
    ) -> List[ChaosSpec]:
        """Draw ``n_trials`` fire positions in ``[0, horizon)``.

        Args:
            site: declared fault-point name.
            action: applicable chaos action.
            n_trials: specs to produce.
            horizon: rough number of site crossings one trial run
                performs (fire positions are drawn below it).
            worker_only: restrict firing to non-origin processes.
        """
        if n_trials < 1:
            raise ConfigurationError(
                f"n_trials must be >= 1, got {n_trials}"
            )
        if horizon < 1:
            raise ConfigurationError(
                f"horizon must be >= 1, got {horizon}"
            )
        rng = self.cell_rng(site, action)
        return [
            ChaosSpec(
                site=site,
                action=action,
                fire_at=int(rng.integers(0, horizon)),
                worker_only=worker_only,
            )
            for _ in range(n_trials)
        ]


__all__ = [
    "ChaosClock",
    "ChaosController",
    "ChaosSchedule",
    "ChaosSpec",
    "DEFAULT_DELAY_JUMP_S",
]

"""Replay chaos runs against clean runs and check recovery invariants.

Every (site, action) cell of the chaos matrix drives one small
workload — a campaign, a fleet simulation, a DDR tester, the FIT
service, a durable study (plain or with a poison shard) or a
surrogate store — once clean (cached per workload) and once per trial
with the fault injected.  :data:`SITES` says which workload each
site's trials drive; the action (and, at five sites, the site) picks
one of seven failure families, each written once, and each asserting
the runtime's recovery *contract*, not merely survival:

* **Ridden out** — a transient fault, torn write or duplicate at a
  retried site (or a crashed write to the best-effort result cache):
  the run completes with the clean run's data (string equality on
  canonical JSON, which the ``SeedSequence`` discipline makes
  checkable), a RETRY event is recorded where a supervisor retried,
  nothing is isolated that the clean run does not isolate, and a
  recovery run from the durable state — a resume, a replayed ledger,
  a restarted cache — reproduces the clean data.
* **Isolated** — a crash at a campaign step, an exposure, a DDR pass
  or a shard dispatch: exactly one isolation or ledgered failure, the
  degraded result keeps everything before the fault, and replaying
  the chaos reproduces it.
* **Surfaced** — a service fault nothing retries reaches the client
  as one structured ``internal`` error, shared by every coalesced
  waiter, and the next answer is clean.
* **Killed and resumed** — after a SIGKILL at any instrumented
  instant the child did not hang, the checkpoint loads (or the ledger
  replays), startup leaves no stale tmp, and the resumed run
  reproduces the clean data.
* **Worker killed** — a SIGKILL'd service worker yields a
  ``degraded`` answer (reason ``worker-retry``), never an error or a
  hang; the next answer is clean and the pool reads ``lost``.
* **Deadline** — after an injected clock jump no further step runs,
  a DEADLINE event is recorded, and the checkpointed remainder
  resumes to the clean data.
* **Refused at rest** — a record truncated or corrupted at rest is
  refused (``CheckpointError``, ``LedgerError`` — durably — or
  quarantine), never resumed or served silently; a transient read of
  a healthy artifact is a miss, not a quarantine, and the next reader
  is served.

What every run of a workload must show, whatever the family — a
checkpoint that loads, no stale tmp, a RESUME event on every resume,
shards committed exactly once, a coalesced herd costing one
computation, honest surrogate provenance — is checked by the
workload itself, so each check lives in one place.
"""

from __future__ import annotations

import functools
import json
import shutil
import signal
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import serde
from repro.chaos import actions as chaos_actions
from repro.chaos import trials
from repro.chaos.faultpoints import FAULT_POINTS, activated, site_names
from repro.chaos.schedule import (
    ChaosClock,
    ChaosController,
    ChaosSchedule,
    ChaosSpec,
)
from repro.durable import QUARANTINE_SUFFIX, tmp_path
from repro.memory.errors import DDR_SENSITIVITIES
from repro.memory.tester import CorrectLoopTester, DdrTestResult
from repro.runtime.checkpoint import Checkpoint
from repro.runtime.errors import CheckpointError, ConfigurationError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.supervisor import (
    Supervisor,
    SupervisedCampaignResult,
    SupervisedFleetResult,
)
from repro.spectra import ROTAX_THERMAL_FLUX
from repro.studies.ledger import LedgerError
from repro.transport import api as transport_api
from repro.transport.surrogate.store import SurrogateStore

#: DDR correct-loop trial sizing.
DDR_GENERATION = 4
DDR_CAPACITY_GBIT = 16.0
DDR_DURATION_S = 600.0
DDR_N_PASSES = 8
DDR_SEED = 2020

#: Max |fallback - surrogate| on the trial query's headline value.
#: Both sides sit near zero for the cadmium trial slab; the slack
#: absorbs the live engine's MC noise at trial history counts.
SURROGATE_TRIAL_TOL = 0.05

#: Actions a supervisor retries, recording a RETRY event.
_RETRIED = (chaos_actions.RAISE_TRANSIENT, chaos_actions.TORN_WRITE)
#: Actions that damage a record at rest.
_DAMAGE = {
    chaos_actions.TRUNCATE: "truncated",
    chaos_actions.CORRUPT: "corrupt",
}


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialOutcome:
    """One chaos trial's result.

    Attributes:
        fire_at: the site-crossing index the schedule targeted.
        fired: the fault verifiably fired.
        violations: invariant violations observed (empty = pass).
    """

    fire_at: int
    fired: bool
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON verdict matrix)."""
        return {
            "fire_at": self.fire_at,
            "fired": self.fired,
            "violations": list(self.violations),
        }


@dataclass
class CellVerdict:
    """All trials of one (site, action) matrix cell."""

    site: str
    action: str
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def violations(self) -> List[str]:
        """Every violation across the cell's trials."""
        out: List[str] = []
        for outcome in self.outcomes:
            out.extend(outcome.violations)
        return out

    def ok(self) -> bool:
        """True when every trial upheld every invariant."""
        return not self.violations()

    def to_dict(self) -> dict:
        """Plain-dict form (JSON verdict matrix)."""
        return {
            "site": self.site,
            "action": self.action,
            "ok": self.ok(),
            "trials": [o.to_dict() for o in self.outcomes],
        }


@dataclass
class ChaosReport:
    """The full verdict matrix of one chaos sweep."""

    seed: int
    n_trials: int
    cells: List[CellVerdict] = field(default_factory=list)

    def ok(self) -> bool:
        """True when no cell violated any invariant."""
        return all(cell.ok() for cell in self.cells)

    def n_violations(self) -> int:
        """Total violations across the matrix."""
        return sum(len(cell.violations()) for cell in self.cells)

    def to_dict(self) -> dict:
        """Plain-dict form (the CLI's JSON output).

        Tagged with the ``chaos-report`` schema via
        :func:`repro.serde.tag`.
        """
        return serde.tag(
            "chaos-report",
            {
                "seed": self.seed,
                "n_trials": self.n_trials,
                "ok": self.ok(),
                "n_violations": self.n_violations(),
                "cells": [cell.to_dict() for cell in self.cells],
            },
        )

    def to_text(self) -> str:
        """Human-readable verdict matrix."""
        lines = [
            f"chaos sweep: seed {self.seed},"
            f" {self.n_trials} trial(s)/cell,"
            f" {len(self.cells)} cell(s)"
        ]
        for cell in self.cells:
            mark = "PASS" if cell.ok() else "FAIL"
            fired = sum(1 for o in cell.outcomes if o.fired)
            lines.append(
                f"  [{mark}] {cell.site:18s} x {cell.action:15s}"
                f" fired {fired}/{len(cell.outcomes)}"
            )
            for violation in cell.violations():
                lines.append(f"         !! {violation}")
        verdict = (
            "all invariants held"
            if self.ok()
            else f"{self.n_violations()} invariant violation(s)"
        )
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """What one workload run showed.

    Attributes:
        canon: canonical JSON of its data (string equality ==
            byte-identical data); empty when the store refused or the
            run kept no data.
        completed: it ended the way a clean run ends.
        status: how it ended, for messages (``refused`` when the
            store refused).
        events: kinds of the harness events it recorded.
        units: steps or days that ran.
        isolations: isolated crashes or ledgered shard failures.
        refused: why the store refused its durable state — the
            integrity error it raised, or the files it quarantined.
        hit: whether a restarted result cache served the stored entry
            (``None`` for workloads without one).
        lines: the service's distinct response lines.
    """

    canon: str = ""
    completed: bool = False
    status: str = "refused"
    events: Tuple[str, ...] = ()
    units: int = 0
    isolations: int = 0
    refused: str = ""
    hit: Optional[bool] = None
    lines: Tuple[str, ...] = ()


def _armed(controller: Optional[ChaosController]):
    """Install ``controller`` for a block (nothing for a clean run)."""
    return nullcontext() if controller is None else activated(controller)


class _Workload:
    """One trial workload rooted at a scratch directory.

    Every :meth:`run` starts from the durable state under ``root`` —
    a resume, a replayed ledger, a restarted cache — and appends to
    ``violations`` whatever breaks the workload's own invariants.

    Attributes:
        record: the durable record, as messages name it.
        unrefused: what a damaged record that was not refused did.
        unit: what :attr:`Run.units` counts.
    """

    record = "record"
    unrefused = "resumed silently"
    unit = "units"

    def __init__(
        self,
        checker: "InvariantChecker",
        root: Path,
        violations: List[str],
        clean: Optional[Run] = None,
    ) -> None:
        self.checker = checker
        self.root = root
        self.violations = violations
        self.clean = clean

    def run(self, controller: Optional[ChaosController] = None) -> Run:
        """One run from the durable state, under ``controller``."""
        raise NotImplementedError

    def leave_state(self) -> None:
        """Leave durable state for the next run to resume."""

    def check_isolated(self, run: Run, fire_at: int) -> None:
        """What a run that isolated the crash at ``fire_at`` keeps."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the workload holds open."""

    def _no_stale(self, paths: Sequence[Path]) -> None:
        if paths:
            self.violations.append(
                "stale tmp not cleaned on startup or by the run:"
                f" {sorted(p.name for p in paths)}"
            )


class _Runner(_Workload):
    """A checkpointed supervised run (campaign or fleet)."""

    record = "checkpoint"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checkpoint = self.root / "ck.json"

    def _runner(self, **timing):
        raise NotImplementedError

    def _execute(self, runner, resume: bool, **segment) -> tuple:
        """Run; returns ``(outcome, records, units done)``."""
        raise NotImplementedError

    def run(self, controller=None, **segment) -> Run:
        timing = {}
        if controller is not None:
            # Frozen until a ``delay`` jumps it past the budget.
            timing = dict(
                clock=controller.clock.monotonic,
                wall_clock_budget_s=trials.DELAY_TRIAL_BUDGET_S,
            )
        resume = self.checkpoint.exists()
        runner = self._runner(**timing)  # sweeps a stale tmp
        tmp = tmp_path(self.checkpoint)
        self._no_stale([tmp] if tmp.exists() else [])
        try:
            with _armed(controller):
                outcome, records, units = self._execute(
                    runner, resume, **segment
                )
        except CheckpointError as exc:
            return Run(refused=str(exc))
        events = tuple(e.kind for e in outcome.events)
        if resume and EventKind.RESUME not in events:
            self.violations.append("no RESUME event after resume")
        self._no_stale([tmp] if tmp.exists() else [])
        if not self.checkpoint.exists():
            self.violations.append(
                f"expected checkpoint at {self.checkpoint.name},"
                " found none"
            )
        else:
            try:
                Checkpoint.load(self.checkpoint, runner.digest)
            except CheckpointError as exc:
                self.violations.append(
                    f"checkpoint observable invalid: {exc}"
                )
        return Run(
            canon=json.dumps(
                [r.to_dict() for r in records], sort_keys=True
            ),
            completed=outcome.completed,
            status="complete" if outcome.completed else "incomplete",
            events=events,
            units=units,
            isolations=events.count(EventKind.ISOLATION),
        )


class _Campaign(_Runner):
    """The heterogeneous (or ``--plan``) beam campaign."""

    unit = "steps"

    def _runner(self, **timing):
        return trials.make_campaign_runner(
            self.checkpoint, plan=self.checker.plan, **timing
        )

    def _execute(
        self, runner, resume: bool, max_steps: Optional[int] = None
    ) -> Tuple[SupervisedCampaignResult, list, int]:
        outcome = runner.run(resume=resume, max_steps=max_steps)
        exposures = outcome.result.exposures
        return outcome, exposures, outcome.steps_completed

    def leave_state(self) -> None:
        self.run(max_steps=2)

    def check_isolated(self, run: Run, fire_at: int) -> None:
        clean_rows = json.loads(self.clean.canon)
        got_rows = json.loads(run.canon)
        if got_rows[:fire_at] != clean_rows[:fire_at]:
            self.violations.append(
                "pre-fault prefix diverged from clean run"
            )
        if len(got_rows) != len(clean_rows) - 1:
            self.violations.append(
                "isolated step was not exactly skipped"
                f" ({len(got_rows)} vs {len(clean_rows)} exposures)"
            )


class _Fleet(_Runner):
    """The fleet simulation."""

    unit = "days"

    def _runner(self, **timing):
        return trials.make_fleet_runner(self.checkpoint, **timing)

    def _execute(
        self, runner, resume: bool
    ) -> Tuple[SupervisedFleetResult, list, int]:
        outcome = runner.run(n_days=trials.FLEET_N_DAYS, resume=resume)
        return outcome, outcome.result.days, outcome.days_completed


def _run_ddr() -> DdrTestResult:
    tester = CorrectLoopTester(
        DDR_SENSITIVITIES[DDR_GENERATION],
        DDR_CAPACITY_GBIT,
        seed=DDR_SEED,
    )
    return tester.run(
        ROTAX_THERMAL_FLUX,
        duration_s=DDR_DURATION_S,
        n_passes=DDR_N_PASSES,
    )


class _Ddr(_Workload):
    """A supervised DDR correct-loop tester run (no durable state)."""

    def run(self, controller=None) -> Run:
        events = EventLog()
        supervisor = Supervisor(events=events, sleep=trials._no_sleep)
        with _armed(controller):
            result = supervisor.isolate("ddr", _run_ddr)
        canon = ""
        if result is not None:
            rows = sorted(
                (
                    e.address,
                    e.category.value,
                    e.direction.value,
                    e.corrupted_bits,
                    e.first_pass,
                )
                for e in result.errors
            )
            canon = json.dumps(
                {"fluence": result.fluence_per_cm2, "errors": rows},
                sort_keys=True,
            )
        # Completed: the supervisor returned, with data or with the
        # crash isolated; a clean run must also keep data.
        return Run(
            canon=canon,
            completed=True,
            status="complete" if result is not None else "isolated",
            events=tuple(e.kind for e in events),
            isolations=events.count(EventKind.ISOLATION),
        )

    def check_isolated(self, run: Run, fire_at: int) -> None:
        if run.canon:
            self.violations.append("crash was not isolated")
        # A fresh tester must not inherit the crash.
        if self.run().canon != self.clean.canon:
            self.violations.append(
                "post-isolation clean run diverged from clean run"
            )


def _canon_service(data: dict) -> str:
    """Canonical JSON of a service response's data-bearing fields.

    ``cached`` is deliberately excluded: a hit and a miss must carry
    identical *data*, which is exactly what this canon compares.
    """
    return json.dumps(
        {
            "ok": data.get("ok"),
            "result": data.get("result"),
            "degraded": data.get("degraded"),
        },
        sort_keys=True,
    )


class _Service(_Workload):
    """The FIT service answering the trial query.

    One service lives for the whole trial, so a run after a fault
    shows it recovered rather than wedged — except with ``cached``,
    where each run restarts the service over the same durable result
    cache.  ``clients`` identical queries arrive together.
    """

    record = "cache entry"

    def __init__(
        self, *args, clients: int = 1, cached: bool = False
    ) -> None:
        super().__init__(*args)
        self.clients = clients
        self.cache_dir = self.root / "cache" if cached else None
        self._service = None

    def run(self, controller=None, workers: int = 1) -> Run:
        if self._service is None or self.cache_dir is not None:
            self.close()
            self._service = trials.make_service(
                cache_dir=self.cache_dir, n_workers=workers
            )
            if self.cache_dir is not None:
                self._no_stale(list(self.cache_dir.rglob("*.tmp")))
        executor = self._service.executor
        before = executor.compute_count
        with _armed(controller):
            # Forked inside activation, pool workers inherit the
            # armed controller.
            executor.warm()
            lines = trials.run_service_storm(
                self._service,
                trials.service_request_line(),
                self.clients,
            )
        distinct = tuple(sorted(set(lines)))
        if len(distinct) != 1:
            self.violations.append(
                "storm responses were not byte-identical"
                f" ({len(distinct)} distinct)"
            )
        computed = executor.compute_count - before
        if self.clients > 1 and computed != 1:
            self.violations.append(
                f"storm of {self.clients} cost {computed}"
                " computations, expected 1"
            )
        try:
            data = json.loads(lines[0])
        except ValueError:
            return Run(status="unparsable", lines=distinct)
        return Run(
            canon=_canon_service(data),
            completed=data.get("ok") is True,
            status="ok" if data.get("ok") else "error",
            events=tuple(e.kind for e in executor.events),
            hit=(
                bool(data.get("cached"))
                if self.cache_dir is not None
                else None
            ),
            lines=distinct,
        )

    def pool_state(self) -> str:
        """The live service's worker-pool state."""
        return self._service.executor.pool_state()

    def close(self) -> None:
        if self._service is not None:
            self._service.close()
            self._service = None


class _Study(_Workload):
    """The durable 2x2 study (``poison``: one shard always crashes)."""

    record = "ledger record"

    def __init__(self, *args, poison: bool = False) -> None:
        super().__init__(*args)
        self.poison = poison

    def run(self, controller=None) -> Run:
        scheduler = trials.make_study_scheduler(
            self.root, poison=self.poison
        )
        try:
            with _armed(controller):
                outcome = scheduler.run()
            # replay() raises on any double-committed shard, so a
            # clean replay of a finished study plus the exact
            # committed count proves each shard was counted once.
            state = scheduler.ledger.replay()
        except LedgerError as exc:
            return Run(refused=str(exc))
        # The store never sweeps: a resumed put overwrites its tmp.
        self._no_stale(list((self.root / "store").rglob("*.tmp")))
        expected = "degraded" if self.poison else "complete"
        n_expected = scheduler.spec.n_shards - int(self.poison)
        if state.finished is not None and (
            len(state.committed) != n_expected
        ):
            self.violations.append(
                f"{len(state.committed)} shards committed,"
                f" expected {n_expected}"
            )
        return Run(
            canon=json.dumps(outcome.report.to_dict(), sort_keys=True),
            completed=outcome.status == expected,
            status=outcome.status,
            events=tuple(e.kind for e in scheduler.events),
            isolations=sum(state.failures.values()),
        )

    def check_isolated(self, run: Run, fire_at: int) -> None:
        # The crashed shard is retried, so nothing is lost.
        if run.canon != self.clean.canon:
            self.violations.append("faulted run diverged from clean run")


class _Surrogate(_Workload):
    """A facade query over a fresh store holding the trial artifact.

    A fresh store reads every artifact under ``root`` again, so each
    run is a restart.
    """

    record = "artifact"
    unrefused = "was not quarantined"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        trials.make_surrogate_root(self.root)

    def run(self, controller=None) -> Run:
        # The helper's query carries the trial workload's documented
        # constant seed; taint cannot see through its return value.
        query = trials.surrogate_query()
        with _armed(controller):
            answer = transport_api.answer(
                query, store=SurrogateStore(self.root)  # repro: noqa REP101
            )
        engine = answer.provenance.engine
        digest = answer.provenance.artifact_digest
        quarantined = sorted(
            p.name for p in self.root.glob("*" + QUARANTINE_SUFFIX)
        )
        if not 0.0 <= answer.value <= 1.0:
            self.violations.append(
                f"answer is not a fraction: {answer.value}"
            )
        if self.clean is not None:
            certified = json.loads(self.clean.canon)["value"]
            if abs(answer.value - certified) > SURROGATE_TRIAL_TOL:
                self.violations.append(
                    "fallback answer diverged from the certified one:"
                    f" {answer.value} vs {certified}"
                )
        if engine != "surrogate" and digest:
            self.violations.append(
                "fallback answer claims an artifact digest"
            )
        if engine == "surrogate" and quarantined:
            self.violations.append(
                "quarantined artifact still served the query"
            )
        return Run(
            canon=json.dumps(
                {"engine": engine, "digest": digest, "value": answer.value},
                sort_keys=True,
            ),
            completed=engine == "surrogate",
            status=engine,
            refused=", ".join(quarantined),
        )


#: Workloads by name; variants are the same class with options.
WORKLOADS: Dict[str, Callable[..., _Workload]] = {
    "campaign": _Campaign,
    "fleet": _Fleet,
    "ddr": _Ddr,
    "service": _Service,
    "cached-service": functools.partial(_Service, cached=True),
    "herd": functools.partial(
        _Service, clients=trials.SERVICE_STORM_CLIENTS
    ),
    "study": _Study,
    "poison-study": functools.partial(_Study, poison=True),
    "surrogate": _Surrogate,
}


# ----------------------------------------------------------------------
# The trial skeleton and the failure families
# ----------------------------------------------------------------------


class _Trial:
    """One trial: the workload, the clean baseline, the violations."""

    def __init__(
        self, checker: "InvariantChecker", spec: ChaosSpec, root: Path
    ) -> None:
        self.checker = checker
        self.spec = spec
        self.root = root
        self.site = SITES[spec.site]
        self.violations: List[str] = []
        self.clean = Run()
        self._opened: List[_Workload] = []

    def run(self) -> None:
        """Run the cell's family; a trial that raises is a violation."""
        family = self.site.families.get(
            self.spec.action, _FAMILIES[self.spec.action]
        )
        try:
            self.clean, problems = self.checker._clean_run(
                self.site.workload
            )
            self.violations.extend(problems)
            self.w = self.workload(self.root)
            if self.site.resumes:
                self.w.leave_state()
            family(self)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            self.violations.append(
                f"trial raised {type(exc).__name__}: {exc}"
            )
        finally:
            for workload in self._opened:
                workload.close()

    def workload(self, root: Path) -> _Workload:
        """The cell's workload, rooted at ``root``."""
        root.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[self.site.workload](
            self.checker, root, self.violations, self.clean
        )
        self._opened.append(workload)
        return workload

    @property
    def fired(self) -> bool:
        """The controller's marker exists: the fault fired — in this
        process, a pool worker or a SIGKILLed child alike."""
        return Path(self.spec.marker_path).exists()

    def controller(self) -> ChaosController:
        """A fresh controller armed with the trial's spec."""
        return ChaosController(self.spec, clock=ChaosClock())

    def recovers(self) -> Run:
        """The next run from the durable state reproduces clean."""
        again = self.w.run()
        if again.canon != self.clean.canon:
            self.violations.append(
                "recovered run diverged from clean run"
                + (f" (refused: {again.refused})" if again.refused else "")
            )
        return again

    # -- the failure families ------------------------------------------

    def ridden_out(self) -> None:
        """A transient, torn write or duplicate leaves no trace."""
        action = self.spec.action
        run = self.w.run(self.controller())
        if not run.completed:
            self.violations.append(
                f"{action} fault was not ridden out"
                f" (ended {run.status!r})"
            )
        if run.canon != self.clean.canon:
            self.violations.append("faulted run diverged from clean run")
        if run.isolations != self.clean.isolations:
            self.violations.append(
                f"{action} fault recorded a deterministic failure"
                f" ({run.isolations} isolations or ledgered failures,"
                f" clean run {self.clean.isolations})"
            )
        if (
            self.site.supervised
            and action in _RETRIED
            and EventKind.RETRY not in run.events
        ):
            self.violations.append("no RETRY event recorded")
        survives = action != chaos_actions.CRASH
        if self.recovers().hit not in (None, survives):
            self.violations.append(
                f"{self.w.record} {'not ' if survives else ''}served"
                f" after a {action} fault"
            )

    def isolated(self) -> None:
        """A crash costs its own unit, and the same one on replay."""
        run = self.w.run(self.controller())
        if not run.completed:
            self.violations.append(
                f"crash was not isolated (ended {run.status!r})"
            )
        if run.isolations != 1:
            self.violations.append(
                f"expected exactly 1 isolation, saw {run.isolations}"
            )
        self.w.check_isolated(run, self.spec.fire_at)
        # Replay determinism: the same chaos seed must reproduce the
        # same degraded-but-valid result, or no violation report is
        # ever debuggable.
        replay = self.workload(self.root / "replay")
        if replay.run(self.controller()).canon != run.canon:
            self.violations.append(
                "chaos run is not reproducible under replay"
            )

    def surfaced(self) -> None:
        """A fault nothing retries reaches the client as one error."""
        site = self.spec.site
        for line in self.w.run(self.controller()).lines:
            try:
                data = json.loads(line)
            except ValueError:
                self.violations.append(
                    f"{site} fault produced an unparsable line"
                )
                continue
            if data.get("ok") is not False:
                self.violations.append(
                    f"{site} fault did not surface as an error"
                )
            elif data["error"]["code"] != "internal":
                self.violations.append(
                    f"{site} fault surfaced with code"
                    f" {data['error']['code']!r}"
                )
        self.recovers()

    def killed(self) -> None:
        """A SIGKILL at any instant resumes to the clean run."""
        child = trials.run_kill_trial(self.spec, self.w.run)
        if child.hung:
            self.violations.append("chaos child hung past timeout")
        elif self.fired and child.exit_code != -signal.SIGKILL:
            self.violations.append(
                f"child exited {child.exit_code},"
                f" expected -{int(signal.SIGKILL)}"
            )
        resumed = self.recovers()
        if resumed.refused:
            self.violations.append(
                f"{self.w.record} observable invalid after kill:"
                f" {resumed.refused}"
            )
        elif not resumed.completed:
            self.violations.append(
                f"resume ended {resumed.status!r},"
                f" expected {self.clean.status!r}"
            )

    def worker_killed(self) -> None:
        """A dead pool worker costs a flag, not an error or a hang."""
        run = self.w.run(self.controller(), workers=2)
        data = json.loads(run.lines[0])
        # The kill lands in a forked worker; the answer the parent
        # recomputed must say so.
        if not data.get("degraded"):
            self.violations.append("worker kill produced no degraded response")
        if data.get("ok") is not True:
            self.violations.append("worker kill surfaced as an error response")
        if data.get("degraded_reason") != "worker-retry":
            self.violations.append(
                f"degraded_reason is {data.get('degraded_reason')!r},"
                " expected 'worker-retry'"
            )
        # Only the envelope's flag flips; the result, its transport
        # provenance included, must equal clean.
        if json.loads(run.canon) != dict(
            json.loads(self.clean.canon), degraded=True
        ):
            self.violations.append(
                "post-worker-death result diverged from clean"
            )
        # Killed, not wedged: the next answer is computed in-process,
        # since no pool is forked again after a worker death.
        self.recovers()
        if self.w.pool_state() != "lost":
            self.violations.append(
                f"pool state is {self.w.pool_state()!r} after a worker"
                " kill, expected 'lost'"
            )

    def deadline(self) -> None:
        """After a clock jump no step runs; the rest resumes."""
        run = self.w.run(self.controller())
        expected = self.spec.fire_at + 1
        if run.completed:
            self.violations.append(
                "deadline not enforced after injected delay"
            )
        else:
            if EventKind.DEADLINE not in run.events:
                self.violations.append("no DEADLINE event after delay")
            if run.units != expected:
                self.violations.append(
                    f"budget not respected: {run.units} {self.w.unit}"
                    f" ran, expected {expected}"
                )
        self.recovers()

    def at_rest(self) -> None:
        """A record damaged at rest is refused, durably."""
        action = self.spec.action
        run = self.w.run(self.controller())
        if not self.fired:
            # Nothing was damaged: "fault never fired" says it all.
            return
        if action not in _DAMAGE:
            # A transient read of a healthy record: a miss, no more.
            if run.refused:
                self.violations.append(
                    f"{action} fault refused a healthy {self.w.record}"
                )
            elif run.completed:
                self.violations.append(
                    f"{action} fault did not miss the {self.w.record}"
                )
            self.recovers()
            return
        if not run.refused:
            # A record damaged mid-run is refused by its next reader.
            run = self.w.run()
        if run.refused:
            # Durably: a later reader must refuse too, never build on
            # the damaged record.
            if not self.w.run().refused:
                self.violations.append(
                    f"{self.w.record} refusal was not durable"
                )
        elif action == chaos_actions.CORRUPT or (
            run.canon != self.clean.canon
        ):
            # Only a truncation that looks like a torn tail may
            # recover instead, and then exactly.
            self.violations.append(
                f"{_DAMAGE[action]} {self.w.record} {self.w.unrefused}"
            )


#: The family each action's trials run, unless the site says otherwise.
_FAMILIES: Dict[str, Callable[[_Trial], None]] = {
    chaos_actions.RAISE_TRANSIENT: _Trial.ridden_out,
    chaos_actions.TORN_WRITE: _Trial.ridden_out,
    chaos_actions.DUPLICATE: _Trial.ridden_out,
    chaos_actions.CRASH: _Trial.isolated,
    chaos_actions.KILL_PROCESS: _Trial.killed,
    chaos_actions.KILL_WORKER: _Trial.worker_killed,
    chaos_actions.DELAY: _Trial.deadline,
    chaos_actions.TRUNCATE: _Trial.at_rest,
    chaos_actions.CORRUPT: _Trial.at_rest,
}


@dataclass(frozen=True)
class Site:
    """How the matrix drives one fault site.

    Attributes:
        workload: the :data:`WORKLOADS` entry its trials run.
        crossings: site crossings in one run, the range fire
            positions are drawn from (``None``: one per step of the
            campaign plan).
        supervised: a :class:`Supervisor` retries faults here,
            recording RETRY events.
        resumes: the site is crossed reading a checkpoint back, so
            trials first cut a campaign short after two steps.
        families: family overrides by action.
    """

    workload: str
    crossings: Optional[int] = None
    supervised: bool = False
    resumes: bool = False
    families: Dict[str, Callable[[_Trial], None]] = field(
        default_factory=dict
    )


_SURFACED = {
    chaos_actions.RAISE_TRANSIENT: _Trial.surfaced,
    chaos_actions.CRASH: _Trial.surfaced,
}

#: Every fault site: its workload, horizon and family overrides.
SITES: Dict[str, Site] = {
    "campaign.exposure": Site("campaign", supervised=True),
    "checkpoint.load": Site("campaign", 1, resumes=True),
    "checkpoint.write": Site("campaign", supervised=True),
    "fleet.day": Site("fleet", trials.FLEET_N_DAYS, supervised=True),
    "memory.pass": Site("ddr", DDR_N_PASSES, supervised=True),
    # One crossing per trial request at every service site; a cache
    # write is best-effort, so even a crashed one is ridden out.
    "service.cache_write": Site(
        "cached-service",
        1,
        families={chaos_actions.CRASH: _Trial.ridden_out},
    ),
    "service.dispatch": Site(
        "service",
        1,
        supervised=True,
        families={chaos_actions.CRASH: _Trial.surfaced},
    ),
    "service.handoff": Site("herd", 1, families=_SURFACED),
    "service.respond": Site("service", 1, families=_SURFACED),
    # Study: started + 4 shard commits + finished = 6 appends;
    # 4 dispatches; 4 store publishes; 1 quarantine (the poison
    # trial's single poison shard).
    "studies.ledger_append": Site("study", 6),
    "studies.quarantine": Site("poison-study", 1, supervised=True),
    "studies.shard_commit": Site("study", 4),
    "studies.shard_dispatch": Site("study", 4, supervised=True),
    "supervisor.step": Site("campaign", supervised=True),
    # One artifact load per fresh store.
    "surrogate.artifact_load": Site(
        "surrogate",
        1,
        families={chaos_actions.RAISE_TRANSIENT: _Trial.at_rest},
    ),
}


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


def _fresh(path: Path) -> Path:
    """``path`` as an empty directory.

    Trial runs resume from whatever durable state they find, so a
    reused ``--workdir`` must not hand them a previous sweep's.
    """
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class InvariantChecker:
    """Runs the chaos matrix and verifies recovery invariants.

    Args:
        seed: chaos seed (drives fire positions; independent of all
            workload seeds).
        n_trials: trials per matrix cell.
        plan: campaign plan name trials execute.
        workdir: scratch directory for checkpoints/markers (a fresh
            temporary directory by default).
    """

    def __init__(
        self,
        seed: int = 2020,
        n_trials: int = 2,
        plan: str = "heterogeneous",
        workdir: Optional[Union[str, Path]] = None,
    ) -> None:
        if n_trials < 1:
            raise ConfigurationError(
                f"n_trials must be >= 1, got {n_trials}"
            )
        self.schedule = ChaosSchedule(seed)
        self.seed = int(seed)
        self.n_trials = int(n_trials)
        self.plan = plan
        self.plan_len = len(trials.build_campaign_plan(plan))
        self.workdir = Path(
            workdir
            if workdir is not None
            else tempfile.mkdtemp(prefix="repro-chaos-")
        )
        self._clean: Dict[str, Tuple[Run, Tuple[str, ...]]] = {}

    def _clean_run(self, name: str) -> Tuple[Run, Tuple[str, ...]]:
        """A workload's clean run (cached), with what it violated."""
        if name not in self._clean:
            problems: List[str] = []
            workload = WORKLOADS[name](
                self, _fresh(self.workdir / f"clean-{name}"), problems
            )
            try:
                run = workload.run()
            finally:
                workload.close()
            if not (run.completed and run.canon):
                problems.append(
                    f"clean run did not complete (ended {run.status!r})"
                )
            self._clean[name] = (run, tuple(problems))
        return self._clean[name]

    # -- matrix --------------------------------------------------------

    def horizon(self, site: str, action: str) -> int:
        """Fire-position range for one cell.

        A site's crossings per run — except that a pool worker sees
        only its own crossings (firing at the first lands the kill in
        every worker), and a delay fires one crossing early, so a
        step is always left for the deadline to stop.
        """
        if action == chaos_actions.KILL_WORKER:
            return 1
        crossings = SITES[site].crossings or self.plan_len
        return crossings - 1 if action == chaos_actions.DELAY else crossings

    def run_matrix(
        self,
        sites: Optional[Sequence[str]] = None,
        actions: Optional[Sequence[str]] = None,
    ) -> ChaosReport:
        """Sweep the (site, action) matrix and collect verdicts.

        Args:
            sites: restrict to these sites (default: all declared).
            actions: restrict to these actions (default: each site's
                full declared set).
        """
        report = ChaosReport(seed=self.seed, n_trials=self.n_trials)
        for site in site_names():
            if sites and site not in sites:
                continue
            for action in FAULT_POINTS[site].actions:
                if actions and action not in actions:
                    continue
                report.cells.append(self.check_cell(site, action))
        return report

    def check_cell(self, site: str, action: str) -> CellVerdict:
        """Run every trial of one (site, action) cell."""
        specs = self.schedule.trials(
            site,
            action,
            self.n_trials,
            self.horizon(site, action),
            worker_only=(action == chaos_actions.KILL_WORKER),
        )
        verdict = CellVerdict(site=site, action=action)
        for index, spec in enumerate(specs):
            slug = f"{site.replace('.', '_')}-{action}-{index}"
            violations, fired = self._run_trial(
                spec, _fresh(self.workdir / slug)
            )
            verdict.outcomes.append(
                TrialOutcome(
                    fire_at=spec.fire_at,
                    fired=fired,
                    violations=tuple(violations),
                )
            )
        return verdict

    def _run_trial(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """The one trial skeleton every cell runs.

        The controller marks a file the instant it fires, so the
        marker is the proof the fault fired.
        """
        marker = str(tmpdir / "marker")
        trial = _Trial(self, replace(spec, marker_path=marker), tmpdir)
        trial.run()
        if not trial.fired:
            trial.violations.insert(0, "fault never fired")
        return trial.violations, trial.fired


__all__ = [
    "ChaosReport",
    "InvariantChecker",
]

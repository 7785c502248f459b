"""Replay chaos runs against clean runs and check recovery invariants.

Every (site, action) cell of the chaos matrix runs the same small
workload twice: once clean (cached per subsystem) and once — or N
times — with the fault injected.  The :class:`InvariantChecker` then
asserts the runtime's recovery *contract*, not merely survival:

* **Byte-identical recovery.**  A retried or resumed run produces
  exactly the clean run's data (the ``SeedSequence`` discipline
  makes this checkable as string equality on canonical JSON).
* **No observable invalid checkpoint.**  After a SIGKILL at any
  instrumented instant, the checkpoint file is either absent or
  loads cleanly; a stale ``*.tmp`` is swept on runner startup; a
  checkpoint corrupted at rest raises ``CheckpointError`` rather
  than resuming silently.
* **Budgets hold under delay.**  After an injected clock jump, no
  further step runs, a DEADLINE event is recorded, and the
  checkpointed remainder resumes byte-identically.
* **The FIT service stays correct under failure.**  A corrupt or
  torn cache entry is quarantined and recomputed, never served; a
  thundering herd of identical queries costs one computation and
  every waiter gets byte-identical bytes — or one clean shared
  error; a SIGKILL'd service worker yields a degraded-flagged
  response rather than a hang or an unhandled exception.
* **The study ledger never lies.**  After a SIGKILL, a torn append,
  or a duplicate delivery at any study fault point, replaying the
  write-ahead ledger and resuming yields the clean run's report
  byte-for-byte with every shard committed exactly once; a ledger
  corrupted or truncated at rest is detected (``LedgerError``) or
  recovered identically — never resumed silently wrong.
"""

from __future__ import annotations

import json
import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from repro.durable import QUARANTINE_SUFFIX
from repro.memory.errors import DDR_SENSITIVITIES
from repro.memory.tester import CorrectLoopTester, DdrTestResult
from repro.runtime.checkpoint import CampaignCheckpoint, FleetCheckpoint
from repro.runtime.errors import CheckpointError, ConfigurationError
from repro.runtime.events import EventKind, EventLog
from repro.runtime.supervisor import (
    Supervisor,
    SupervisedCampaignResult,
    SupervisedFleetResult,
)
from repro.spectra import ROTAX_THERMAL_FLUX
from repro.studies.ledger import LedgerError
from repro.studies.report import StudyReport
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


# ----------------------------------------------------------------------
# Canonical forms (string equality == byte-identical data)
# ----------------------------------------------------------------------


def canon_exposures(outcome: SupervisedCampaignResult) -> str:
    """Canonical JSON of a campaign run's exposure data."""
    return json.dumps(
        [e.to_dict() for e in outcome.result.exposures],
        sort_keys=True,
    )


def canon_days(outcome: SupervisedFleetResult) -> str:
    """Canonical JSON of a fleet run's per-day data."""
    return json.dumps(
        [d.to_dict() for d in outcome.result.days], sort_keys=True
    )


def canon_service(line: str) -> str:
    """Canonical JSON of a service response's data-bearing fields.

    ``cached`` is deliberately excluded: a hit and a miss must carry
    identical *data*, which is exactly what this canon compares.
    """
    data = json.loads(line)
    return json.dumps(
        {
            "ok": data.get("ok"),
            "result": data.get("result"),
            "degraded": data.get("degraded"),
        },
        sort_keys=True,
    )


def canon_study(report: StudyReport) -> str:
    """Canonical JSON of a study's merged report.

    Built purely from durable state, so a kill-and-resume run must
    reproduce it byte-for-byte.
    """
    return json.dumps(report.to_dict(), sort_keys=True)


def canon_ddr(result: DdrTestResult) -> str:
    """Canonical JSON of a DDR correct-loop run's classified errors."""
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
    return json.dumps(
        {"fluence": result.fluence_per_cm2, "errors": rows},
        sort_keys=True,
    )


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
# The checker
# ----------------------------------------------------------------------


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
        self._clean: Dict[str, str] = {}

    # -- clean baselines (one per subsystem, cached) -------------------

    def clean_campaign(self) -> str:
        """Canonical exposures of the clean campaign run."""
        if "campaign" not in self._clean:
            outcome = trials.make_campaign_runner(plan=self.plan).run()
            self._clean["campaign"] = canon_exposures(outcome)
        return self._clean["campaign"]

    def clean_fleet(self) -> str:
        """Canonical days of the clean fleet run."""
        if "fleet" not in self._clean:
            outcome = trials.make_fleet_runner().run(
                n_days=trials.FLEET_N_DAYS
            )
            self._clean["fleet"] = canon_days(outcome)
        return self._clean["fleet"]

    def clean_ddr(self) -> str:
        """Canonical errors of the clean DDR correct-loop run."""
        if "ddr" not in self._clean:
            self._clean["ddr"] = canon_ddr(self._run_ddr())
        return self._clean["ddr"]

    def clean_study(self) -> str:
        """Canonical report of the clean study trial run."""
        if "study" not in self._clean:
            workdir = self.workdir / "clean-study"
            outcome = trials.make_study_scheduler(workdir).run()
            self._clean["study"] = canon_study(outcome.report)
        return self._clean["study"]

    def clean_study_poison(self) -> str:
        """Canonical report of the clean poison-shard study run."""
        if "study-poison" not in self._clean:
            workdir = self.workdir / "clean-study-poison"
            outcome = trials.make_study_scheduler(
                workdir, poison=True
            ).run()
            self._clean["study-poison"] = canon_study(outcome.report)
        return self._clean["study-poison"]

    def clean_service(self) -> str:
        """Canonical response of the clean service trial query."""
        if "service" not in self._clean:
            service = trials.make_service()
            try:
                line = trials.run_service_lines(
                    service, [trials.service_request_line()]
                )[0]
            finally:
                service.close()
            self._clean["service"] = canon_service(line)
        return self._clean["service"]

    @staticmethod
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

    # -- matrix --------------------------------------------------------

    def horizon(self, site: str, action: str) -> int:
        """Fire-position range for one cell (rough crossings/run)."""
        if action == chaos_actions.KILL_WORKER:
            # Each pool worker sees only its own crossings; firing at
            # the first guarantees the kill lands in every worker.
            return 1
        per_site = {
            "supervisor.step": self.plan_len,
            "campaign.exposure": self.plan_len,
            "checkpoint.write": self.plan_len,
            "checkpoint.load": 1,
            "fleet.day": trials.FLEET_N_DAYS,
            "memory.pass": DDR_N_PASSES,
            # One crossing per trial request for every service site.
            "service.cache_write": 1,
            "service.dispatch": 1,
            "service.handoff": 1,
            "service.respond": 1,
            # Study: started + 4 shard commits + finished = 6
            # appends; 4 dispatches; 4 store publishes; 1 quarantine
            # (the poison trial's single poison shard).
            "studies.ledger_append": 6,
            "studies.shard_dispatch": 4,
            "studies.shard_commit": 4,
            "studies.quarantine": 1,
            # One artifact load per fresh store.
            "surrogate.artifact_load": 1,
        }
        return per_site[site]

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
            tmpdir = self.workdir / slug
            tmpdir.mkdir(parents=True, exist_ok=True)
            violations, fired = self._run_trial(spec, tmpdir)
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
        site = spec.site
        if site in ("supervisor.step", "campaign.exposure"):
            return self._trial_campaign_step(spec, tmpdir)
        if site == "fleet.day":
            return self._trial_fleet_day(spec, tmpdir)
        if site == "checkpoint.write":
            return self._trial_checkpoint_write(spec, tmpdir)
        if site == "checkpoint.load":
            return self._trial_checkpoint_load(spec, tmpdir)
        if site == "memory.pass":
            return self._trial_memory_pass(spec, tmpdir)
        if site == "service.cache_write":
            return self._trial_service_cache(spec, tmpdir)
        if site == "service.handoff":
            return self._trial_service_handoff(spec, tmpdir)
        if site == "service.dispatch":
            return self._trial_service_dispatch(spec, tmpdir)
        if site == "service.respond":
            return self._trial_service_respond(spec, tmpdir)
        if site == "studies.ledger_append":
            return self._trial_studies_ledger(spec, tmpdir)
        if site == "studies.shard_dispatch":
            return self._trial_studies_dispatch(spec, tmpdir)
        if site == "studies.shard_commit":
            return self._trial_studies_commit(spec, tmpdir)
        if site == "studies.quarantine":
            return self._trial_studies_quarantine(spec, tmpdir)
        if site == "surrogate.artifact_load":
            return self._trial_surrogate_load(spec, tmpdir)
        raise ConfigurationError(f"no trial harness for {site!r}")

    # -- campaign-backed cells -----------------------------------------

    def _trial_campaign_step(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._kill_trial(spec, tmpdir, target="campaign")
        if spec.action == chaos_actions.DELAY:
            return self._delay_campaign_trial(spec, tmpdir)
        checkpoint = tmpdir / "ck.json"
        controller = ChaosController(spec)
        with activated(controller):
            outcome = trials.make_campaign_runner(
                checkpoint, plan=self.plan
            ).run()
        violations: List[str] = []
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        clean = self.clean_campaign()
        got = canon_exposures(outcome)
        self._require_valid_checkpoint(
            checkpoint, CampaignCheckpoint, violations
        )
        if spec.action == chaos_actions.RAISE_TRANSIENT:
            if not outcome.completed:
                violations.append(
                    "transient fault was not ridden out (incomplete)"
                )
            if got != clean:
                violations.append(
                    "retried run diverged from clean run"
                )
            if not self._has_event(outcome.events, EventKind.RETRY):
                violations.append("no RETRY event recorded")
        else:  # crash
            violations.extend(
                self._check_isolated_crash(outcome, got, clean, spec)
            )
        return violations, fired

    def _check_isolated_crash(
        self,
        outcome: SupervisedCampaignResult,
        got: str,
        clean: str,
        spec: ChaosSpec,
    ) -> List[str]:
        """Crash isolation: skip exactly one step, keep the prefix,
        and be reproducible under replay."""
        violations: List[str] = []
        if not outcome.completed:
            violations.append(
                "crash was not isolated (run incomplete)"
            )
        isolations = sum(
            1
            for e in outcome.events
            if e.kind == EventKind.ISOLATION
        )
        if isolations != 1:
            violations.append(
                f"expected exactly 1 isolation, saw {isolations}"
            )
        clean_rows = json.loads(clean)
        got_rows = json.loads(got)
        k = spec.fire_at
        if got_rows[:k] != clean_rows[:k]:
            violations.append(
                "pre-fault prefix diverged from clean run"
            )
        if len(got_rows) != len(clean_rows) - 1:
            violations.append(
                "isolated step was not exactly skipped"
                f" ({len(got_rows)} vs {len(clean_rows)} exposures)"
            )
        # Replay determinism: the same chaos seed must reproduce the
        # same degraded-but-valid result, or no violation report is
        # ever debuggable.
        with activated(ChaosController(spec)):
            replay = trials.make_campaign_runner(plan=self.plan).run()
        if canon_exposures(replay) != got:
            violations.append(
                "chaos run is not reproducible under replay"
            )
        return violations

    def _delay_campaign_trial(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        checkpoint = tmpdir / "ck.json"
        clock = ChaosClock()
        controller = ChaosController(spec, clock=clock)
        with activated(controller):
            outcome = trials.make_campaign_runner(
                checkpoint,
                plan=self.plan,
                clock=clock.monotonic,
                wall_clock_budget_s=trials.DELAY_TRIAL_BUDGET_S,
            ).run()
        violations: List[str] = []
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        clean = self.clean_campaign()
        last_step = self.plan_len - 1
        if outcome.completed:
            if spec.fire_at < last_step:
                violations.append(
                    "deadline not enforced after injected delay"
                )
            if canon_exposures(outcome) != clean:
                violations.append("delayed run diverged from clean")
            return violations, fired
        if not self._has_event(outcome.events, EventKind.DEADLINE):
            violations.append("no DEADLINE event after delay")
        if outcome.steps_completed != spec.fire_at + 1:
            violations.append(
                "budget not respected: "
                f"{outcome.steps_completed} steps ran, expected"
                f" {spec.fire_at + 1}"
            )
        self._require_valid_checkpoint(
            checkpoint,
            CampaignCheckpoint,
            violations,
            expect_exists=True,
        )
        resumed = trials.make_campaign_runner(
            checkpoint, plan=self.plan
        ).run(resume=True)
        if canon_exposures(resumed) != clean:
            violations.append(
                "resume after deadline diverged from clean run"
            )
        if not self._has_event(resumed.events, EventKind.RESUME):
            violations.append("no RESUME event on resume")
        return violations, fired

    # -- fleet cells ---------------------------------------------------

    def _trial_fleet_day(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._kill_trial(spec, tmpdir, target="fleet")
        checkpoint = tmpdir / "ck.json"
        clean = self.clean_fleet()
        violations: List[str] = []
        if spec.action == chaos_actions.DELAY:
            clock = ChaosClock()
            controller = ChaosController(spec, clock=clock)
            with activated(controller):
                outcome = trials.make_fleet_runner(
                    checkpoint,
                    clock=clock.monotonic,
                    wall_clock_budget_s=trials.DELAY_TRIAL_BUDGET_S,
                ).run(n_days=trials.FLEET_N_DAYS)
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            if outcome.completed:
                if spec.fire_at < trials.FLEET_N_DAYS - 1:
                    violations.append(
                        "deadline not enforced after injected delay"
                    )
                if canon_days(outcome) != clean:
                    violations.append(
                        "delayed run diverged from clean"
                    )
                return violations, fired
            if not self._has_event(
                outcome.events, EventKind.DEADLINE
            ):
                violations.append("no DEADLINE event after delay")
            if outcome.days_completed != spec.fire_at + 1:
                violations.append(
                    "budget not respected:"
                    f" {outcome.days_completed} days ran, expected"
                    f" {spec.fire_at + 1}"
                )
            self._require_valid_checkpoint(
                checkpoint,
                FleetCheckpoint,
                violations,
                expect_exists=True,
            )
            resumed = trials.make_fleet_runner(checkpoint).run(
                n_days=trials.FLEET_N_DAYS, resume=True
            )
            if canon_days(resumed) != clean:
                violations.append(
                    "resume after deadline diverged from clean run"
                )
            return violations, fired
        # raise-transient
        controller = ChaosController(spec)
        with activated(controller):
            outcome = trials.make_fleet_runner(checkpoint).run(
                n_days=trials.FLEET_N_DAYS
            )
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if not outcome.completed:
            violations.append(
                "transient fault was not ridden out (incomplete)"
            )
        if canon_days(outcome) != clean:
            violations.append("retried run diverged from clean run")
        if not self._has_event(outcome.events, EventKind.RETRY):
            violations.append("no RETRY event recorded")
        return violations, fired

    # -- checkpoint cells ----------------------------------------------

    def _trial_checkpoint_write(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._kill_trial(spec, tmpdir, target="campaign")
        checkpoint = tmpdir / "ck.json"
        controller = ChaosController(spec)
        with activated(controller):
            outcome = trials.make_campaign_runner(
                checkpoint, plan=self.plan
            ).run()
        violations: List[str] = []
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if not outcome.completed:
            violations.append(
                "checkpoint-write fault was not ridden out"
            )
        if canon_exposures(outcome) != self.clean_campaign():
            violations.append("faulted run diverged from clean run")
        self._require_valid_checkpoint(
            checkpoint,
            CampaignCheckpoint,
            violations,
            expect_exists=True,
        )
        tmp = checkpoint.with_suffix(checkpoint.suffix + ".tmp")
        if tmp.exists():
            violations.append(
                "tmp file left behind after recovered write"
            )
        if spec.action in (
            chaos_actions.RAISE_TRANSIENT,
            chaos_actions.TORN_WRITE,
        ) and not self._has_event(outcome.events, EventKind.RETRY):
            violations.append("no RETRY event for failed write")
        return violations, fired

    def _trial_checkpoint_load(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        checkpoint = tmpdir / "ck.json"
        # Produce a genuine mid-run checkpoint to attack.
        trials.make_campaign_runner(checkpoint, plan=self.plan).run(
            max_steps=2
        )
        violations: List[str] = []
        controller = ChaosController(spec)
        if spec.action == chaos_actions.DUPLICATE:
            with activated(controller):
                outcome = trials.make_campaign_runner(
                    checkpoint, plan=self.plan
                ).run(resume=True)
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            if canon_exposures(outcome) != self.clean_campaign():
                violations.append(
                    "double-read resume diverged from clean run"
                )
            return violations, fired
        # truncate / corrupt: the resume MUST refuse.
        with activated(controller):
            try:
                trials.make_campaign_runner(
                    checkpoint, plan=self.plan
                ).run(resume=True)
            except CheckpointError:
                pass
            else:
                violations.append(
                    f"{spec.action} checkpoint resumed silently"
                    " (expected CheckpointError)"
                )
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        return violations, fired

    # -- memory cells --------------------------------------------------

    def _trial_memory_pass(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        del tmpdir
        clean = self.clean_ddr()
        violations: List[str] = []
        events = EventLog()
        supervisor = Supervisor(events=events, sleep=trials._no_sleep)
        controller = ChaosController(spec)
        with activated(controller):
            if spec.action == chaos_actions.RAISE_TRANSIENT:
                result = supervisor.call("ddr", self._run_ddr)
                fired = controller.fired()
                if not fired:
                    violations.append("fault never fired")
                if canon_ddr(result) != clean:
                    violations.append(
                        "fresh-tester retry diverged from clean run"
                    )
                if events.count(EventKind.RETRY) < 1:
                    violations.append("no RETRY event recorded")
                return violations, fired
            # crash: isolate, then a clean attempt must still match.
            result = supervisor.isolate("ddr", self._run_ddr)
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            if result is not None:
                violations.append("crash was not isolated")
            if events.count(EventKind.ISOLATION) != 1:
                violations.append("no ISOLATION event recorded")
            retried = self._run_ddr()
        if canon_ddr(retried) != clean:
            violations.append(
                "post-isolation clean run diverged from clean run"
            )
        return violations, fired

    # -- FIT-service cells ---------------------------------------------

    def _trial_service_cache(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Cache-write faults: responses unharmed, no torn entry."""
        cache_dir = tmpdir / "cache"
        clean = self.clean_service()
        violations: List[str] = []
        line = trials.service_request_line()
        controller = ChaosController(spec)
        service = trials.make_service(cache_dir=cache_dir)
        try:
            with activated(controller):
                out = trials.run_service_lines(service, [line])[0]
        finally:
            service.close()
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if canon_service(out) != clean:
            violations.append(
                "cache-write fault leaked into the response"
            )
        # A fresh service over the same directory: its init sweeps
        # stale tmp files, and its first answer proves the cache
        # either holds a complete entry or none at all.
        service2 = trials.make_service(cache_dir=cache_dir)
        try:
            stale = list(cache_dir.rglob("*.tmp"))
            if stale:
                violations.append(
                    "stale cache tmp not swept on startup:"
                    f" {[p.name for p in stale]}"
                )
            out2 = trials.run_service_lines(service2, [line])[0]
        finally:
            service2.close()
        if canon_service(out2) != clean:
            violations.append(
                "post-fault cache state corrupted the next response"
            )
        cached = json.loads(out2).get("cached")
        if spec.action == chaos_actions.CRASH:
            # The one write attempt crashed; no entry may exist.
            if cached:
                violations.append(
                    "crashed cache write left a served entry"
                )
        elif not cached:
            # Transient/torn faults are retried to success.
            violations.append(
                "retried cache write did not produce a hit"
            )
        return violations, fired

    def _trial_service_handoff(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Coalescer handoff faults: one shared clean error, then a
        full thundering herd resolved by one computation."""
        del tmpdir
        clean = self.clean_service()
        violations: List[str] = []
        line = trials.service_request_line()
        controller = ChaosController(spec)
        service = trials.make_service()
        try:
            with activated(controller):
                faulted = trials.run_service_storm(service, line, 8)
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            if len(set(faulted)) != 1:
                violations.append(
                    "coalesced waiters saw different handoff"
                    " failures"
                )
            for response in set(faulted):
                data = json.loads(response)
                if data.get("ok") is not False:
                    violations.append(
                        "handoff fault did not surface as an error"
                    )
                elif data["error"]["code"] != "internal":
                    violations.append(
                        "handoff fault surfaced with code"
                        f" {data['error']['code']!r}"
                    )
            if service.executor.compute_count != 1:
                violations.append(
                    "faulted storm was not coalesced"
                    f" ({service.executor.compute_count}"
                    " computations)"
                )
            # Fires exhausted: the full storm must now succeed with
            # byte-identical payloads from a single computation.
            before = service.executor.compute_count
            with activated(controller):
                storm = trials.run_service_storm(
                    service, line, trials.SERVICE_STORM_CLIENTS
                )
        finally:
            service.close()
        if len(set(storm)) != 1:
            violations.append(
                "storm responses were not byte-identical"
                f" ({len(set(storm))} distinct)"
            )
        if canon_service(storm[0]) != clean:
            violations.append(
                "storm response diverged from clean run"
            )
        computed = service.executor.compute_count - before
        if computed != 1:
            violations.append(
                f"storm of {trials.SERVICE_STORM_CLIENTS} cost"
                f" {computed} computations, expected 1"
            )
        return violations, fired

    def _trial_service_dispatch(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Dispatch faults: retry, isolate, or degrade — never wedge."""
        del tmpdir
        clean = self.clean_service()
        violations: List[str] = []
        line = trials.service_request_line()
        if spec.action == chaos_actions.KILL_WORKER:
            controller = ChaosController(spec)
            service = trials.make_service(n_workers=2)
            try:
                with activated(controller):
                    # Fork the pool inside activation so workers
                    # inherit the armed controller.
                    service.executor.warm()
                    out = trials.run_service_lines(
                        service, [line]
                    )[0]
                data = json.loads(out)
                # The kill fires inside a forked worker; the
                # parent-side proof is the degradation flag.
                fired = bool(data.get("degraded"))
                if not fired:
                    violations.append(
                        "worker kill produced no degraded response"
                    )
                if data.get("ok") is not True:
                    violations.append(
                        "worker kill surfaced as an error response"
                    )
                if data.get("degraded_reason") != "worker-retry":
                    violations.append(
                        "degraded_reason is"
                        f" {data.get('degraded_reason')!r},"
                        " expected 'worker-retry'"
                    )
                # Only the envelope's flag flips; the result, its
                # transport provenance included, must equal clean.
                expected = dict(json.loads(clean), degraded=True)
                if json.loads(canon_service(out)) != expected:
                    violations.append(
                        "post-worker-death result diverged from"
                        " clean"
                    )
                # Outside activation the next answer must be clean and
                # undegraded — killed, not wedged.  It is computed
                # in-process: no pool is forked again from the
                # service's threads after a worker death.
                out2 = trials.run_service_lines(service, [line])[0]
                if canon_service(out2) != clean:
                    violations.append(
                        "service did not recover after worker kill"
                    )
                if service.executor.pool_state() != "lost":
                    violations.append(
                        "pool state is"
                        f" {service.executor.pool_state()!r} after a"
                        " worker kill, expected 'lost'"
                    )
            finally:
                service.close()
            return violations, fired
        controller = ChaosController(spec)
        service = trials.make_service()
        try:
            with activated(controller):
                out = trials.run_service_lines(service, [line])[0]
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            data = json.loads(out)
            if spec.action == chaos_actions.RAISE_TRANSIENT:
                if canon_service(out) != clean:
                    violations.append(
                        "retried dispatch diverged from clean run"
                    )
                if service.executor.events.count(EventKind.RETRY) < 1:
                    violations.append("no RETRY event recorded")
            else:  # crash
                if data.get("ok") is not False:
                    violations.append(
                        "dispatch crash did not surface as an error"
                    )
                elif data["error"]["code"] != "internal":
                    violations.append(
                        "dispatch crash surfaced with code"
                        f" {data['error']['code']!r}"
                    )
            # The next query must come back clean either way.
            out2 = trials.run_service_lines(service, [line])[0]
        finally:
            service.close()
        if canon_service(out2) != clean:
            violations.append(
                "service did not recover after dispatch fault"
            )
        return violations, fired

    def _trial_service_respond(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Serialization faults: a structured error line, then clean."""
        del tmpdir
        clean = self.clean_service()
        violations: List[str] = []
        line = trials.service_request_line()
        controller = ChaosController(spec)
        service = trials.make_service()
        try:
            with activated(controller):
                out = trials.run_service_lines(service, [line])[0]
            fired = controller.fired()
            if not fired:
                violations.append("fault never fired")
            try:
                data = json.loads(out)
            except ValueError:
                violations.append(
                    "respond fault produced an unparsable line"
                )
            else:
                if data.get("ok") is not False:
                    violations.append(
                        "respond fault did not surface as an error"
                    )
                elif data["error"]["code"] != "internal":
                    violations.append(
                        "respond fault surfaced with code"
                        f" {data['error']['code']!r}"
                    )
            out2 = trials.run_service_lines(service, [line])[0]
        finally:
            service.close()
        if canon_service(out2) != clean:
            violations.append(
                "service did not recover after respond fault"
            )
        return violations, fired

    # -- study cells ---------------------------------------------------

    def _trial_studies_ledger(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Ledger-append faults: healed, skipped, or refused — the
        replayed state is never silently wrong."""
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._studies_kill_trial(spec, tmpdir, "study")
        clean = self.clean_study()
        violations: List[str] = []
        workdir = tmpdir / "study"
        controller = ChaosController(spec)
        scheduler = trials.make_study_scheduler(workdir)
        outcome = None
        with activated(controller):
            try:
                outcome = scheduler.run()
            except LedgerError:
                pass
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        recoverable = spec.action in (
            chaos_actions.RAISE_TRANSIENT,
            chaos_actions.TORN_WRITE,
            chaos_actions.DUPLICATE,
        )
        if recoverable:
            if outcome is None:
                violations.append(
                    f"{spec.action} ledger append was not ridden out"
                )
            elif outcome.status != "complete":
                violations.append(
                    f"run ended {outcome.status!r}, expected complete"
                )
            elif canon_study(outcome.report) != clean:
                violations.append(
                    "faulted run diverged from clean run"
                )
            else:
                try:
                    resumed = trials.make_study_scheduler(
                        workdir
                    ).run()
                except LedgerError as exc:
                    violations.append(
                        f"recovered ledger refused replay: {exc}"
                    )
                else:
                    if canon_study(resumed.report) != clean:
                        violations.append(
                            "resume diverged from clean run"
                        )
            return violations, fired
        # truncate / corrupt (storage rot): either every subsequent
        # replay refuses with LedgerError, or — for a truncation that
        # merely looks like a torn tail — resume recovers the clean
        # report exactly.  Silent divergence is the only violation.
        detected = outcome is None
        if not detected:
            try:
                resumed = trials.make_study_scheduler(workdir).run()
            except LedgerError:
                detected = True
            else:
                if spec.action == chaos_actions.CORRUPT:
                    violations.append(
                        "corrupt ledger record resumed silently"
                    )
                elif canon_study(resumed.report) != clean:
                    violations.append(
                        "truncated ledger resumed to a wrong report"
                    )
                return violations, fired
        # The refusal must be durable: a later resume attempt must
        # keep raising rather than append onto a corrupt ledger.
        try:
            trials.make_study_scheduler(workdir).run()
        except LedgerError:
            pass
        else:
            violations.append(
                f"{spec.action} ledger refusal was not durable"
            )
        return violations, fired

    def _trial_studies_dispatch(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Dispatch faults: retried or failure-counted, never wedged,
        tallies unchanged."""
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._studies_kill_trial(spec, tmpdir, "study")
        clean = self.clean_study()
        violations: List[str] = []
        workdir = tmpdir / "study"
        controller = ChaosController(spec)
        scheduler = trials.make_study_scheduler(workdir)
        with activated(controller):
            outcome = scheduler.run()
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if outcome.status != "complete":
            violations.append(
                f"dispatch fault was not ridden out"
                f" ({outcome.status})"
            )
        if canon_study(outcome.report) != clean:
            violations.append(
                "dispatch-faulted run diverged from clean run"
            )
        state = scheduler.ledger.replay()
        if spec.action == chaos_actions.RAISE_TRANSIENT:
            if scheduler.events.count(EventKind.RETRY) < 1:
                violations.append("no RETRY event recorded")
            if state.failures:
                violations.append(
                    "transient dispatch fault recorded a"
                    f" deterministic failure: {dict(state.failures)}"
                )
        else:  # crash
            if sum(state.failures.values()) != 1:
                violations.append(
                    "expected exactly 1 ledgered failure, saw"
                    f" {dict(state.failures)}"
                )
        return violations, fired

    def _trial_studies_commit(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Result-publish faults: retried idempotently, no torn tmp."""
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._studies_kill_trial(spec, tmpdir, "study")
        clean = self.clean_study()
        violations: List[str] = []
        workdir = tmpdir / "study"
        controller = ChaosController(spec)
        scheduler = trials.make_study_scheduler(workdir)
        with activated(controller):
            outcome = scheduler.run()
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if outcome.status != "complete":
            violations.append(
                f"commit fault was not ridden out ({outcome.status})"
            )
        if canon_study(outcome.report) != clean:
            violations.append(
                "commit-faulted run diverged from clean run"
            )
        stale = list((workdir / "store").rglob("*.tmp"))
        if stale:
            violations.append(
                "torn shard tmp left behind:"
                f" {[p.name for p in stale]}"
            )
        return violations, fired

    def _trial_studies_quarantine(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Quarantine faults: the poison shard lands in quarantine
        exactly once and the study degrades instead of wedging."""
        if spec.action == chaos_actions.KILL_PROCESS:
            return self._studies_kill_trial(
                spec, tmpdir, "study-poison"
            )
        clean = self.clean_study_poison()
        violations: List[str] = []
        workdir = tmpdir / "study"
        controller = ChaosController(spec)
        scheduler = trials.make_study_scheduler(workdir, poison=True)
        with activated(controller):
            outcome = scheduler.run()
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if outcome.status != "degraded":
            violations.append(
                f"poison study ended {outcome.status!r},"
                " expected degraded"
            )
        if canon_study(outcome.report) != clean:
            violations.append(
                "quarantine-faulted run diverged from clean"
                " poison run"
            )
        state = scheduler.ledger.replay()
        expected = (trials.STUDY_POISON_SHARD,)
        if tuple(sorted(state.quarantined)) != expected:
            violations.append(
                f"quarantined {sorted(state.quarantined)},"
                f" expected {list(expected)}"
            )
        return violations, fired

    def _studies_kill_trial(
        self, spec: ChaosSpec, tmpdir: Path, target: str
    ) -> Tuple[List[str], bool]:
        """SIGKILL a study child mid-run; resume must be byte-exact."""
        workdir = tmpdir / "study"
        workdir.mkdir(parents=True, exist_ok=True)
        marker = tmpdir / "marker"
        armed = ChaosSpec(
            site=spec.site,
            action=spec.action,
            fire_at=spec.fire_at,
            max_fires=spec.max_fires,
            worker_only=spec.worker_only,
            marker_path=str(marker),
        )
        outcome = trials.run_kill_trial(target, armed, workdir)
        violations: List[str] = []
        fired = outcome.fired
        if outcome.hung:
            violations.append("chaos child hung past timeout")
        if not fired:
            violations.append("fault never fired (no marker)")
        elif outcome.exit_code != -signal.SIGKILL:
            violations.append(
                f"child exited {outcome.exit_code},"
                f" expected -{int(signal.SIGKILL)}"
            )
        poison = target == "study-poison"
        clean = (
            self.clean_study_poison()
            if poison
            else self.clean_study()
        )
        scheduler = trials.make_study_scheduler(
            workdir, poison=poison
        )
        try:
            resumed = scheduler.run()
        except LedgerError as exc:
            violations.append(
                f"ledger observable invalid after kill: {exc}"
            )
            return violations, fired
        expected = "degraded" if poison else "complete"
        if resumed.status != expected:
            violations.append(
                f"resume ended {resumed.status!r},"
                f" expected {expected}"
            )
        if canon_study(resumed.report) != clean:
            violations.append(
                "resumed result diverged from clean run"
            )
        stale = list((workdir / "store").rglob("*.tmp"))
        if stale:
            violations.append(
                "stale shard tmp survived resume:"
                f" {[p.name for p in stale]}"
            )
        # replay() raises on any double-committed shard, so a clean
        # replay plus the exact committed count proves each shard was
        # counted exactly once.
        state = scheduler.ledger.replay()
        n_expected = scheduler.spec.n_shards - (1 if poison else 0)
        if len(state.committed) != n_expected:
            violations.append(
                f"{len(state.committed)} shards committed,"
                f" expected {n_expected}"
            )
        return violations, fired

    # -- surrogate cells -----------------------------------------------

    def _trial_surrogate_load(
        self, spec: ChaosSpec, tmpdir: Path
    ) -> Tuple[List[str], bool]:
        """Artifact-load faults: the facade always answers.

        A truncated or corrupted artifact is quarantined on first
        read and the query falls back to a live engine with honest
        provenance (no surrogate digest); a transient read error is
        a miss, not a quarantine — the artifact survives and a fresh
        store serves it again.
        """
        root = tmpdir / "surrogate"
        digest = trials.make_surrogate_root(root)
        # The helper's query carries the trial workload's documented
        # constant seed; taint cannot see through its return value.
        query = trials.surrogate_query()
        clean = transport_api.answer(
            query, store=SurrogateStore(root)  # repro: noqa REP101
        )
        violations: List[str] = []
        if clean.provenance.engine != "surrogate":
            violations.append(
                "clean pass did not serve from the surrogate"
                f" ({clean.provenance.engine!r})"
            )
        controller = ChaosController(spec)
        with activated(controller):
            chaos = transport_api.answer(
                query, store=SurrogateStore(root)  # repro: noqa REP101
            )
        fired = controller.fired()
        if not fired:
            violations.append("fault never fired")
        if not 0.0 <= chaos.value <= 1.0:
            violations.append(
                f"chaos answer is not a fraction: {chaos.value}"
            )
        if abs(chaos.value - clean.value) > SURROGATE_TRIAL_TOL:
            violations.append(
                "fallback answer diverged from the certified one:"
                f" {chaos.value} vs {clean.value}"
            )
        quarantined = list(root.glob("*" + QUARANTINE_SUFFIX))
        if spec.action == chaos_actions.RAISE_TRANSIENT:
            if chaos.provenance.engine == "surrogate":
                violations.append(
                    "transient load fault did not miss the surrogate"
                )
            if quarantined:
                violations.append(
                    "transient fault quarantined a healthy artifact"
                )
            retry = transport_api.answer(
                query, store=SurrogateStore(root)  # repro: noqa REP101
            )
            if retry.provenance.engine != "surrogate":
                violations.append(
                    "artifact not served again after transient fault"
                )
            elif retry.provenance.artifact_digest != digest:
                violations.append(
                    "retry served a different artifact"
                )
        else:  # truncate / corrupt
            if chaos.provenance.engine == "surrogate":
                violations.append(
                    f"{spec.action}d artifact still served the query"
                )
            if chaos.provenance.artifact_digest:
                violations.append(
                    "fallback answer claims an artifact digest"
                )
            if not quarantined:
                violations.append(
                    f"{spec.action}d artifact was not quarantined"
                )
        return violations, fired

    # -- kill (subprocess) trials --------------------------------------

    def _kill_trial(
        self, spec: ChaosSpec, tmpdir: Path, target: str
    ) -> Tuple[List[str], bool]:
        checkpoint = tmpdir / "ck.json"
        marker = tmpdir / "marker"
        armed = ChaosSpec(
            site=spec.site,
            action=spec.action,
            fire_at=spec.fire_at,
            max_fires=spec.max_fires,
            worker_only=spec.worker_only,
            marker_path=str(marker),
        )
        outcome = trials.run_kill_trial(
            target, armed, checkpoint, plan=self.plan
        )
        violations: List[str] = []
        fired = outcome.fired
        if outcome.hung:
            violations.append("chaos child hung past timeout")
        if not fired:
            violations.append("fault never fired (no marker)")
        elif outcome.exit_code != -signal.SIGKILL:
            violations.append(
                f"child exited {outcome.exit_code},"
                f" expected -{int(signal.SIGKILL)}"
            )
        snapshot_cls = (
            CampaignCheckpoint
            if target == "campaign"
            else FleetCheckpoint
        )
        resumable = checkpoint.exists()
        if resumable:
            try:
                snapshot_cls.load(checkpoint)
            except CheckpointError as exc:
                resumable = False
                violations.append(
                    f"checkpoint observable invalid after kill: {exc}"
                )
        # Constructing the recovery runner sweeps stale tmp files.
        if target == "campaign":
            runner = trials.make_campaign_runner(
                checkpoint, plan=self.plan
            )
        else:
            runner = trials.make_fleet_runner(checkpoint)
        tmp = checkpoint.with_suffix(checkpoint.suffix + ".tmp")
        if tmp.exists():
            violations.append("stale tmp not cleaned on startup")
        if target == "campaign":
            recovered = runner.run(resume=resumable)
            got = canon_exposures(recovered)
            clean = self.clean_campaign()
        else:
            recovered = runner.run(
                n_days=trials.FLEET_N_DAYS, resume=resumable
            )
            got = canon_days(recovered)
            clean = self.clean_fleet()
        if got != clean:
            violations.append(
                "recovered result diverged from clean run"
            )
        if resumable and not self._has_event(
            recovered.events, EventKind.RESUME
        ):
            violations.append("no RESUME event after resume")
        return violations, fired

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _has_event(events, kind: str) -> bool:
        return any(e.kind == kind for e in events)

    @staticmethod
    def _require_valid_checkpoint(
        path: Path,
        snapshot_cls,
        violations: List[str],
        expect_exists: bool = False,
    ) -> None:
        """A checkpoint file, if observable, must always load."""
        if not path.exists():
            if expect_exists:
                violations.append(
                    f"expected checkpoint at {path.name}, found none"
                )
            return
        try:
            snapshot_cls.load(path)
        except CheckpointError as exc:
            violations.append(
                f"checkpoint observable invalid: {exc}"
            )


__all__ = [
    "ChaosReport",
    "InvariantChecker",
]

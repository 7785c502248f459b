"""Supervised campaign execution: the reboot-and-continue harness.

The paper's beam protocol (Section III-C) expects things to go wrong
mid-campaign — executions crash, devices drop, the shift ends — and
treats recovery as part of the methodology.  This module is that
protocol for the virtual campaigns:

* :class:`CampaignRunner` drives a declarative plan of
  :class:`ExposureStep` records through an
  :class:`~repro.beam.campaign.IrradiationCampaign` with exposure
  isolation, deterministic checkpoint/resume, wall-clock deadlines,
  event budgets with graceful degradation, and retry-with-backoff
  for transient harness faults;
* :class:`FleetRunner` does the same for the year-long
  :class:`~repro.core.fleet.FleetSimulator`; the two share one
  checkpointed segment loop and one
  :class:`~repro.runtime.checkpoint.Checkpoint` record;
* :class:`Supervisor` is the shared retry/isolation/budget engine,
  usable around any long-running entry point (``RiskAssessment``,
  the DDR correct-loop tester, FPGA campaigns);
* :func:`signal_interrupt` turns SIGINT/SIGTERM into the flag a
  supervised run polls between units of work.

Everything is deterministic: a run killed at any checkpoint boundary
and resumed in a fresh process produces a result identical to the
uninterrupted run.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.beam.beamline import Beamline, chipir, rotax
from repro.beam.campaign import IrradiationCampaign
from repro.beam.results import CampaignResult, ExposureResult
from repro.chaos.faultpoints import fault_point
from repro.core.fleet import FleetDay, FleetSimulator, FleetYearResult
from repro.devices import DEVICES, get_device
from repro.obs import core as obs
from repro.runtime.budget import Budget, BudgetTracker, RetryPolicy
from repro.runtime.checkpoint import (
    Checkpoint,
    cleanup_stale_tmp,
    plan_digest,
)
from repro.runtime.errors import (
    CheckpointError,
    ConfigurationError,
    TransientHarnessError,
    require_non_empty,
    require_positive_int,
)
from repro.runtime.events import EventKind, EventLog, HarnessEvent
from repro.workloads import create_workload

#: Beamline factories addressable from a declarative plan.
BEAMLINE_FACTORIES: Dict[str, Callable[[], Beamline]] = {
    "chipir": chipir,
    "rotax": rotax,
}

#: Exposure fidelity levels a plan step may request.
STEP_MODES = ("counting", "simulated")


@dataclass(frozen=True)
class ExposureStep:
    """One declarative exposure in a campaign plan.

    Steps are plain data (JSON round-trippable) so plans can be
    digested, checkpointed, and resumed in a fresh process.

    Attributes:
        mode: ``"counting"`` or ``"simulated"``.
        beamline: key into :data:`BEAMLINE_FACTORIES`.
        device: device catalog name.
        code: workload name.
        duration_s: exposure time.
        position: board position.
        max_events: simulated-strike cap for this step.
        workload_args: extra size parameters for the workload factory
            (sorted key/value pairs, kept hashable).
    """

    mode: str
    beamline: str
    device: str
    code: str
    duration_s: float
    position: int = 0
    max_events: Optional[int] = None
    workload_args: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in STEP_MODES:
            raise ConfigurationError(
                f"unknown step mode {self.mode!r};"
                f" valid: {STEP_MODES}"
            )
        if self.beamline not in BEAMLINE_FACTORIES:
            raise ConfigurationError(
                f"unknown beamline {self.beamline!r};"
                f" valid: {tuple(BEAMLINE_FACTORIES)}"
            )

    def label(self) -> str:
        """Compact human-readable step identity."""
        return f"{self.device}/{self.code}@{self.beamline}"

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-ready; plan digests)."""
        return {
            "mode": self.mode,
            "beamline": self.beamline,
            "device": self.device,
            "code": self.code,
            "duration_s": self.duration_s,
            "position": self.position,
            "max_events": self.max_events,
            "workload_args": [list(kv) for kv in self.workload_args],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExposureStep":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            mode=str(data["mode"]),
            beamline=str(data["beamline"]),
            device=str(data["device"]),
            code=str(data["code"]),
            duration_s=float(data["duration_s"]),
            position=int(data.get("position", 0)),
            max_events=(
                None
                if data.get("max_events") is None
                else int(data["max_events"])
            ),
            workload_args=tuple(
                (str(k), int(v))
                for k, v in data.get("workload_args", [])
            ),
        )


class Supervisor:
    """Shared retry / isolation / budget engine.

    Args:
        retry: the deterministic backoff policy.
        tracker: budget consumption tracker.
        events: harness flight recorder (shared across layers).
        sleep: injectable backoff sleeper (tests pass a recorder).
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        tracker: Optional[BudgetTracker] = None,
        events: Optional[EventLog] = None,
        sleep: Optional[Callable[[], None]] = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.tracker = (
            tracker if tracker is not None else BudgetTracker()
        )
        # Explicit None checks: an empty EventLog is falsy (len 0),
        # and ``or`` would silently drop the caller's shared log.
        self.events = events if events is not None else EventLog()
        self._sleep = time.sleep if sleep is None else sleep

    def call(
        self,
        label: str,
        fn: Callable[[], "T"],
        step: int = -1,
        retry_on: Tuple[Type[BaseException], ...] = (
            TransientHarnessError,
        ),
    ):
        """Run ``fn``, retrying ``retry_on`` faults with backoff.

        Each retry is recorded as a harness event; the last failure
        propagates to the caller (who typically isolates it).
        """
        delays_s = self.retry.delays_s()
        for attempt, delay_s in enumerate(delays_s):
            try:
                return fn()
            except retry_on as exc:
                self.events.record(
                    EventKind.RETRY,
                    label,
                    f"transient fault ({type(exc).__name__}: {exc});"
                    f" retry {attempt + 1}/{len(delays_s)} after"
                    f" {delay_s:.3f} s backoff",
                    step,
                )
                obs.inc("repro_retries_total")
                obs.event(
                    "supervisor.retry", label=label, step=step
                )
                self._sleep(delay_s)
        try:
            return fn()
        except retry_on:
            # Terminal exhaustion: every budgeted attempt failed.
            # Counted separately from per-attempt retries so operators
            # can tell "rode it out" from "gave up".
            obs.inc("repro_retries_exhausted_total")
            obs.event(
                "supervisor.exhausted", label=label, step=step
            )
            raise

    def isolate(
        self,
        label: str,
        fn: Callable[[], "T"],
        step: int = -1,
    ):
        """Run ``fn`` (with retries); isolate any crash.

        Returns ``fn()``'s value, or ``None`` after recording an
        isolation event — the supervised run continues either way.
        """
        try:
            return self.call(label, fn, step=step)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:  # noqa: BLE001 — isolation point
            self.events.record(
                EventKind.ISOLATION,
                label,
                f"crashed with {type(exc).__name__}: {exc};"
                " recorded and continued (reboot-and-continue)",
                step,
            )
            obs.inc("repro_isolations_total")
            obs.event(
                "supervisor.isolation", label=label, step=step
            )
            return None


@dataclass
class SupervisedCampaignResult:
    """Outcome of one :class:`CampaignRunner` run (or segment).

    Attributes:
        result: the accumulated campaign data.
        events: every harness intervention, in order.
        completed: False when stopped early (deadline / step budget).
        steps_completed: plan steps processed so far.
        steps_total: plan length.
        events_used: simulated strikes consumed from the budget.
        elapsed_s: wall-clock spent in this segment.
        interrupted: True when a SIGINT/SIGTERM-style interrupt
            stopped the run at a step boundary (a final checkpoint
            was still flushed).
    """

    result: CampaignResult
    events: List[HarnessEvent] = field(default_factory=list)
    completed: bool = True
    steps_completed: int = 0
    steps_total: int = 0
    events_used: int = 0
    elapsed_s: float = 0.0
    interrupted: bool = False

    def isolation_count(self) -> int:
        """Harness crashes isolated during the run."""
        return sum(
            1 for e in self.events if e.kind == EventKind.ISOLATION
        )

    def degradation_count(self) -> int:
        """Exposures degraded to a cheaper fidelity."""
        return sum(
            1 for e in self.events if e.kind == EventKind.DEGRADATION
        )

    def to_markdown(self) -> str:
        """Render the run as a Markdown report.

        Exposure counts, robustness flags, and the full harness
        event log — nothing the runtime did is silent.
        """
        lines: List[str] = []
        add = lines.append
        status = "completed" if self.completed else "INCOMPLETE"
        add("# Supervised campaign report")
        add("")
        add(
            f"Run {status}: {self.steps_completed}/{self.steps_total}"
            f" steps, {self.events_used} simulated strikes consumed,"
            f" {self.isolation_count()} isolated crash(es),"
            f" {self.degradation_count()} degradation(s)."
        )
        add("")
        add("## Exposures")
        add("")
        add(
            "| device | code | beam | fluence (n/cm^2) | SDC | DUE |"
            " masked | isolated | degraded |"
        )
        add("|---|---|---|---|---|---|---|---|---|")
        for e in self.result.exposures:
            add(
                f"| {e.device_name} | {e.code} | {e.beam.value} |"
                f" {e.fluence_per_cm2:.3e} | {e.sdc_count} |"
                f" {e.due_count} | {e.masked_count} |"
                f" {e.isolated_count} |"
                f" {'yes' if e.degraded else 'no'} |"
            )
        add("")
        add("## Harness events")
        add("")
        if not self.events:
            add("- none — clean run.")
        for event in self.events:
            where = (
                f" (step {event.step})" if event.step >= 0 else ""
            )
            add(
                f"- **{event.kind}**{where} `{event.label}`:"
                f" {event.message}"
            )
        add("")
        return "\n".join(lines)


class _CheckpointedRunner:
    """The checkpointed segment loop both supervised runners share.

    A runner keeps only what is its own: its unit of work
    (:meth:`_run_unit`), the inputs to its digest (``config`` and
    ``seed``), and the state it saves and restores (:meth:`_start`,
    :meth:`_snapshot`).  This class owns the rest: the stale-tmp
    sweep, resume, the stop checks before each unit, and the
    checkpoint cadence and writes.
    """

    #: Label of the run's harness events.
    label = ""
    #: What one unit of work is called in event messages.
    unit = ""
    #: Suffix of the RESUME message, formatted with the saved state.
    resume_note = ""

    def __init__(
        self,
        config: object,
        seed: int,
        checkpoint_path: Optional[Union[str, Path]],
        checkpoint_every: int,
        budget: Optional[Budget],
        retry: Optional[RetryPolicy],
        clock: Optional[Callable[[], float]],
        sleep: Optional[Callable[[float], None]],
    ) -> None:
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path else None
        )
        if self.checkpoint_path is not None:
            cleanup_stale_tmp(self.checkpoint_path)
        self._every = checkpoint_every
        self.budget = budget or Budget()
        self.retry = retry or RetryPolicy()
        self._clock = clock
        self._sleep = sleep
        # A checkpoint's address: another runner kind, configuration
        # or seed never resumes from it.
        self.digest = plan_digest(
            [{"runner": self.label, "seed": seed, "config": config}]
        )

    def _start(
        self, supervisor: Supervisor, checkpoint: Optional[Checkpoint]
    ) -> None:
        """Set up a run's state (restored when resuming)."""
        raise NotImplementedError

    def _run_unit(self, index: int, supervisor: Supervisor) -> None:
        """Run unit ``index``."""
        raise NotImplementedError

    def _snapshot(self, supervisor: Supervisor) -> Tuple[dict, List[dict]]:
        """The run's state and its finished units' records."""
        raise NotImplementedError

    def _segment(
        self,
        resume: bool,
        n_units: int,
        interrupt: Optional[Callable[[], bool]] = None,
        max_units: Optional[int] = None,
    ) -> Tuple[Supervisor, int, bool]:
        """Run units until ``n_units`` are done or a stop check trips:
        ``interrupt``, the segment cap ``max_units``, the deadline,
        in that order, before each unit.

        Returns:
            ``(supervisor, units done, interrupted)``; the supervisor
            holds the run's events and budget tracker.
        """
        checkpoint = None
        if resume:
            if self.checkpoint_path is None:
                raise ConfigurationError(
                    "resume=True requires a checkpoint_path"
                )
            checkpoint = Checkpoint.load(self.checkpoint_path, self.digest)
        events = EventLog()
        tracker = BudgetTracker(self.budget, clock=self._clock)
        supervisor = Supervisor(
            self.retry, tracker, events, sleep=self._sleep
        )
        self._start(supervisor, checkpoint)
        done = 0
        if checkpoint is not None:
            done = checkpoint.cursor
            events.extend_from_dicts(checkpoint.events)
            events.record(
                EventKind.RESUME,
                self.label,
                f"resumed from {self.checkpoint_path} at {self.unit}"
                f" {done}/{n_units}"
                + self.resume_note.format(**checkpoint.state),
            )
        start = done
        interrupted = False
        for index in range(start, n_units):
            if interrupt is not None and interrupt():
                interrupted = True
                events.record(
                    EventKind.INTERRUPT,
                    self.label,
                    f"interrupt received before {self.unit} {index};"
                    " flushing final checkpoint and stopping",
                )
                break
            if max_units is not None and index - start >= max_units:
                events.record(
                    EventKind.DEADLINE,
                    self.label,
                    f"segment {self.unit} budget ({max_units}) reached"
                    f" at {self.unit} {index}; checkpoint and stop",
                )
                break
            if tracker.deadline_exceeded():
                events.record(
                    EventKind.DEADLINE,
                    self.label,
                    "wall-clock budget"
                    f" ({self.budget.wall_clock_s:.1f} s) exhausted"
                    f" after {tracker.elapsed_s():.1f} s at"
                    f" {self.unit} {index}; checkpoint and stop",
                )
                break
            self._run_unit(index, supervisor)
            done = index + 1
            if self.checkpoint_path is not None and done % self._every == 0:
                self._write_checkpoint(done, supervisor)
        if self.checkpoint_path is not None:
            self._write_checkpoint(done, supervisor)
        return supervisor, done, interrupted

    def _write_checkpoint(self, cursor: int, supervisor: Supervisor) -> None:
        state, done = self._snapshot(supervisor)
        checkpoint = Checkpoint(
            digest=self.digest,
            cursor=cursor,
            state=state,
            done=done,
            events=[e.to_dict() for e in supervisor.events],
        )
        supervisor.call(
            "checkpoint",
            lambda: checkpoint.save(self.checkpoint_path),
            retry_on=(TransientHarnessError, CheckpointError),
        )


@contextlib.contextmanager
def signal_interrupt() -> Iterator[Callable[[], bool]]:
    """Turn SIGINT/SIGTERM into a flag for the duration of the block.

    Yields the zero-argument poll a supervised run checks between
    units of work (:class:`CampaignRunner`'s and
    :class:`~repro.studies.scheduler.StudyScheduler`'s ``interrupt``),
    so a signal stops the run at a boundary — the final checkpoint or
    ledger append still lands — instead of dying mid-write.  Off the
    main thread (embedded use) no handler can be installed, and the
    run goes uninterrupted.  The previous handlers come back on exit.
    """
    received: List[int] = []

    def _on_signal(signum: int, frame) -> None:
        del frame
        received.append(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):
            break
    try:
        yield lambda: bool(received)
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass


class CampaignRunner(_CheckpointedRunner):
    """Supervised executor for a beam-campaign plan.

    Args:
        plan: ordered exposure steps.
        seed: campaign seed (spawn-per-exposure determinism).
        budget: wall-clock / event limits.
        retry: transient-fault backoff policy.
        checkpoint_path: where periodic snapshots go (``None`` =
            no checkpointing).
        checkpoint_every: write a snapshot after this many steps.
        clock: injectable monotonic clock (tests, deadlines).
        sleep: injectable backoff sleeper.
        workload_factory: injectable workload constructor
            (``create_workload`` signature); tests use it to plant
            crashing or transiently-failing workloads.
        interrupt: zero-argument poll the runner checks at every step
            boundary; returning True stops the segment gracefully
            (final checkpoint flushed, ``interrupted`` flagged).  The
            CLI wires :func:`signal_interrupt` here so SIGINT/SIGTERM
            never tears a step in half.
    """

    label = "campaign"
    unit = "step"
    resume_note = (
        " (spawn position {spawn_position},"
        " {events_used} strikes already consumed)"
    )

    def __init__(
        self,
        plan: Sequence[ExposureStep],
        seed: int = 2020,
        budget: Optional[Budget] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        workload_factory: Optional[Callable[..., object]] = None,
        interrupt: Optional[Callable[[], bool]] = None,
    ) -> None:
        require_non_empty("plan", list(plan))
        require_positive_int("checkpoint_every", checkpoint_every)
        self.plan: Tuple[ExposureStep, ...] = tuple(plan)
        self.seed = seed
        self._workload_factory = workload_factory or create_workload
        self._interrupt = interrupt
        super().__init__(
            [s.to_dict() for s in self.plan],
            seed,
            checkpoint_path,
            checkpoint_every,
            budget,
            retry,
            clock,
            sleep,
        )

    def run(
        self,
        resume: bool = False,
        max_steps: Optional[int] = None,
    ) -> SupervisedCampaignResult:
        """Execute the plan (or the rest of it, when resuming).

        Args:
            resume: continue from ``checkpoint_path`` instead of
                starting fresh.
            max_steps: process at most this many steps in this
                segment, then checkpoint and return an incomplete
                result (budgeted beam shifts).

        Raises:
            ConfigurationError: when resuming without a checkpoint
                path.
            CheckpointMismatchError: when the checkpoint belongs to
                a different plan or seed.
        """
        with obs.span(
            "run.campaign",
            steps_total=len(self.plan),
            resume=bool(resume),
        ):
            supervisor, done, interrupted = self._segment(
                resume, len(self.plan), self._interrupt, max_steps
            )
            return SupervisedCampaignResult(
                result=self._campaign.result,
                events=list(supervisor.events),
                completed=done == len(self.plan),
                steps_completed=done,
                steps_total=len(self.plan),
                events_used=supervisor.tracker.events_used,
                elapsed_s=supervisor.tracker.elapsed_s(),
                interrupted=interrupted,
            )

    # ------------------------------------------------------------------

    def _start(
        self, supervisor: Supervisor, checkpoint: Optional[Checkpoint]
    ) -> None:
        self._campaign = IrradiationCampaign(
            self.seed, event_log=supervisor.events
        )
        if checkpoint is None:
            return
        self._campaign.restore_spawn_position(
            checkpoint.state["spawn_position"]
        )
        supervisor.tracker.consume_events(checkpoint.state["events_used"])
        for raw in checkpoint.done:
            self._campaign.result.add(ExposureResult.from_dict(raw))

    def _snapshot(self, supervisor: Supervisor) -> Tuple[dict, List[dict]]:
        state = {
            "spawn_position": self._campaign.spawn_position,
            "events_used": supervisor.tracker.events_used,
        }
        return state, [e.to_dict() for e in self._campaign.result.exposures]

    def _run_unit(self, index: int, supervisor: Supervisor) -> None:
        step = self.plan[index]
        with obs.span("supervisor.step", step=index, label=step.label()):
            supervisor.isolate(
                step.label(),
                lambda: self._execute(supervisor, step, index),
                step=index,
            )

    def _execute(
        self, supervisor: Supervisor, step: ExposureStep, idx: int
    ) -> None:
        # Before any lookup and — critically — before the campaign
        # spawns the step's RNG stream, so a retried step replays the
        # exact draws of an unfaulted one.
        fault_point("supervisor.step", step=idx, label=step.label())
        campaign = self._campaign
        tracker = supervisor.tracker
        beamline = BEAMLINE_FACTORIES[step.beamline]()
        device = get_device(step.device)
        if step.mode == "counting":
            campaign.expose_counting(
                beamline,
                device,
                step.code,
                step.duration_s,
                step.position,
            )
            return
        remaining = tracker.events_remaining()
        if remaining is not None and remaining <= 0:
            # Event budget gone: degrade to counting statistics so
            # the campaign still completes with fluence accounting
            # intact — flagged on the exposure, logged as an event.
            supervisor.events.record(
                EventKind.DEGRADATION,
                step.label(),
                "event budget exhausted"
                f" ({tracker.events_used} used of"
                f" {self.budget.max_events}); degraded"
                " expose_simulated -> expose_counting",
                idx,
            )
            obs.inc("repro_degradations_total")
            exposure = campaign.expose_counting(
                beamline,
                device,
                step.code,
                step.duration_s,
                step.position,
            )
            exposure.degraded = True
            return
        cap = step.max_events
        constrained = remaining is not None and (
            cap is None or remaining < cap
        )
        if constrained:
            supervisor.events.record(
                EventKind.DEGRADATION,
                step.label(),
                f"event budget nearly exhausted; capping simulated"
                f" strikes at {remaining}"
                + (f" (step asked for {cap})" if cap else ""),
                idx,
            )
            obs.inc("repro_degradations_total")
            cap = remaining
        workload = self._workload_factory(
            step.code, **dict(step.workload_args)
        )
        exposure = campaign.expose_simulated(
            beamline,
            device,
            workload,
            step.duration_s,
            step.position,
            max_events=cap,
        )
        if constrained:
            exposure.degraded = True
        tracker.consume_events(
            exposure.sdc_count
            + exposure.due_count
            + exposure.masked_count
        )


@dataclass
class SupervisedFleetResult:
    """Outcome of one :class:`FleetRunner` run (or segment).

    Attributes:
        result: the simulated days so far.
        events: harness interventions, in order.
        completed: False when stopped early at the deadline.
        days_completed: days simulated so far.
        n_days: requested simulation length.
        elapsed_s: wall-clock spent in this segment.
    """

    result: FleetYearResult
    events: List[HarnessEvent] = field(default_factory=list)
    completed: bool = True
    days_completed: int = 0
    n_days: int = 0
    elapsed_s: float = 0.0


class FleetRunner(_CheckpointedRunner):
    """Supervised executor for the year-long fleet simulation.

    Args:
        simulator: a configured :class:`FleetSimulator`.
        checkpoint_path: snapshot location (``None`` = none).
        checkpoint_every_days: snapshot cadence.
        budget: wall-clock limits.
        retry: transient-fault backoff policy.
        clock: injectable monotonic clock.
        sleep: injectable backoff sleeper.
    """

    label = "fleet"
    unit = "day"

    def __init__(
        self,
        simulator: FleetSimulator,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every_days: int = 30,
        budget: Optional[Budget] = None,
        retry: Optional[RetryPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        require_positive_int(
            "checkpoint_every_days", checkpoint_every_days
        )
        self.simulator = simulator
        super().__init__(
            {
                "device": simulator.device.name,
                "scenario": simulator.scenario.label,
                "n_devices": simulator.n_devices,
                "rain_probability": simulator.rain_probability,
                "rain_persistence": simulator.rain_persistence,
            },
            simulator.seed,
            checkpoint_path,
            checkpoint_every_days,
            budget,
            retry,
            clock,
            sleep,
        )

    def run(
        self,
        n_days: int = 365,
        years_since_solar_minimum: float = 0.0,
        resume: bool = False,
    ) -> SupervisedFleetResult:
        """Simulate ``n_days`` (or the rest of them, when resuming).

        Raises:
            ConfigurationError: when resuming without a checkpoint
                path.
            CheckpointMismatchError: when the checkpoint belongs to
                a different fleet configuration.
        """
        require_positive_int("n_days", n_days)
        self._years = years_since_solar_minimum
        with obs.span(
            "run.fleet", n_days=n_days, resume=bool(resume)
        ):
            supervisor, done, _ = self._segment(resume, n_days)
            return SupervisedFleetResult(
                result=self._result,
                events=list(supervisor.events),
                completed=done == n_days,
                days_completed=done,
                n_days=n_days,
                elapsed_s=supervisor.tracker.elapsed_s(),
            )

    # ------------------------------------------------------------------

    def _start(
        self, supervisor: Supervisor, checkpoint: Optional[Checkpoint]
    ) -> None:
        self._result = FleetYearResult()
        if checkpoint is None:
            self.simulator.start()
            return
        self.simulator.load_state(checkpoint.state)
        self._result.days.extend(
            FleetDay.from_dict(raw) for raw in checkpoint.done
        )

    def _snapshot(self, supervisor: Supervisor) -> Tuple[dict, List[dict]]:
        return (
            self.simulator.state_dict(),
            [d.to_dict() for d in self._result.days],
        )

    def _run_unit(self, index: int, supervisor: Supervisor) -> None:
        self._result.days.append(
            supervisor.call(f"day {index}", lambda: self._step_day(index))
        )

    def _step_day(self, day: int) -> FleetDay:
        with obs.span("fleet.day", day=day):
            obs.inc("repro_fleet_days_total")
            # Before the simulator touches its generator, so a retried
            # day consumes exactly the draws of an unfaulted one.
            fault_point("fleet.day", day=day)
            return self.simulator.step_day(day, self._years)


# ----------------------------------------------------------------------
# Built-in plans (the CLI's ``--plan`` choices)
# ----------------------------------------------------------------------


def figure4_plan(
    chipir_duration_s: float = 1800.0,
    rotax_duration_s: float = 4.0 * 3600.0,
) -> List[ExposureStep]:
    """Counting-mode ChipIR + ROTAX sweep over the full catalog.

    The supervised version of the Figure 4 ratio campaign: every
    device, every supported code, both beams.
    """
    plan: List[ExposureStep] = []
    for device in DEVICES.values():
        for code in device.supported_codes:
            plan.append(
                ExposureStep(
                    mode="counting",
                    beamline="chipir",
                    device=device.name,
                    code=code,
                    duration_s=chipir_duration_s,
                )
            )
            plan.append(
                ExposureStep(
                    mode="counting",
                    beamline="rotax",
                    device=device.name,
                    code=code,
                    duration_s=rotax_duration_s,
                )
            )
    return plan


def heterogeneous_plan(
    duration_s: float = 3600.0,
    max_events_per_step: int = 30,
) -> List[ExposureStep]:
    """Event-level APU plan: SC and BFS through both beams.

    Small simulated exposures of the paper's thermally-soft
    heterogeneous codes — the plan the degradation and isolation
    machinery is exercised against.
    """
    plan: List[ExposureStep] = []
    for code, args in (
        ("SC", (("n", 128),)),
        ("BFS", (("n_nodes", 64),)),
    ):
        for beamline in ("chipir", "rotax"):
            plan.append(
                ExposureStep(
                    mode="simulated",
                    beamline=beamline,
                    device="APU-CPU+GPU",
                    code=code,
                    duration_s=duration_s,
                    max_events=max_events_per_step,
                    workload_args=args,
                )
            )
    return plan


#: Named plans the CLI exposes.
PLAN_FACTORIES: Dict[str, Callable[[], List[ExposureStep]]] = {
    "figure4": figure4_plan,
    "heterogeneous": heterogeneous_plan,
}


__all__ = [
    "CampaignRunner",
    "ExposureStep",
    "FleetRunner",
    "PLAN_FACTORIES",
    "Supervisor",
    "SupervisedCampaignResult",
    "SupervisedFleetResult",
    "figure4_plan",
    "heterogeneous_plan",
    "signal_interrupt",
]

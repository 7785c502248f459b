"""Trial workloads and subprocess execution for chaos runs.

The invariant checker replays the same small supervised workloads
over and over — clean, faulted, killed, resumed — so their sizing
lives here, shared between the parent process (clean baselines,
in-process trials) and the forked children used for SIGKILL trials
(a kill must hit a *real* separate process; nothing after SIGKILL
runs, so the child proves the fault fired by the controller's marker
file, written immediately before the kill).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.chaos.faultpoints import install
from repro.chaos.schedule import ChaosController, ChaosSpec
from repro.obs import core as obs
from repro.core.fleet import FleetSimulator
from repro.devices import get_device
from repro.environment import NEW_YORK, datacenter_scenario
from repro.runtime.budget import Budget, CircuitBreaker, RetryPolicy
from repro.runtime.errors import ConfigurationError
from repro.runtime.supervisor import (
    CampaignRunner,
    ExposureStep,
    FleetRunner,
    PLAN_FACTORIES,
    heterogeneous_plan,
)
from repro.service.admission import AdmissionController
from repro.service.compute import QueryExecutor
from repro.service.cache import ResultCache
from repro.service.server import FitService
from repro.spectra.beamlines import rotax_spectrum
from repro.studies.evaluate import evaluate_shard
from repro.studies.scheduler import StudyScheduler
from repro.studies.spec import Shard, StudySpec
from repro.transport.api import LIVE_CASCADE, TransportQuery
from repro.transport.materials import CADMIUM
from repro.transport.surrogate import (
    SurfaceSpec,
    SurrogateStore,
    build_artifact,
)
from repro.transport.surrogate.build import log_grid

#: Campaign trial sizing (small simulated exposures; seconds per run).
CAMPAIGN_DURATION_S = 300.0
CAMPAIGN_MAX_EVENTS = 4
CAMPAIGN_SEED = 2020

#: Fleet trial sizing.
FLEET_N_DAYS = 15
FLEET_CHECKPOINT_EVERY_DAYS = 5
FLEET_N_DEVICES = 5
FLEET_SEED = 2020

#: Wall-clock budget used by ``delay`` trials (the injected clock
#: jumps far past it; real runs never get near it).
DELAY_TRIAL_BUDGET_S = 60.0

#: How long a forked chaos child may run before the trial is
#: declared hung (a recovery invariant in itself).
CHILD_TIMEOUT_S = 120.0


def _no_sleep(_delay_s: float) -> None:
    """Backoff sleeper that returns immediately (trials never wait)."""


def build_campaign_plan(plan: str = "heterogeneous") -> List[ExposureStep]:
    """The campaign plan chaos trials run, sized for speed.

    Args:
        plan: a :data:`~repro.runtime.supervisor.PLAN_FACTORIES`
            name; ``heterogeneous`` (the default) is shrunk to
            seconds-scale exposures.

    Raises:
        ConfigurationError: for an unknown plan name.
    """
    if plan == "heterogeneous":
        return heterogeneous_plan(
            duration_s=CAMPAIGN_DURATION_S,
            max_events_per_step=CAMPAIGN_MAX_EVENTS,
        )
    if plan not in PLAN_FACTORIES:
        raise ConfigurationError(
            f"unknown plan {plan!r}; valid: {tuple(PLAN_FACTORIES)}"
        )
    return PLAN_FACTORIES[plan]()


def make_campaign_runner(
    checkpoint_path: Optional[Union[str, Path]] = None,
    plan: str = "heterogeneous",
    clock: Optional[Callable[[], float]] = None,
    wall_clock_budget_s: Optional[float] = None,
) -> CampaignRunner:
    """A trial-sized :class:`CampaignRunner` (no real backoff sleeps)."""
    budget = (
        Budget(wall_clock_s=wall_clock_budget_s)
        if wall_clock_budget_s is not None
        else None
    )
    return CampaignRunner(
        build_campaign_plan(plan),
        seed=CAMPAIGN_SEED,
        budget=budget,
        checkpoint_path=checkpoint_path,
        checkpoint_every=1,
        clock=clock,
        sleep=_no_sleep,
    )


def make_fleet_runner(
    checkpoint_path: Optional[Union[str, Path]] = None,
    clock: Optional[Callable[[], float]] = None,
    wall_clock_budget_s: Optional[float] = None,
) -> FleetRunner:
    """A trial-sized :class:`FleetRunner` over a fresh simulator."""
    simulator = FleetSimulator(
        get_device("K20"),
        datacenter_scenario(NEW_YORK),
        n_devices=FLEET_N_DEVICES,
        seed=FLEET_SEED,
    )
    budget = (
        Budget(wall_clock_s=wall_clock_budget_s)
        if wall_clock_budget_s is not None
        else None
    )
    return FleetRunner(
        simulator,
        checkpoint_path=checkpoint_path,
        checkpoint_every_days=FLEET_CHECKPOINT_EVERY_DAYS,
        budget=budget,
        clock=clock,
        sleep=_no_sleep,
    )


# ----------------------------------------------------------------------
# FIT-service trial workloads
# ----------------------------------------------------------------------

#: Monte Carlo histories per service trial query (seconds-scale).
SERVICE_N_NEUTRONS = 2048
SERVICE_SEED = 2020
#: Clients in the thundering-herd coalescing trial.
SERVICE_STORM_CLIENTS = 100


def make_service(
    cache_dir: Optional[Union[str, Path]] = None,
    n_workers: int = 1,
) -> FitService:
    """A trial-sized :class:`FitService` (no real backoff sleeps).

    Args:
        cache_dir: enable the durable result cache rooted here.
        n_workers: transmission worker processes (>1 enables the
            fork pool the kill-worker trials target).
    """
    cache = (
        ResultCache(cache_dir, sleep=_no_sleep)
        if cache_dir is not None
        else None
    )
    return FitService(
        executor=QueryExecutor(n_workers=n_workers, sleep=_no_sleep),
        cache=cache,
        admission=AdmissionController(max_inflight=256),
    )


def service_request_line(request_id: str = "t1") -> str:
    """The canonical transmission request line service trials send."""
    return json.dumps(
        {
            "id": request_id,
            "kind": "transmission",
            "params": {
                "shield": "water",
                "n_neutrons": SERVICE_N_NEUTRONS,
                "seed": SERVICE_SEED,
            },
        },
        sort_keys=True,
    )


def run_service_lines(
    service: FitService, lines: List[str]
) -> List[str]:
    """Answer request lines sequentially on a fresh event loop."""

    async def _run() -> List[str]:
        return [await service.handle_line(line) for line in lines]

    return asyncio.run(_run())


def run_service_storm(
    service: FitService, line: str, n_clients: int
) -> List[str]:
    """Answer ``n_clients`` concurrent copies of one request line.

    ``asyncio.gather`` schedules every handler task before any of
    them can complete, so all clients are guaranteed to be in flight
    together — the thundering-herd shape the coalescer must collapse
    to a single computation.
    """

    async def _run() -> List[str]:
        return await asyncio.gather(
            *[service.handle_line(line) for _ in range(n_clients)]
        )

    return asyncio.run(_run())


# ----------------------------------------------------------------------
# Study trial workloads
# ----------------------------------------------------------------------

#: Monte Carlo histories per study trial point (seconds-scale).
STUDY_N_NEUTRONS = 256
STUDY_SEED = 2020
#: The shard the poison trial's evaluator always crashes.
STUDY_POISON_SHARD = 0
#: Deterministic failures before the poison shard quarantines.
STUDY_POISON_FAILURES = 2


def make_study_spec(poison: bool = False) -> StudySpec:
    """The 2x2 study grid chaos trials run (one point per shard)."""
    return StudySpec(
        name="chaos-study",
        axes={
            "site": ("leadville", "nyc"),
            "shield": ("none", "cadmium"),
        },
        seed=STUDY_SEED,
        n_neutrons=STUDY_N_NEUTRONS,
        shard_size=1,
        max_shard_failures=(
            STUDY_POISON_FAILURES if poison else 3
        ),
    )


def poison_evaluate(
    shard: Shard, spec: StudySpec, engine: str
) -> dict:
    """Evaluator that deterministically crashes one shard forever."""
    if shard.index == STUDY_POISON_SHARD:
        raise ValueError("chaos: poison shard")
    return evaluate_shard(shard, spec, engine)


def make_study_scheduler(
    workdir: Union[str, Path], poison: bool = False
) -> StudyScheduler:
    """A trial-sized :class:`StudyScheduler` rooted at ``workdir``.

    Breakers get an unreachable threshold so the engine cascade never
    engages: the trial canon must depend only on durable state, not
    on how many failures this particular process happened to see
    (breaker state is in-memory and resets on resume).  The cascade
    itself is covered by deterministic unit tests.
    """
    workdir = Path(workdir)
    return StudyScheduler(
        make_study_spec(poison=poison),
        ledger_path=workdir / "ledger.jsonl",
        store_root=workdir / "store",
        retry=RetryPolicy(),
        sleep=_no_sleep,
        evaluate=poison_evaluate if poison else None,
        breakers={
            engine: CircuitBreaker(failure_threshold=10**6)
            for engine in LIVE_CASCADE
        },
    )


# ----------------------------------------------------------------------
# Surrogate trial workloads
# ----------------------------------------------------------------------

#: Held-out MC histories per certification point — enough that the
#: certified bound beats the serving floor, so the clean pass is a
#: surrogate hit (seconds-scale; the artifact is built once).
SURROGATE_CERT_HISTORIES = 4000
#: Grid points of the trial surface (interpolation gap shrinks with
#: grid density; below ~9 the gap alone exceeds the serving floor).
SURROGATE_N_POINTS = 9
SURROGATE_SEED = 2020
#: In-envelope query thickness (mid-grid).
SURROGATE_THICKNESS_CM = 0.1

_surrogate_artifact_cache: List[dict] = []


def surrogate_artifact() -> dict:
    """The tiny cadmium artifact surrogate trials share.

    Memoized per process: the build runs a deterministic grid fill
    plus MC certification, and every (action, trial) cell wants the
    same bytes anyway.
    """
    if not _surrogate_artifact_cache:
        spec = SurfaceSpec(
            mode="transmission",
            material=CADMIUM,
            thickness_cm=log_grid(0.025, 0.4, SURROGATE_N_POINTS),
            source_spectrum=rotax_spectrum(),
        )
        _surrogate_artifact_cache.append(
            build_artifact(
                "chaos-trial",
                # Seed taint cannot see through the list literal; the
                # build seed is the documented constant above.
                [spec],  # repro: noqa REP101
                cert_histories=SURROGATE_CERT_HISTORIES,
                seed=SURROGATE_SEED,
            )
        )
    return _surrogate_artifact_cache[0]


def make_surrogate_root(root: Union[str, Path]) -> str:
    """Write the shared trial artifact under ``root``.

    Returns:
        The artifact's content digest.
    """
    artifact = surrogate_artifact()
    SurrogateStore(root).save(artifact)
    return str(artifact["checksum"])


def surrogate_query() -> TransportQuery:
    """The canonical in-envelope query surrogate trials ask."""
    return TransportQuery(
        mode="transmission",
        material=CADMIUM,
        thickness_cm=SURROGATE_THICKNESS_CM,
        source_spectrum=rotax_spectrum(),
        n_neutrons=SERVICE_N_NEUTRONS,
        seed=SURROGATE_SEED,
        engine="auto",
    )


# ----------------------------------------------------------------------
# Forked children for SIGKILL trials
# ----------------------------------------------------------------------


def _child(spec: ChaosSpec, work: Callable[[], object]) -> None:
    """Child entry: arm chaos, then run ``work`` until it kills us."""
    install(ChaosController(spec))
    work()


@dataclass(frozen=True)
class SubprocessOutcome:
    """What happened to a forked chaos child.

    Attributes:
        exit_code: the child's exit code (``-9`` = died to SIGKILL;
            ``None`` only if it was still alive and got terminated).
        hung: the child outlived :data:`CHILD_TIMEOUT_S`.
    """

    exit_code: Optional[int]
    hung: bool


def run_kill_trial(
    spec: ChaosSpec,
    work: Callable[[], object],
    timeout_s: float = CHILD_TIMEOUT_S,
) -> SubprocessOutcome:
    """Run ``work`` in a forked child and let chaos kill it.

    Args:
        spec: the injection (should carry a ``marker_path``; without
            one a SIGKILL trial cannot prove the fault fired).
        work: the workload run the child performs; the child inherits
            it through ``fork``, so it is never pickled.
        timeout_s: hang cutoff.

    Raises:
        ConfigurationError: when ``fork`` is unavailable (SIGKILL
            trials need inherited module state).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "SIGKILL trials require the 'fork' start method"
        )
    with obs.span(
        "chaos.trial",
        site=spec.site,
        action=spec.action,
        fire_at=spec.fire_at,
    ):
        obs.inc("repro_chaos_trials_total")
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child, args=(spec, work))
        child.start()
        child.join(timeout_s)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        return SubprocessOutcome(exit_code=child.exitcode, hung=hung)


__all__ = [
    "CHILD_TIMEOUT_S",
    "DELAY_TRIAL_BUDGET_S",
    "FLEET_N_DAYS",
    "SERVICE_STORM_CLIENTS",
    "build_campaign_plan",
    "make_campaign_runner",
    "make_fleet_runner",
    "make_service",
    "make_study_scheduler",
    "run_kill_trial",
    "run_service_lines",
    "run_service_storm",
    "service_request_line",
]
